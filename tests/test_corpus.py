"""Every corpus case gives the stored bytes (``tests/corpus.py`` regenerates them).

The bytes belong to one numpy build, BLAS and set of SIMD extensions: on
another fingerprint each case skips and names both fingerprints.
"""

import json

import pytest

import corpus

with open(corpus.CORPUS) as _fh:
    STORED = json.load(_fh)


@pytest.mark.parametrize("name", sorted(STORED["cases"]))
def test_corpus_case_is_byte_equal(name):
    here = corpus.fingerprint()
    if here != STORED["fingerprint"]:
        pytest.skip(f"corpus fingerprint {STORED['fingerprint']} is not this "
                    f"machine's {here}")
    assert corpus.run_case(corpus.CASES[name]) == STORED["cases"][name]


def test_corpus_holds_every_case():
    assert sorted(STORED["cases"]) == sorted(corpus.CASES)

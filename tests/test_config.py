"""The repository's pytest configuration reports a failing property test.

``filterwarnings = ["error"]`` turns every warning into an exception.  A
third-party warning raised inside hypothesis's report hook would then end
the session with INTERNALERROR, hiding the falsifying example and skipping
the tests after it.  This runs pytest on a generated file under the
repository's configuration and checks that the failure is reported.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1

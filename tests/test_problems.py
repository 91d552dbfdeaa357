"""Instance generators, certification, sizing, and serialization tests."""

import hashlib
import json
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsg import bench, cli, problems
from pdsg.errors import CapacityError
from pdsg.problems import (
    QcqpData,
    QuadraticInstance,
    box_radius,
    certify_constants,
    instance_bytes,
    instance_digest,
    load_instance,
    random_qcqp,
    random_scenario_lp,
    save_instance,
    scenario_count_discarding,
    scenario_count_robust,
)
import reference_forms
from test_loop_equivalence import qcqps


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_qcqp_shapes_and_construction():
    inst = random_qcqp(6, 4, 9, 7, seed=0)
    d = inst.data
    assert d.H.shape == (9, 4, 6) and d.c.shape == (9, 4)
    assert d.Q.shape == (7, 6, 6) and d.a.shape == (7, 6) and d.b.shape == (7,)
    assert np.all(d.b >= 0.1) and np.all(d.b <= 1.1)
    assert np.all(inst.box_lo == -10.0) and np.all(inst.box_hi == 10.0)
    # Q symmetric PSD
    for Qj in d.Q:
        assert np.allclose(Qj, Qj.T)
        assert np.linalg.eigvalsh(Qj)[0] >= -1e-10


def test_qcqp_origin_strictly_feasible():
    inst = random_qcqp(5, 3, 4, 11, seed=7)
    vals = inst.constraint_values(np.zeros(5))
    assert np.allclose(vals, -inst.data.b)
    assert np.all(vals < 0)
    assert inst.origin_feasible
    assert np.array_equal(inst.start_point(), np.zeros(5))


def test_qcqp_seed_determinism():
    a = random_qcqp(4, 3, 5, 6, seed=42)
    b = random_qcqp(4, 3, 5, 6, seed=42)
    c = random_qcqp(4, 3, 5, 6, seed=43)
    assert instance_bytes(a) == instance_bytes(b)
    assert instance_bytes(a) != instance_bytes(c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(1, 13),
       st.integers(1, 5), st.integers(0, 2**16))
def test_chunked_q_build_equals_one_draw(n, p, N, m, rows, seed):
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * n * n * rows):
        chunked = random_qcqp(n, p, N, m, seed)
    want = reference_forms.random_qcqp_one_draw(n, p, N, m, seed)
    assert instance_digest(chunked) == instance_digest(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.data(), st.integers(1, 9), st.integers(1, 3),
       st.integers(0, 2**16))
def test_blocked_q_build_equals_one_draw(n, data, m, rows, seed):
    block = data.draw(st.integers(1, n + 1), label="block")
    with mock.patch.object(problems, "_GRAM_BLOCK", block), \
            mock.patch.object(problems, "_CHUNK_BYTES", 8 * n * n * rows):
        got = random_qcqp(n, 2, 3, m, seed)
    Q = got.data.Q
    assert np.array_equal(Q, Q.transpose(0, 2, 1))
    want = reference_forms.random_qcqp_one_draw(n, 2, 3, m, seed)
    assert instance_digest(got) == instance_digest(want)


def _assert_q_build_equals_one_draw(shape, chunks, blocks):
    n, m = shape[0], shape[3]
    assert len(problems._chunks(m, n)) == chunks
    assert -(-n // problems._GRAM_BLOCK) == blocks
    with mock.patch.object(problems.np, "einsum", wraps=np.einsum) as einsum:
        got = random_qcqp(*shape)
    # one Gram product per upper block pair of each chunk
    assert einsum.call_count == chunks * blocks * (blocks + 1) // 2
    Q = got.data.Q
    assert np.array_equal(Q, Q.transpose(0, 2, 1))
    assert instance_digest(got) == instance_digest(reference_forms.random_qcqp_one_draw(*shape))


def test_chunked_q_build_equals_one_draw_at_default_chunk():
    # 32 rows of M per chunk at n = 64: chunks of 32, 32, 32 and 4, and a
    # ragged last block: 20, 20, 20 and 4
    assert [s.stop - s.start for s in problems._chunks(100, 64)] == [32, 32, 32, 4]
    _assert_q_build_equals_one_draw((64, 2, 3, 100, 5), chunks=4, blocks=4)


@pytest.mark.parametrize("shape", [(20, 15, 200, 200, 13), (7, 3, 4, 9, 1)])
def test_q_build_is_one_product_per_chunk_when_n_fits_a_block(shape):
    # desk's shape, and n below the block size
    _assert_q_build_equals_one_draw(shape, chunks=1, blocks=1)


@pytest.mark.parametrize("shape", [(100, 95, 200, 300), (30, 5, 10, 500)])
def test_q_build_holds_one_chunk_at_a_time(shape):
    # one chunk of M at a time, plus block-sized mirror copies: a second
    # chunk-sized temporary (the next chunk of M drawn while the last is
    # alive, a copy of a chunk of Q) or one the size of Q exceeds the bound
    random_qcqp(1, 1, 1, 1, seed=0)  # numpy.random's lazy import is no temporary
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = random_qcqp(*shape, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = inst.data
    returned = sum(arr.nbytes for arr in (d.H, d.c, d.Q, d.a, d.b, d.box_lo, d.box_hi))
    assert peak - base - returned <= 1.5 * problems._CHUNK_BYTES


@settings(max_examples=40, deadline=None)
@given(qcqps(), st.integers(1, 5))
def test_chunked_q_norms_equal_one_pass(inst, rows):
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * inst.n * inst.n * rows):
        qnorms = inst.constraint_curvatures()
    assert qnorms.tobytes() == np.linalg.norm(inst.data.Q, axis=(1, 2)).tobytes()


def test_dimension_validation():
    with pytest.raises(ValueError):
        random_qcqp(0, 1, 1, 1, seed=0)
    with pytest.raises(ValueError):
        random_scenario_lp(3, 0, 1, seed=0)


def test_objective_gradient_matches_finite_differences():
    inst = random_qcqp(5, 4, 6, 3, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.uniform(-2, 2, 5)
        g = inst.objective_grad(x)
        g_fd = _fd_grad(inst.objective, x)
        assert np.max(np.abs(g - g_fd)) < 1e-5


def test_constraint_gradient_matches_finite_differences():
    inst = random_qcqp(5, 4, 6, 3, seed=2)
    rng = np.random.default_rng(1)
    for j in range(inst.m):
        x = rng.uniform(-2, 2, 5)
        val, grad = inst.constraint(j, x)
        assert val == pytest.approx(inst.constraint_value(j, x))
        g_fd = _fd_grad(lambda y: inst.constraint(j, y)[0], x)
        assert np.max(np.abs(grad - g_fd)) < 1e-5


def test_constraint_full_passes_agree_with_single_queries():
    inst = random_qcqp(4, 3, 5, 6, seed=3)
    x = np.random.default_rng(2).uniform(-3, 3, 4)
    vals = inst.constraint_values(x)
    grads = inst.constraint_grads(x)
    for j in range(inst.m):
        vj, gj = inst.constraint(j, x)
        assert vals[j] == pytest.approx(vj)
        assert np.allclose(grads[j], gj)


def test_stochastic_gradient_unbiased():
    inst = random_qcqp(6, 4, 12, 3, seed=4)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 6)
    exact = inst.objective_grad(x)
    per_piece = np.einsum("ipn,ip->in", inst.data.H, inst.data.H @ x - inst.data.c)
    idx = rng.integers(inst.N, size=100_000)
    draws = per_piece[idx]
    mean = draws.mean(axis=0)
    se = draws.std(axis=0) / math.sqrt(len(idx))
    assert np.all(np.abs(mean - exact) <= 4 * se + 1e-12)


def test_single_piece_objective_has_zero_variance():
    inst = random_qcqp(3, 2, 1, 2, seed=5)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 3)
    g1 = inst.stoch_objective_grad(int(np.random.default_rng(1).integers(inst.N)), x)
    g2 = inst.stoch_objective_grad(int(np.random.default_rng(2).integers(inst.N)), x)
    assert np.allclose(g1, inst.objective_grad(x))
    assert np.allclose(g1, g2)
    consts = certify_constants(inst, samples=8, rng_seed=0)
    assert consts.sigma == 0.0


def test_scenario_lp_properties():
    inst = random_scenario_lp(4, 6, 3, seed=0)
    assert inst.n == 4 and inst.m == 6 and inst.N == 3
    assert np.all(inst.data.Q == 0.0)
    vals = inst.constraint_values(np.zeros(4))
    assert np.all(vals < 0)
    # unit objective Hessian: modulus exactly one
    consts = certify_constants(inst, samples=4, rng_seed=0)
    assert consts.mu == pytest.approx(1.0, abs=1e-12)
    assert consts.mu_exact


def test_certify_closed_form_example():
    # single affine constraint x1 <= 1 on [-10, 10]^2
    H = np.eye(2)[None, :, :]
    c = np.zeros((1, 2))
    Q = np.zeros((1, 2, 2))
    a = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    box = np.array([10.0, 10.0])
    inst = QuadraticInstance(QcqpData(H, c, Q, a, b, -box, box))
    consts = certify_constants(inst, samples=4, rng_seed=0)
    assert consts.G == pytest.approx(1.0)
    assert consts.F == pytest.approx(10 * math.sqrt(2) + 1.0)


def test_certified_bounds_hold_on_samples():
    inst = random_qcqp(6, 4, 5, 12, seed=6)
    consts = certify_constants(inst, samples=8, rng_seed=0)
    rng = np.random.default_rng(7)
    xs = rng.uniform(inst.box_lo, inst.box_hi, size=(2000, inst.n))
    for x in xs[:200]:
        vals = inst.constraint_values(x)
        grads = inst.constraint_grads(x)
        assert np.max(np.abs(vals)) <= consts.F + 1e-9
        assert np.max(np.linalg.norm(grads, axis=1)) <= consts.G + 1e-9


def test_scaling_rows_doubles_g():
    base = random_scenario_lp(4, 5, 1, seed=1)
    d = base.data
    doubled = QuadraticInstance(
        QcqpData(d.H, d.c, d.Q, 2.0 * d.a, d.b, d.box_lo, d.box_hi)
    )
    g1 = certify_constants(base, samples=2, rng_seed=0).G
    g2 = certify_constants(doubled, samples=2, rng_seed=0).G
    assert g2 == pytest.approx(2.0 * g1)


def test_box_radius():
    assert box_radius(np.array([-10.0, -10.0]), np.array([10.0, 10.0])) == pytest.approx(
        10 * math.sqrt(2)
    )
    assert box_radius(np.array([-3.0]), np.array([1.0])) == pytest.approx(3.0)


def test_start_point_box_center_when_origin_infeasible():
    H = np.eye(2)[None, :, :]
    c = np.zeros((1, 2))
    Q = np.zeros((1, 2, 2))
    a = np.array([[1.0, 0.0]])
    b = np.array([-1.0])  # f(0) = 1 > 0
    inst = QuadraticInstance(QcqpData(H, c, Q, a, b, np.array([0.0, 0.0]), np.array([4.0, 2.0])))
    assert not inst.origin_feasible
    assert np.allclose(inst.start_point(), [2.0, 1.0])


# -- certification against the per-sample forms ------------------------------------


def _bounds_per_norm(inst):
    """F and G with the Frobenius norms of Q taken inline."""
    d = inst.data
    R = box_radius(inst.box_lo, inst.box_hi)
    qnorm = np.linalg.norm(d.Q, axis=(1, 2))
    anorm = np.linalg.norm(d.a, axis=1)
    G = float(np.max(qnorm * R + anorm))
    F = float(np.max(0.5 * qnorm * R * R + anorm * R + np.abs(d.b)))
    return F, G


def _assert_certified_like_per_sample_forms(inst, samples, rng_seed):
    consts = certify_constants(inst, samples=samples, rng_seed=rng_seed)
    assert (consts.F, consts.G) == _bounds_per_norm(inst)
    want = reference_forms.sigma_per_sample(inst, samples, rng_seed)
    assert consts.sigma == pytest.approx(want, rel=1e-12, abs=0.0)
    if inst.N == 1 or samples == 0:
        assert consts.sigma == 0.0
    hess, ref = inst.hessian(), reference_forms.hessian(inst)
    scale = float(np.max(np.abs(ref)))
    np.testing.assert_allclose(hess, ref, rtol=1e-12, atol=1e-12 * scale)
    assert np.array_equal(hess, hess.T)
    # eigenvalues move by at most the perturbation's norm: rtol 1e-12, with an
    # absolute floor at the spectral scale for singular Hessians (mu near 0)
    eigs = np.linalg.eigvalsh(ref)
    assert consts.mu_exact
    assert consts.mu == pytest.approx(max(eigs[0], 0.0), rel=1e-12, abs=1e-12 * eigs[-1])


@settings(max_examples=60, deadline=None)
@given(qcqps(), st.integers(0, 6), st.integers(0, 2**32))
def test_certify_matches_per_sample_forms_on_generated(inst, samples, rng_seed):
    _assert_certified_like_per_sample_forms(inst, samples, rng_seed)


@pytest.mark.parametrize("N", [1, 2, 7])
def test_certify_matches_per_sample_forms_on_scenario_lp(N):
    _assert_certified_like_per_sample_forms(random_scenario_lp(5, 8, N, seed=N), 16, 3)


def test_certify_matches_per_sample_forms_on_loaded(tmp_path):
    inst = random_qcqp(9, 6, 40, 12, seed=4)
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    loaded = load_instance(path)
    _assert_certified_like_per_sample_forms(loaded, 16, 0)
    assert certify_constants(loaded) == certify_constants(inst)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 20), st.integers(0, 2**32))
def test_one_uniform_call_draws_the_successive_points(n, samples, seed):
    lo = np.linspace(-10.0, 0.5, n)
    hi = lo + np.linspace(0.25, 20.0, n)
    one, each = np.random.default_rng(seed), np.random.default_rng(seed)
    block = one.uniform(lo, hi, size=(samples, n))
    rows = [each.uniform(lo, hi) for _ in range(samples)]
    assert block.tobytes() == b"".join(row.tobytes() for row in rows)
    assert one.bit_generator.state == each.bit_generator.state


def test_certify_samples_zero_and_negative():
    inst = random_qcqp(5, 3, 6, 4, seed=2)
    none, some = certify_constants(inst, samples=0), certify_constants(inst, samples=4)
    assert none.sigma == 0.0 and some.sigma > 0.0
    assert (none.F, none.G, none.mu) == (some.F, some.G, some.mu)
    with pytest.raises(ValueError, match="samples"):
        certify_constants(inst, samples=-1)


def test_cached_curvature_arrays_are_read_only():
    inst = random_qcqp(4, 3, 5, 6, seed=1)
    hess = inst.hessian()
    qnorms = inst.constraint_curvatures()
    before = (hess.copy(), qnorms.copy(), inst.objective_curvature())
    with pytest.raises(ValueError):
        hess[0, 0] = 0.0
    with pytest.raises(ValueError):
        qnorms[0] = 0.0
    assert inst.hessian() is hess and inst.constraint_curvatures() is qnorms
    assert np.array_equal(hess, before[0]) and np.array_equal(qnorms, before[1])
    assert inst.objective_curvature() == before[2]


def test_hessian_is_factored_once_for_mu_and_curvature(monkeypatch):
    inst = random_qcqp(4, 3, 5, 6, seed=1)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    mu, curvature = certify_constants(inst, samples=0).mu, inst.objective_curvature()
    assert len(calls) == 1
    eigs = eigvalsh(inst.hessian())
    assert (mu, curvature) == (max(float(eigs[0]), 0.0), float(eigs[-1]))


# -- scenario sizing ----------------------------------------------------------


def test_scenario_count_robust_examples():
    assert scenario_count_robust(1, 0.5, 0.5) == 3
    assert scenario_count_robust(100, 0.01, 0.01) == 999_999


def test_scenario_count_robust_linear_in_n():
    base = scenario_count_robust(7, 0.2, 0.1)
    doubled = scenario_count_robust(14, 0.2, 0.1)
    assert abs(doubled - 2 * base) <= 1


def test_scenario_count_robust_validation():
    with pytest.raises(ValueError):
        scenario_count_robust(3, 0.0, 0.5)
    with pytest.raises(ValueError):
        scenario_count_robust(3, 0.5, 1.0)
    with pytest.raises(ValueError):
        scenario_count_robust(0, 0.5, 0.5)


def test_scenario_count_discarding_hand_case():
    # with p = 0, n = 1 the bound reduces to (1-tau)^N <= eps
    assert scenario_count_discarding(1, 0.5, 0.5, 0) == 1
    assert scenario_count_discarding(1, 0.5, 0.25, 0) == 2


def test_scenario_count_discarding_minimal():
    from pdsg.problems import _log_discard_lhs

    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(0, 5))
        tau = float(rng.uniform(0.05, 0.4))
        eps = float(rng.uniform(0.02, 0.5))
        N = scenario_count_discarding(n, tau, eps, p)
        assert N >= p + n
        assert _log_discard_lhs(N, n, tau, p) <= math.log(eps)
        if N - 1 >= p + n:
            assert _log_discard_lhs(N - 1, n, tau, p) > math.log(eps)


def test_discard_bound_matches_exact_rational_arithmetic():
    from fractions import Fraction

    from pdsg.problems import _log_discard_lhs

    for n, p, tau, N in ((1, 0, Fraction(1, 2), 5), (3, 2, Fraction(1, 4), 20), (2, 1, Fraction(1, 10), 40)):
        k = p + n - 1
        exact = Fraction(math.comb(k, p)) * sum(
            Fraction(math.comb(N, i)) * tau**i * (1 - tau) ** (N - i)
            for i in range(k + 1)
        )
        got = _log_discard_lhs(N, n, float(tau), p)
        assert got == pytest.approx(math.log(float(exact)), rel=1e-10)


def test_scenario_count_discarding_monotone_in_eps():
    a = scenario_count_discarding(4, 0.1, 0.05, 2)
    b = scenario_count_discarding(4, 0.1, 0.2, 2)
    assert b <= a


def test_scenario_count_discarding_capacity():
    with pytest.raises(CapacityError):
        scenario_count_discarding(200, 1e-9, 1e-9, 0)


# -- serialization ------------------------------------------------------------


def test_instance_round_trip_bit_exact(tmp_path):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_bytes(loaded) == instance_bytes(inst)
    for name in ("H", "c", "Q", "a", "b", "box_lo", "box_hi"):
        assert np.array_equal(getattr(loaded.data, name), getattr(inst.data, name))
    assert instance_digest(loaded) == instance_digest(inst)


def test_instance_byte_layout(tmp_path):
    inst = random_qcqp(3, 2, 2, 4, seed=1)
    blob = instance_bytes(inst)  # version 1: the digest's input
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    saved = path.read_bytes()  # version 2: version 1's header, digest, arrays
    floats = 2 * 2 * 3 + 2 * 2 + 4 * 3 * 3 + 4 * 3 + 4 + 3 + 3
    for data, version, header in ((blob, 1, 41), (saved, 2, 73)):
        assert data[:8] == b"QCPDINST"
        assert data[8] == version
        assert struct.unpack_from("<4Q", data, 9) == (3, 2, 2, 4)
        assert len(data) == header + 8 * floats
        # first array value is H[0, 0, 0] in row-major order
        first = np.frombuffer(data, dtype="<f8", count=1, offset=header)[0]
        assert first == inst.data.H[0, 0, 0]
    assert saved[41:73] == hashlib.sha256(blob).digest()
    assert saved[73:] == blob[41:]


def test_instance_file_rejects_bad_version(tmp_path):
    inst = random_qcqp(3, 2, 2, 2, seed=0)
    blob = bytearray(instance_bytes(inst))
    blob[8] = 99
    path = tmp_path / "vers.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_instance(path)


@pytest.mark.parametrize("version", [0, 3, 99])
def test_cli_refuses_other_versions_of_a_saved_file(tmp_path, capsys, version):
    blob = bytearray(_saved(tmp_path, random_qcqp(3, 2, 2, 2, seed=0)).read_bytes())
    blob[8] = version
    path = tmp_path / "vers.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"unsupported container version {version}"):
        load_instance(path)
    rc = cli.main(
        ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
         "--rho", "0.003", "--epochs", "1", "--seeds", "0", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "unsupported container version" in capsys.readouterr().err


def test_instance_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTANINSTANCE")
    with pytest.raises(ValueError):
        load_instance(path)


def test_instance_file_rejects_truncation(tmp_path):
    inst = random_qcqp(3, 2, 2, 2, seed=0)
    blob = instance_bytes(inst)
    path = tmp_path / "trunc.bin"
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError):
        load_instance(path)


# -- digest and loader ----------------------------------------------------------

ARRAY_NAMES = ("H", "c", "Q", "a", "b", "box_lo", "box_hi")


class _CountingHashlib:
    """Stand-in for the ``hashlib`` module that counts the bytes it hashes."""

    def __init__(self):
        self.bytes_hashed = 0

    def sha256(self, data=b""):
        outer, inner = self, hashlib.sha256(data)
        self.bytes_hashed += memoryview(data).nbytes

        class _Hash:
            def update(self, chunk):
                outer.bytes_hashed += memoryview(chunk).nbytes
                inner.update(chunk)

            def digest(self):
                return inner.digest()

            def hexdigest(self):
                return inner.hexdigest()

        return _Hash()


@pytest.fixture
def counting_hashlib(monkeypatch):
    proxy = _CountingHashlib()
    monkeypatch.setattr(problems, "hashlib", proxy)
    return proxy


@pytest.fixture
def solves(monkeypatch):
    """One entry per reference solve made through ``bench``."""
    calls = []
    solve = bench.baselines.full_batch_reference
    monkeypatch.setattr(bench.baselines, "full_batch_reference",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    return calls


def _saved(tmp_path, inst, name="inst.bin"):
    path = tmp_path / name
    save_instance(inst, path)
    return path


def _version_2(blob):
    """The version-2 file of a version-1 serialization: version byte 2, and
    the blob's SHA-256 inserted after the dimensions."""
    return blob[:8] + b"\x02" + blob[9:41] + hashlib.sha256(blob).digest() + blob[41:]


def _saved_v1(tmp_path, inst, name="inst.bin"):
    """A version-1 file, as written before the header carried the digest."""
    path = tmp_path / name
    path.write_bytes(instance_bytes(inst))
    return path


def test_digest_is_sha256_of_instance_bytes(tmp_path):
    generated = random_qcqp(5, 3, 4, 6, seed=9)
    scenario = random_scenario_lp(4, 6, 3, seed=0)
    loaded = load_instance(_saved(tmp_path, generated))
    for inst in (generated, scenario, loaded):
        assert instance_digest(inst) == hashlib.sha256(instance_bytes(inst)).hexdigest()


def test_save_writes_exactly_instance_bytes(tmp_path):
    for inst in (random_qcqp(5, 3, 4, 6, seed=9), random_scenario_lp(4, 6, 3, seed=0)):
        assert _saved(tmp_path, inst).read_bytes() == _version_2(instance_bytes(inst))


def test_version_2_round_trip_carries_the_digest(tmp_path, counting_hashlib):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    path = _saved(tmp_path, inst)
    saved = counting_hashlib.bytes_hashed
    want = hashlib.sha256(instance_bytes(inst)).digest()
    assert path.read_bytes()[41:73] == want
    loaded = load_instance(path)
    assert instance_bytes(loaded) == instance_bytes(inst)
    assert instance_digest(loaded) == instance_digest(inst) == want.hex()
    assert counting_hashlib.bytes_hashed == saved  # neither loading nor the digests hash


def test_save_hashes_instance_bytes_once(tmp_path, counting_hashlib):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    _saved(tmp_path, inst)
    assert counting_hashlib.bytes_hashed == len(instance_bytes(inst))
    assert instance_digest(inst) == hashlib.sha256(instance_bytes(inst)).hexdigest()
    assert counting_hashlib.bytes_hashed == len(instance_bytes(inst))


def test_save_cut_short_leaves_a_refused_file(tmp_path, monkeypatch):
    class Interrupted(Exception):
        pass

    class _Hash:  # stops the save after the payload, before the header
        def update(self, data):
            pass

        def digest(self):
            raise Interrupted

    inst = random_qcqp(3, 2, 2, 2, seed=0)
    monkeypatch.setattr(problems, "hashlib", mock.Mock(sha256=_Hash))
    path = tmp_path / "inst.bin"
    with pytest.raises(Interrupted):
        save_instance(inst, path)
    assert path.stat().st_size == len(instance_bytes(inst)) + 32
    with pytest.raises(ValueError, match="bad magic"):
        load_instance(path)


@pytest.mark.parametrize("keep", range(41, 74))
def test_version_2_header_cut_short(tmp_path, keep):
    blob = _saved(tmp_path, random_qcqp(3, 2, 2, 2, seed=0)).read_bytes()
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:keep])
    with pytest.raises(ValueError):
        load_instance(path)


def test_rewritten_digest_is_trusted_and_misses_the_cache(tmp_path, counting_hashlib, solves):
    path = _saved(tmp_path, random_qcqp(3, 2, 4, 4, seed=11))
    ref_path = tmp_path / "inst.bin.ref.json"
    cfg = bench.ExperimentConfig(**_HASH_CFG, instance_file=str(path))
    bench.run_experiment(cfg)  # writes the reference cache file
    bench.run_experiment(cfg)  # reads it back
    before = json.loads(ref_path.read_text())
    assert len(solves) == 1

    blob = bytearray(path.read_bytes())
    blob[41:73] = b"\xab" * 32
    path.write_bytes(bytes(blob))
    hashed = counting_hashlib.bytes_hashed
    assert instance_digest(load_instance(path)) == "ab" * 32
    bench.run_experiment(cfg)
    after = json.loads(ref_path.read_text())
    assert len(solves) == 2
    assert before["digest"] != after["digest"] == "ab" * 32
    assert {k: v for k, v in before.items() if k != "digest"} == {
        k: v for k, v in after.items() if k != "digest"
    }
    assert counting_hashlib.bytes_hashed == hashed


def test_digest_computed_once_and_lazily(tmp_path, counting_hashlib):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    path = _saved_v1(tmp_path, inst)
    loaded = load_instance(path)
    assert counting_hashlib.bytes_hashed == 0  # neither building nor loading hashes
    first = instance_digest(loaded)
    assert counting_hashlib.bytes_hashed == path.stat().st_size
    assert instance_digest(loaded) == first
    assert counting_hashlib.bytes_hashed == path.stat().st_size


_HASH_CFG = dict(
    family="qcqp", n=3, p=2, N=4, m=4, instance_seed=11,
    methods=("pdsg", "mirror_prox"), alpha=0.003, rho=0.003,
    epochs=1, seeds=(0, 1, 2),
)


def test_run_experiment_hashes_each_instance_once(counting_hashlib):
    # a generated instance has no reference cache file, so nothing needs its digest
    cfg = bench.ExperimentConfig(**_HASH_CFG)
    inst = bench.build_instance(cfg)
    bench.run_experiment(cfg, inst=inst)
    bench.run_experiment(cfg, inst=inst)
    assert counting_hashlib.bytes_hashed == 0


def test_run_experiment_hashes_file_instance_once(tmp_path, counting_hashlib):
    path = _saved_v1(tmp_path, random_qcqp(3, 2, 4, 4, seed=11))
    cfg = bench.ExperimentConfig(**_HASH_CFG, instance_file=str(path))
    inst = bench.build_instance(cfg)
    bench.run_experiment(cfg, inst=inst)  # writes the reference cache file
    bench.run_experiment(cfg, inst=inst)  # reads it back
    assert (tmp_path / "inst.bin.ref.json").exists()
    assert counting_hashlib.bytes_hashed == path.stat().st_size


def test_run_experiment_hashes_nothing_on_saved_file(tmp_path, counting_hashlib):
    path = _saved(tmp_path, random_qcqp(3, 2, 4, 4, seed=11))
    hashed = counting_hashlib.bytes_hashed
    cfg = bench.ExperimentConfig(**_HASH_CFG, instance_file=str(path))
    inst = bench.build_instance(cfg)
    bench.run_experiment(cfg, inst=inst)  # writes the reference cache file
    bench.run_experiment(cfg, inst=inst)  # reads it back
    assert (tmp_path / "inst.bin.ref.json").exists()
    assert counting_hashlib.bytes_hashed - hashed == 0


def test_cli_solve_twice_on_generated_file_hashes_nothing(tmp_path, counting_hashlib, solves):
    path = tmp_path / "inst.bin"
    assert cli.main(["generate", "--n", "3", "--p", "2", "--N", "4", "--m", "4",
                     "--seed", "5", "--out", str(path)]) == 0
    generated = counting_hashlib.bytes_hashed
    assert generated == path.stat().st_size - 32  # one pass, over the version-1 form
    for name in ("first.csv", "second.csv"):
        assert cli.main(
            ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
             "--rho", "0.003", "--epochs", "2", "--seeds", "0,1", "--out", str(tmp_path),
             "--csv", name]
        ) == 0
    assert len(solves) == 1  # the second call hits the reference cache
    assert counting_hashlib.bytes_hashed == generated
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


def test_instance_arrays_are_read_only():
    inst = random_qcqp(3, 2, 2, 4, seed=1)
    for name in ARRAY_NAMES:
        with pytest.raises(ValueError):
            getattr(inst.data, name)[0] = 1.0
    with pytest.raises(ValueError):
        inst.box_lo[0] = 0.0


def test_loaded_arrays_aligned_read_only_and_bit_equal(tmp_path):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    loaded = load_instance(_saved(tmp_path, inst))
    for name in ARRAY_NAMES:
        arr, ref = getattr(loaded.data, name), getattr(inst.data, name)
        assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable
        assert arr.dtype == np.float64 and arr.shape == ref.shape
        assert arr.tobytes() == ref.tobytes()
    assert loaded.origin_feasible == inst.origin_feasible


def test_loaded_oracles_bit_equal_to_generated(tmp_path):
    inst = random_qcqp(7, 5, 9, 8, seed=3)
    loaded = load_instance(_saved(tmp_path, inst))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-10, 10, inst.n)
        i, j = int(rng.integers(inst.N)), int(rng.integers(inst.m))
        assert loaded.stoch_objective_grad(i, x).tobytes() == inst.stoch_objective_grad(i, x).tobytes()
        (v1, g1), (v2, g2) = loaded.constraint(j, x), inst.constraint(j, x)
        assert v1 == v2 and g1.tobytes() == g2.tobytes()
        assert loaded.constraint_value(j, x) == inst.constraint_value(j, x)


def test_instance_file_rejects_huge_header_dimensions(tmp_path):
    blob = bytearray(instance_bytes(random_qcqp(3, 2, 2, 2, seed=0)))
    struct.pack_into("<4Q", blob, 9, *[2**40] * 4)
    path = tmp_path / "huge.bin"
    path.write_bytes(bytes(blob))
    expected = 41 + 8 * (2**120 + 2**80 + 2**120 + 2**80 + 3 * 2**40)
    with pytest.raises(ValueError, match=f"needs {expected} bytes, file has {len(blob)}"):
        load_instance(path)


@pytest.mark.parametrize("keep", [0, 5, 9, 20, 41, 42, -8, -1])
def test_instance_file_rejects_short_files(tmp_path, keep):
    blob = instance_bytes(random_qcqp(3, 2, 2, 2, seed=0))
    path = tmp_path / "short.bin"
    path.write_bytes(blob[:keep])
    with pytest.raises(ValueError):
        load_instance(path)


def test_instance_file_rejects_zero_dimension(tmp_path):
    blob = bytearray(instance_bytes(random_qcqp(3, 2, 2, 2, seed=0)))
    struct.pack_into("<Q", blob, 9, 0)
    path = tmp_path / "zero.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="dimensions"):
        load_instance(path)


@pytest.mark.parametrize("name,value", [("b", math.nan), ("H", math.inf), ("box_lo", -math.inf)])
def test_instance_file_rejects_non_finite_data(tmp_path, name, value):
    inst = random_qcqp(3, 2, 2, 2, seed=0)
    assert inst.origin_feasible
    blob = bytearray(instance_bytes(inst))
    before = ARRAY_NAMES[: ARRAY_NAMES.index(name)]
    off = 41 + 8 * sum(getattr(inst.data, k).size for k in before)
    struct.pack_into("<d", blob, off, value)
    path = tmp_path / "nonfinite.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="NaN or infinite"):
        load_instance(path)


def test_instance_file_rejects_non_symmetric_q(tmp_path, capsys):
    inst = random_qcqp(3, 2, 2, 4, seed=0)
    Q = inst.data.Q.copy()
    for j in (2, 3):  # skew parts leave x'Q_j x unchanged but not the gradient Q_j x
        Q[j, 0, 1] += 5.0
        Q[j, 1, 0] -= 5.0
    d = inst.data
    path = _saved(tmp_path, QuadraticInstance(QcqpData(d.H, d.c, Q, d.a, d.b, d.box_lo, d.box_hi)))
    with pytest.raises(ValueError, match="Q_2 is not symmetric"):
        load_instance(path)
    rc = cli.main(
        ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
         "--rho", "0.003", "--epochs", "1", "--seeds", "0", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "Q_2 is not symmetric" in capsys.readouterr().err


def test_cli_corrupt_instance_exits_2(tmp_path, capsys):
    blob = bytearray(instance_bytes(random_qcqp(3, 2, 2, 4, seed=0)))
    struct.pack_into("<4Q", blob, 9, *[2**40] * 4)
    path = tmp_path / "corrupt.bin"
    path.write_bytes(bytes(blob))
    rc = cli.main(
        ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
         "--rho", "0.003", "--epochs", "1", "--seeds", "0", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "needs" in capsys.readouterr().err


_FUZZ_INST = random_qcqp(2, 1, 2, 2, seed=0)
_FUZZ_BLOBS = {1: instance_bytes(_FUZZ_INST), 2: _version_2(instance_bytes(_FUZZ_INST))}


@st.composite
def _corrupted_blobs(draw):
    blob = bytearray(_FUZZ_BLOBS[draw(st.sampled_from([1, 2]))])
    kind = draw(st.sampled_from(["flip", "truncate", "header", "append"]))
    if kind == "flip":  # anywhere, the version byte and the digest field included
        for pos in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[pos] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif kind == "header":
        dims = draw(st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 4), min_size=4, max_size=4))
        struct.pack_into("<4Q", blob, 9, *dims)
    else:
        blob += draw(st.binary(min_size=1, max_size=64))
    return bytes(blob)


def _encoded(blob):
    """The version-1 serialization and the digest that a loadable blob encodes."""
    if blob[8] == 1:
        return blob, hashlib.sha256(blob).hexdigest()
    v1 = blob[:8] + b"\x01" + blob[9:41] + blob[73:]
    return v1, blob[41:73].hex()


@settings(max_examples=300, deadline=None)
@given(blob=_corrupted_blobs())
def test_loader_fuzz_loads_bit_exactly_or_raises_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "inst.bin"
    path.write_bytes(blob)
    try:
        loaded = load_instance(path)
    except ValueError:
        return
    v1, digest = _encoded(blob)
    assert instance_bytes(loaded) == v1
    assert instance_digest(loaded) == digest

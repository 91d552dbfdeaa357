"""Instance generators, certification, sizing, and serialization tests."""

import hashlib
import itertools
import json
import math
import mmap
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsg import bench, cli, metrics, problems
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
from pdsg.solver import project_box
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
    assert len(problems._chunks(m, n, n)) == chunks
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
    assert [s.stop - s.start for s in problems._chunks(100, 64, 64)] == [32, 32, 32, 4]
    _assert_q_build_equals_one_draw((64, 2, 3, 100, 5), chunks=4, blocks=4)


@pytest.mark.parametrize("shape", [(20, 15, 200, 200, 13), (7, 3, 4, 9, 1)])
def test_q_build_is_one_product_per_chunk_when_n_fits_a_block(shape):
    # desk's shape, and n below the block size
    _assert_q_build_equals_one_draw(shape, chunks=1, blocks=1)


def _extra_peak(call):
    """``(peak, value)``: the peak of traced allocations during ``call()``
    above those before it, and what it returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = call()
        return tracemalloc.get_traced_memory()[1] - base, value
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(100, 95, 200, 300), (30, 5, 10, 500)])
def test_q_build_holds_one_chunk_at_a_time(shape):
    # one chunk of M at a time, plus block-sized mirror copies: a second
    # chunk-sized temporary (the next chunk of M drawn while the last is
    # alive, a copy of a chunk of Q) or one the size of Q exceeds the bound
    random_qcqp(1, 1, 1, 1, seed=0)  # numpy.random's lazy import is no temporary
    peak, inst = _extra_peak(lambda: random_qcqp(*shape, seed=0))
    d = inst.data
    returned = sum(arr.nbytes for arr in (d.H, d.c, d.Q, d.a, d.b, d.box_lo, d.box_hi))
    assert peak - returned <= 1.5 * problems._CHUNK_BYTES


@settings(max_examples=40, deadline=None)
@given(qcqps(), st.integers(1, 5), st.integers(1, 5))
def test_chunked_q_norms_equal_one_pass(inst, rows, steps):
    # the norms square `steps` Q_j at a time (_MEASURE_BYTES); their earlier
    # form took `rows` at a time (_CHUNK_BYTES)
    n = inst.n
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * n * n * rows), \
            mock.patch.object(problems, "_MEASURE_BYTES", 8 * n * n * steps):
        qnorms = inst.constraint_curvatures()
        earlier = reference_forms.constraint_curvatures(inst)
    assert qnorms.tobytes() == np.linalg.norm(inst.data.Q, axis=(1, 2)).tobytes()
    assert qnorms.tobytes() == earlier.tobytes()


def _same_bytes(got, want):
    return [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


def _assert_passes_equal_earlier_forms(inst, rows, steps, seed):
    """The constraint pass, the curvatures and a walk of screen calls (an
    anchor, gathers near it, and re-anchors far from it) are bit-equal to
    their earlier forms, with `rows` Q_j gathered and `steps` rows squared
    at a time."""
    n, m = inst.n, inst.m
    rng = np.random.default_rng(seed)
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * n * n * rows), \
            mock.patch.object(problems, "_MEASURE_BYTES", 8 * n * steps):
        assert _same_bytes([inst.constraint_curvatures()],
                           [reference_forms.constraint_curvatures(inst)])
        screens = [inst.constraint_screen(), reference_forms.constraint_screen(inst)]
        x = inst.start_point()
        for scale in (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e-3, 0.0):
            x = project_box(x + scale * rng.standard_normal(n), inst.box_lo, inst.box_hi)
            assert _same_bytes(inst.constraint_values_and_grads(x),
                               reference_forms.constraint_values_and_grads(inst, x))
            keep = rng.random(m) < 0.25
            assert _same_bytes(*[screen(x, keep) for screen in screens])


@settings(max_examples=40, deadline=None)
@given(qcqps(), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_passes_equal_earlier_forms(inst, rows, steps, seed):
    _assert_passes_equal_earlier_forms(inst, rows, steps, seed)


@pytest.mark.parametrize("rows, steps", [(1, 1), (3, 2), (50, 50)])
@pytest.mark.parametrize("N", [1, 4])
def test_passes_equal_earlier_forms_on_scenario_lp(N, rows, steps):
    _assert_passes_equal_earlier_forms(random_scenario_lp(6, 40, N, seed=N), rows, steps, N)


@pytest.mark.parametrize("shape", [(100, 1, 1, 12), (150, 1, 1, 4), (20, 15, 200, 200)])
def test_passes_equal_earlier_forms_at_wide_rows(shape):
    # rows of n * n squares long enough that numpy sums them pairwise, in
    # blocks, at the default and at one-Q_j steps
    inst = random_qcqp(*shape, seed=sum(shape))
    n = inst.n
    _assert_passes_equal_earlier_forms(inst, 1, n, 0)
    _assert_passes_equal_earlier_forms(inst, problems._CHUNK_BYTES // (8 * n * n),
                                       problems._MEASURE_BYTES // (8 * n), 1)


@settings(max_examples=40, deadline=None)
@given(qcqps(), st.integers(1, 5))
def test_chunked_q_equals_one_pass(inst, rows):
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * inst.p * inst.n * rows):
        q, _ = inst.linear_terms()
    assert q.tobytes() == reference_forms.linear_terms_stacked(inst).tobytes()


def _assert_chunked_r_and_bounds_equal_one_pass(inst, rows):
    # squares of at least `rows` rows of a (m, n) and of c (N, p) at a time
    with mock.patch.object(problems, "_MEASURE_BYTES", 8 * max(inst.n, inst.p) * rows):
        consts = certify_constants(inst, samples=0)
        _, r = inst.linear_terms()
    assert np.float64(r).tobytes() == np.float64(reference_forms.r_one_pass(inst)).tobytes()
    F, G = reference_forms.certified_bounds_one_pass(inst)
    assert np.array([consts.F, consts.G]).tobytes() == np.array([F, G]).tobytes()


@settings(max_examples=40, deadline=None)
@given(qcqps(), st.integers(1, 5))
def test_chunked_r_and_bounds_equal_one_pass(inst, rows):
    _assert_chunked_r_and_bounds_equal_one_pass(inst, rows)


@pytest.mark.parametrize("shape", [(100, 95, 50, 60), (20, 15, 200, 200), (1, 300, 40, 3),
                                   (300, 1, 2, 40)])
@pytest.mark.parametrize("rows", [1, 7])
def test_chunked_r_and_bounds_equal_one_pass_at_wide_rows(shape, rows):
    # rows long enough that numpy sums each of them pairwise
    _assert_chunked_r_and_bounds_equal_one_pass(random_qcqp(*shape, seed=sum(shape)), rows)


def _sigma_chunk_bytes(inst, samples, rows):
    """The _CHUNK_BYTES at which sigma's passes take ``rows`` samples at a time."""
    n, p = inst.n, inst.p
    return 8 * max(p * n, (p + n) * samples) * rows


def _assert_chunked_sigma_equals_one_pass(inst, samples, rows, rng_seed):
    with mock.patch.object(problems, "_CHUNK_BYTES", _sigma_chunk_bytes(inst, samples, rows)):
        sigma = certify_constants(inst, samples, rng_seed).sigma
    want = reference_forms.sigma_stacked(inst, samples, rng_seed)
    assert np.float64(sigma).tobytes() == np.float64(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(qcqps(), st.integers(1, 16), st.integers(1, 5), st.integers(0, 2**32))
def test_chunked_sigma_equals_one_pass(inst, samples, rows, rng_seed):
    _assert_chunked_sigma_equals_one_pass(inst, samples, rows, rng_seed)


@pytest.mark.parametrize("n, p, N, samples", [(1, 2, 300, 1), (3, 2, 300, 1), (1, 3, 200, 4)])
def test_chunked_sigma_and_q_equal_one_pass_where_numpy_sums_pairwise(n, p, N, samples):
    # a one-pass stack of single numbers long enough that numpy's pairwise
    # sum of it is not an in-order sum: q at n = 1, sigma's mean at
    # n = samples = 1 and its deviations at samples = 1
    inst = random_qcqp(n, p, N, 2, seed=N + n)
    for rows in (1, 2, 5):
        _assert_chunked_sigma_equals_one_pass(inst, samples, rows, rows)
        with mock.patch.object(problems, "_CHUNK_BYTES", 8 * p * n * rows):
            inst._linear = None
            q, _ = inst.linear_terms()
        assert q.tobytes() == reference_forms.linear_terms_stacked(inst).tobytes()


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("N", [1, 2, 7])
def test_chunked_sigma_and_q_equal_one_pass_on_scenario_lp(N, rows):
    inst = random_scenario_lp(5, 8, N, seed=N)
    _assert_chunked_sigma_equals_one_pass(inst, 16, rows, 3)
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * inst.p * inst.n * rows):
        q, _ = inst.linear_terms()
    assert q.tobytes() == reference_forms.linear_terms_stacked(inst).tobytes()


# Each pass below holds one chunk at a time.  Each shape makes the temporary
# of the pass's one-shot form (named in the comment) at least 4 times the bound
def test_sigma_holds_one_chunk_at_a_time():
    # one shot: residuals (N, p, 16) and gradients (N, n, 16), 7.1 MiB
    inst = random_qcqp(100, 95, 300, 2, seed=0)
    certify_constants(inst, samples=1)  # statistics cached, lazy imports done
    peak, _ = _extra_peak(lambda: certify_constants(inst, samples=16))
    assert peak <= 1.5 * problems._CHUNK_BYTES


def test_q_holds_one_chunk_at_a_time():
    # one shot: the (N, 1, n) products c_i'H_i, 11.4 MiB
    inst = random_qcqp(50, 2, 30_000, 1, seed=0)
    peak, (q, _) = _extra_peak(inst.linear_terms)
    assert peak - q.nbytes <= 1.5 * problems._CHUNK_BYTES


# The row sums of squares for r and for the norms ||a_j|| form at most
# _MEASURE_BYTES of squares at a time, besides their (N,) or (m,) results
def test_r_holds_one_step_of_squares_at_a_time():
    # one shot: the squares of c (N, p), 7.6 MiB
    N = 5000
    inst = random_qcqp(1, 200, N, 1, seed=0)
    peak, (q, _) = _extra_peak(inst.linear_terms)
    assert peak - q.nbytes <= 8 * N + 1.5 * problems._MEASURE_BYTES


def test_certified_bounds_hold_one_step_of_squares_at_a_time():
    # one shot: the squares of a (m, n), 7.6 MiB; the bound also holds the
    # four (m,) vectors that F's expression has alive at once.  Q is a
    # broadcast of one zero, which holds no memory
    n, m = 100, 10_000
    rng = np.random.default_rng(0)
    Q = np.broadcast_to(np.zeros(()), (m, n, n))
    box = np.ones(n)
    inst = QuadraticInstance(QcqpData(rng.standard_normal((1, 1, n)), rng.standard_normal((1, 1)),
                                      Q, rng.standard_normal((m, n)), rng.uniform(0.1, 1.1, m),
                                      -box, box))
    certify_constants(inst, samples=0)  # statistics cached
    peak, _ = _extra_peak(lambda: certify_constants(inst, samples=0))
    assert peak <= 4 * 8 * m + 1.5 * problems._MEASURE_BYTES


@pytest.mark.parametrize("statistic", ["constraint_curvatures", "gradient_statistics"])
def test_q_statistics_hold_one_chunk_at_a_time(statistic):
    # one shot: |Q_j|^2 for the norms, or the stacked Q_j^2 for S2, 13.7 MiB
    inst = random_qcqp(30, 1, 1, 2000, seed=0)
    peak, value = _extra_peak(getattr(inst, statistic))
    arrays = value if isinstance(value, tuple) else (value,)
    assert peak - sum(np.asarray(v).nbytes for v in arrays) <= 1.5 * problems._CHUNK_BYTES


# The constraint pass, the curvatures and the reference screen allocate what
# they return, and (m,) temporaries or one step of squares.  Each shape makes
# the earlier form's extra (m, n) array or _CHUNK_BYTES temporary (named in
# the comment) more than 4 times the allowance beyond the outputs
_SMALL_OBJECTS = 16 * 1024


def _pass_allowance(m):
    # two (m,) temporaries of the values' expression alive beside the output
    return 2 * 8 * m + _SMALL_OBJECTS


def test_constraint_pass_holds_only_what_it_returns():
    # earlier form: Q x + a beside Q x, 0.94 MiB
    inst = random_qcqp(30, 1, 1, 4000, seed=0)
    x = np.random.default_rng(0).uniform(inst.box_lo, inst.box_hi)
    inst.constraint_values_and_grads(x)  # lazy imports done
    peak, (fvals, grads) = _extra_peak(lambda: inst.constraint_values_and_grads(x))
    assert peak - fvals.nbytes - grads.nbytes <= _pass_allowance(inst.m)


def test_kkt_residual_holds_one_constraint_pass():
    # earlier form: Q x + a beside Q x, 0.94 MiB
    inst = random_qcqp(30, 1, 1, 4000, seed=0)
    rng = np.random.default_rng(0)
    x, z = rng.uniform(inst.box_lo, inst.box_hi), rng.uniform(0.0, 1.0, inst.m)
    metrics.kkt_residual(inst, x, z)  # statistics cached
    peak, _ = _extra_peak(lambda: metrics.kkt_residual(inst, x, z))
    # the pass's values and gradients, then (m,) temporaries of the residuals
    assert peak - 8 * inst.m * (inst.n + 1) <= _pass_allowance(inst.m)


def test_curvatures_hold_one_step_of_squares():
    # earlier form: the squares of a chunk of Q, 1 MiB
    inst = random_qcqp(30, 1, 1, 2000, seed=0)
    peak, qnorms = _extra_peak(inst.constraint_curvatures)
    assert peak - qnorms.nbytes <= problems._MEASURE_BYTES + 8 * inst.n * inst.n


def test_screen_holds_the_gather_of_its_own_candidates():
    # earlier form: a gather buffer of 13 Q_j, 1.0 MiB, held from the
    # screen's construction on
    inst = random_qcqp(100, 1, 1, 200, seed=0)
    n, m, k = inst.n, inst.m, 3
    inst.constraint_curvatures(), inst.gradient_statistics()  # statistics cached
    keep = np.zeros(m, dtype=bool)
    keep[[5, 70, 140]] = True
    x = inst.start_point()
    inst.constraint_screen()(x, keep)  # lazy imports done
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        screen = inst.constraint_screen()
        screen(x, keep)  # the anchor
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        idx, fvals, grads, _ = screen(x + 1e-6, keep)  # near the anchor: gathered
        peak = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    assert idx.tolist() == [5, 70, 140]
    # between calls: the anchor, its pass F (m,) and G (m, n), and the
    # screen's three (m,) slack terms
    assert held <= 8 * (n + m * (n + 4)) + _SMALL_OBJECTS
    # a call: the k gathered Q_j, their (k, n) products (then the gradients,
    # in place) and the gathered a_j, besides the candidate flags and bound (m,)
    assert peak <= 8 * k * (n * n + 2 * n) + 3 * 8 * m + _SMALL_OBJECTS


def test_measure_holds_one_step_at_a_time():
    # one shot: Q @ X' over all m constraints (m, n, s), 3.7 MiB; the bound
    # also holds a X' (s, m), a temporary the size of the returned values
    inst = random_qcqp(30, 1, 1, 500, seed=0)
    X = np.random.default_rng(0).uniform(inst.box_lo, inst.box_hi, size=(32, inst.n))
    inst.measure(X[:1])  # statistics cached
    peak, (f0, fvals) = _extra_peak(lambda: inst.measure(X))
    assert peak - f0.nbytes - fvals.nbytes <= fvals.nbytes + 1.5 * problems._MEASURE_BYTES


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


def _count_or_capacity(count, n, tau, eps, p):
    try:
        return count(n, tau, eps, p)
    except CapacityError as exc:
        return str(exc)


def test_scenario_count_discarding_equals_the_galloping_search():
    # the 640 cases of the sweep, and one past _N_CAP: the one bisection
    # returns the N, or raises the CapacityError, of the galloping search
    sweep = itertools.product((1, 2, 3, 5, 10, 20, 50, 100), (0, 1, 3, 10),
                              (0.5, 0.1, 0.05, 0.01, 0.001), (0.5, 0.1, 0.01, 1e-6))
    for n, p, tau, eps in [*sweep, (200, 0, 1e-9, 1e-9)]:
        got = _count_or_capacity(scenario_count_discarding, n, tau, eps, p)
        want = _count_or_capacity(reference_forms.scenario_count_discarding, n, tau, eps, p)
        assert got == want, (n, p, tau, eps)


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
    # version 4: version 1's header, digest, 7 zeros, arrays, statistics
    saved = path.read_bytes()
    floats = 2 * 2 * 3 + 2 * 2 + 4 * 3 * 3 + 4 * 3 + 4 + 3 + 3
    statistics = 3 * 3 + 3 + 1 + 4 + 3  # P, q, r, curvatures, eigenvalues
    for data, version, header, extra in ((blob, 1, 41, 0), (saved, 4, 80, statistics)):
        assert data[:8] == b"QCPDINST"
        assert data[8] == version
        assert struct.unpack_from("<4Q", data, 9) == (3, 2, 2, 4)
        assert len(data) == header + 8 * (floats + extra)
        # first array value is H[0, 0, 0] in row-major order
        first = np.frombuffer(data, dtype="<f8", count=1, offset=header)[0]
        assert first == inst.data.H[0, 0, 0]
    assert saved[41:73] == hashlib.sha256(blob).digest()
    assert saved[73:80] == bytes(7)
    end = 80 + 8 * floats
    assert saved[80:end] == blob[41:]
    q, r = inst.linear_terms()
    section = np.frombuffer(saved, dtype="<f8", offset=end)
    assert section[:9].tobytes() == inst.hessian().tobytes()
    assert section[9:12].tobytes() == q.tobytes() and section[12] == r
    assert section[13:17].tobytes() == inst.constraint_curvatures().tobytes()
    assert section[17:].tobytes() == np.linalg.eigvalsh(inst.hessian()).tobytes()


def test_instance_file_rejects_bad_version(tmp_path):
    inst = random_qcqp(3, 2, 2, 2, seed=0)
    blob = bytearray(instance_bytes(inst))
    blob[8] = 99
    path = tmp_path / "vers.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_instance(path)


@pytest.mark.parametrize("version", [0, 1, 2, 3, 5, 99])
def test_cli_refuses_other_versions_of_a_saved_file(tmp_path, capsys, version):
    # versions 1 to 3 were written by earlier releases; they are refused alike
    blob = bytearray(_saved(tmp_path, random_qcqp(3, 2, 2, 2, seed=0)).read_bytes())
    blob[8] = version
    path = tmp_path / "vers.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"unsupported container version {version} "):
        load_instance(path)
    rc = cli.main(
        ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
         "--rho", "0.003", "--epochs", "1", "--seeds", "0", "--out", str(tmp_path)]
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: unsupported container version")
    assert "reads version 4" in err[0] and "pdsg generate" in err[0]


def test_instance_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTANINSTANCE")
    with pytest.raises(ValueError):
        load_instance(path)


def test_instance_file_rejects_truncation(tmp_path):
    blob = _saved(tmp_path, random_qcqp(3, 2, 2, 2, seed=0)).read_bytes()
    path = tmp_path / "trunc.bin"
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="needs"):
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
    """The version-2 file, as earlier releases wrote it, of a version-1
    serialization: version byte 2, and the blob's SHA-256 inserted after the
    dimensions."""
    return blob[:8] + b"\x02" + blob[9:41] + hashlib.sha256(blob).digest() + blob[41:]


def _section(inst):
    """The statistics section of a version-4 file of ``inst``: the bytes of
    ``inst.statistics()``, from its caches or computed."""
    return b"".join(np.asarray(v, dtype="<f8").tobytes() for v in inst.statistics().values())


def _version_4(inst):
    """The version-4 file of an instance: its version-1 serialization with
    version byte 4 and the serialization's SHA-256 and 7 zero bytes after
    the dimensions, then the statistics section."""
    blob = instance_bytes(inst)
    return (blob[:8] + b"\x04" + blob[9:41] + hashlib.sha256(blob).digest() + bytes(7)
            + blob[41:] + _section(inst))


def test_digest_is_sha256_of_instance_bytes(tmp_path):
    generated = random_qcqp(5, 3, 4, 6, seed=9)
    scenario = random_scenario_lp(4, 6, 3, seed=0)
    loaded = load_instance(_saved(tmp_path, generated))
    for inst in (generated, scenario, loaded):
        assert instance_digest(inst) == hashlib.sha256(instance_bytes(inst)).hexdigest()


def test_save_writes_exactly_instance_bytes(tmp_path):
    for inst in (random_qcqp(5, 3, 4, 6, seed=9), random_scenario_lp(4, 6, 3, seed=0)):
        assert _saved(tmp_path, inst).read_bytes() == _version_4(inst)


def test_save_hashes_instance_bytes_once(tmp_path, counting_hashlib):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    _saved(tmp_path, inst)
    assert counting_hashlib.bytes_hashed == len(instance_bytes(inst))
    assert instance_digest(inst) == hashlib.sha256(instance_bytes(inst)).hexdigest()
    assert counting_hashlib.bytes_hashed == len(instance_bytes(inst))


def test_save_cut_short_leaves_a_refused_file(tmp_path, monkeypatch):
    class Interrupted(Exception):
        pass

    partial = []

    class _Hash:  # stops the save after the payload, before the header
        def update(self, data):
            pass

        def digest(self):
            # the file being written, as a kill at this point would leave it
            partial.extend(tmp_path.glob("*.tmp"))
            with pytest.raises(ValueError, match="bad magic"):
                load_instance(partial[-1])
            raise Interrupted

    inst = random_qcqp(3, 2, 2, 2, seed=0)
    kept = _saved(tmp_path, random_qcqp(3, 2, 2, 2, seed=1), "old.bin").read_bytes()
    monkeypatch.setattr(problems, "hashlib", mock.Mock(sha256=_Hash))
    for name in ("new.bin", "old.bin"):
        with pytest.raises(Interrupted):
            save_instance(inst, tmp_path / name)
    assert len(partial) == 2
    # no file at the new path, the old file as it was, and no temporary file
    assert [p.name for p in tmp_path.iterdir()] == ["old.bin"]
    assert (tmp_path / "old.bin").read_bytes() == kept


@pytest.mark.parametrize("keep", range(41, 74))
def test_version_2_header_cut_short(tmp_path, keep):
    # a file of an earlier version is refused however it is cut
    blob = _version_2(instance_bytes(random_qcqp(3, 2, 2, 2, seed=0)))
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:keep])
    with pytest.raises(ValueError):
        load_instance(path)


@pytest.mark.parametrize("keep", [41, 60, 73, 74, 79, 80, 81])
def test_version_3_header_cut_short(tmp_path, keep):
    path = tmp_path / "cut.bin"
    path.write_bytes(_version_4(random_qcqp(3, 2, 2, 2, seed=0))[:keep])
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


def test_digest_computed_once_and_lazily(counting_hashlib):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    assert counting_hashlib.bytes_hashed == 0  # building does not hash
    first = instance_digest(inst)
    size = len(instance_bytes(inst))
    assert counting_hashlib.bytes_hashed == size
    assert instance_digest(inst) == first
    assert counting_hashlib.bytes_hashed == size


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
    # one pass, over the version-1 form (loading hashes nothing)
    assert generated == len(instance_bytes(load_instance(path)))
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


def _mapped(arr):
    """Whether the base chain of ``arr`` reaches an ``mmap.mmap``."""
    while isinstance(arr, (np.ndarray, memoryview)):
        arr = arr.obj if isinstance(arr, memoryview) else arr.base
    return isinstance(arr, mmap.mmap)


def test_version_4_round_trip_maps_the_statistics(tmp_path, counting_hashlib):
    inst = random_qcqp(5, 3, 4, 6, seed=9)
    path = _saved(tmp_path, inst)
    assert path.read_bytes()[8] == 4
    saved = counting_hashlib.bytes_hashed
    loaded = load_instance(path)
    for name in ARRAY_NAMES:
        arr = getattr(loaded.data, name)
        assert _mapped(arr) and arr.tobytes() == getattr(inst.data, name).tobytes()
    (q, r), fresh = loaded._linear, random_qcqp(5, 3, 4, 6, seed=9)
    for arr in (loaded._hessian, q, loaded._qnorms, loaded._eigenvalues):
        assert arr.flags.aligned and not arr.flags.writeable and _mapped(arr)
    assert _section(loaded) == _section(fresh)
    assert isinstance(r, float) and r == fresh.linear_terms()[1]
    assert instance_digest(loaded) == hashlib.sha256(instance_bytes(inst)).hexdigest()
    assert counting_hashlib.bytes_hashed == saved  # neither loading nor the digest hashes


def test_version_4_round_trip_past_n_512_maps_the_eigenvalues(tmp_path, monkeypatch):
    # every n has eigenvalue slots, so mu is exact on a loaded file of any size
    inst = random_qcqp(513, 1, 2, 2, seed=0)
    path, section = _saved(tmp_path, inst), _section(inst)
    floats = 2 * 513 + 2 + 2 * 513 * 513 + 2 * 513 + 2 + 2 * 513  # the seven arrays
    assert path.stat().st_size == 80 + 8 * (floats + 513 * 513 + 513 + 1 + 2 + 513)
    eigvalsh, factored = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: factored.append(1) or eigvalsh(a))
    loaded = load_instance(path)
    assert _mapped(loaded._eigenvalues) and _section(loaded) == section
    mu, curvature = certify_constants(loaded, samples=0).mu, loaded.objective_curvature()
    assert factored == []
    eigs = eigvalsh(loaded.hessian())
    assert mu == max(eigs[0], 0.0) and curvature == eigs[-1]


def test_file_in_the_old_layout_past_n_512_exits_2(tmp_path, capsys):
    # a version-4 file with n > 512 once had no eigenvalue slots, 8n bytes
    # fewer than its header now needs
    path = tmp_path / "inst.bin"
    assert cli.main(["generate", "--n", "513", "--p", "1", "--N", "2", "--m", "2",
                     "--seed", "0", "--out", str(path)]) == 0
    old = tmp_path / "old.bin"
    old.write_bytes(path.read_bytes()[: -8 * 513])
    assert _solve_exit(old, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: header n=513") and " bytes, file has " in err


def test_saving_over_a_loaded_file_leaves_its_arrays(tmp_path):
    a, b = random_qcqp(5, 3, 4, 6, seed=1), random_qcqp(5, 3, 4, 6, seed=2)
    path = _saved(tmp_path, a)
    loaded = load_instance(path)
    save_instance(b, path)
    assert instance_bytes(loaded) == instance_bytes(a)
    assert instance_bytes(load_instance(path)) == instance_bytes(b)
    assert [p.name for p in tmp_path.iterdir()] == ["inst.bin"]


@pytest.mark.parametrize("pos", range(73, 80))
def test_version_3_refuses_non_zero_padding(tmp_path, capsys, pos):
    blob = bytearray(_version_4(random_qcqp(3, 2, 2, 2, seed=0)))
    blob[pos] = 1
    path = tmp_path / "pad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="non-zero padding"):
        load_instance(path)
    assert _solve_exit(path, tmp_path) == 2
    assert "non-zero padding" in capsys.readouterr().err


def _solve_exit(path, out):
    """The exit code of a one-epoch ``solve --instance`` on ``path``."""
    return cli.main(
        ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
         "--rho", "0.003", "--epochs", "1", "--seeds", "0", "--out", str(out)]
    )


def _put(section, index, value):
    section = section.copy()
    section[index] = value
    return section


# each edit of the statistics section of random_qcqp(3, 2, 4, 4, seed=1)'s
# version-4 file (P at 0..8, q at 9..11, r at 12, the curvatures at 13..16,
# the eigenvalues at 17..19), and the message that refuses it
_BAD_SECTIONS = {
    "p_asymmetric": (lambda s: _put(s, 1, np.nextafter(s[1], np.inf)), "statistics.*: P"),
    "p_nan": (lambda s: _put(s, 4, np.nan), "statistics.*: P"),
    "q_nan": (lambda s: _put(s, 9, np.nan), "statistics.*: q"),
    "r_nan": (lambda s: _put(s, 12, np.nan), "statistics.*: r"),
    "curvatures_negative": (lambda s: _put(s, 15, -s[15]), "statistics.*: curvatures"),
    "curvatures_nan": (lambda s: _put(s, 16, np.nan), "statistics.*: curvatures"),
    "eigenvalues_descending": (lambda s: _put(s, slice(17, 20), s[17:20][::-1]),
                               "statistics.*: eigenvalues"),
    "section_cut_short": (lambda s: s[:-1], "needs"),
    "section_one_value_too_long": (lambda s: np.append(s, 0.0), "needs"),
}


@pytest.mark.parametrize("tampering", sorted(_BAD_SECTIONS))
def test_version_4_refuses_bad_statistics(tmp_path, capsys, tampering):
    edit, message = _BAD_SECTIONS[tampering]
    blob = _saved(tmp_path, random_qcqp(3, 2, 4, 4, seed=1)).read_bytes()
    start = len(blob) - 8 * 20
    section = edit(np.frombuffer(blob, dtype="<f8", offset=start))
    path = tmp_path / "bad.bin"
    path.write_bytes(blob[:start] + section.tobytes())
    with pytest.raises(ValueError, match=message):
        load_instance(path)
    assert _solve_exit(path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and re.search(message, err)


def _load_peak(path):
    """Peak traced allocation, in bytes, while loading ``path``."""
    return _extra_peak(lambda: load_instance(path))[0]


def test_loading_version_3_copies_no_payload(tmp_path):
    inst = random_qcqp(64, 2, 4, 100, seed=0)  # a payload of 3.3 MB, mostly Q
    payload = len(instance_bytes(inst)) - 41
    v4 = _saved(tmp_path, inst)
    load_instance(v4)  # first calls' lazy imports are no part of a load
    assert _load_peak(v4) < payload / 4  # the statistics section is mapped too


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
    blob = bytearray(_version_4(random_qcqp(3, 2, 2, 2, seed=0)))
    struct.pack_into("<4Q", blob, 9, *[2**40] * 4)
    path = tmp_path / "huge.bin"
    path.write_bytes(bytes(blob))
    # the seven arrays, then P, q, r, the curvatures and the eigenvalues
    expected = 80 + 8 * (2**120 + 2**80 + 2**120 + 2**80 + 3 * 2**40 + 2**80 + 3 * 2**40 + 1)
    with pytest.raises(ValueError, match=f"needs {expected} bytes, file has {len(blob)}"):
        load_instance(path)


@pytest.mark.parametrize("keep", [0, 5, 9, 20, 41, 42, -8, -1])
def test_instance_file_rejects_short_files(tmp_path, keep):
    blob = _version_4(random_qcqp(3, 2, 2, 2, seed=0))
    path = tmp_path / "short.bin"
    path.write_bytes(blob[:keep])
    with pytest.raises(ValueError):
        load_instance(path)


def test_instance_file_rejects_zero_dimension(tmp_path):
    blob = bytearray(_version_4(random_qcqp(3, 2, 2, 2, seed=0)))
    struct.pack_into("<Q", blob, 9, 0)
    path = tmp_path / "zero.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="dimensions"):
        load_instance(path)


@pytest.mark.parametrize("name,value", [("b", math.nan), ("H", math.inf), ("box_lo", -math.inf)])
def test_instance_file_rejects_non_finite_data(tmp_path, name, value):
    inst = random_qcqp(3, 2, 2, 2, seed=0)
    assert inst.origin_feasible
    blob = bytearray(_version_4(inst))
    before = ARRAY_NAMES[: ARRAY_NAMES.index(name)]
    off = 80 + 8 * sum(getattr(inst.data, k).size for k in before)
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


# -- the payload check -----------------------------------------------------------

# what one row of each of ARRAY_NAMES is, as a refusal names it
ROW_WORDS = ("sample", "sample", "constraint", "constraint", "constraint", "entry", "entry")


def _tampered(tmp_path, inst, edit):
    """A file of ``inst`` whose seven arrays ``edit`` has changed in place; it
    keeps the clean instance's statistics."""
    blob = bytearray(_version_4(inst))
    off, arrays = 80, []
    for arr in problems._arrays(inst.data):
        arrays.append(np.frombuffer(blob, "<f8", arr.size, off).reshape(arr.shape))
        off += arr.nbytes
    edit(arrays)
    path = tmp_path / "tampered.bin"
    path.write_bytes(bytes(blob))
    return path


def _located(arrays):
    """The place a refusal names: the first array, in file order, that holds
    a non-finite value, and the first row of it that does."""
    for name, word, arr in zip(ARRAY_NAMES, ROW_WORDS, arrays):
        bad = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
        if bad.any():
            return f"({name}, {word} {int(np.flatnonzero(bad)[0])})"
    return None


def _verdict(check, arrays):
    """None when ``check`` accepts the arrays, else its message."""
    try:
        check("inst.bin", arrays)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _tampered_payloads(draw):
    """The writable arrays of a small instance with up to two skew pairs
    (Q_j[r, s] + d, Q_j[s, r] - d) and then up to two values put in at
    random: NaN, +-inf and +-1.7e308 anywhere, in Q also as a mirrored pair."""
    arrays = [np.array(arr) for arr in problems._arrays(draw(qcqps()).data)]
    Q = arrays[2]
    for _ in range(draw(st.integers(0, 2))):
        j, r, c = (draw(st.integers(0, k - 1)) for k in Q.shape)
        d = draw(st.sampled_from([1.0, 1e-300, 5e307]))
        Q[j, r, c] += d
        Q[j, c, r] -= d
    for _ in range(draw(st.integers(0, 2))):
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308]))
        arr = arrays[draw(st.integers(0, 6))]
        at = np.unravel_index(draw(st.integers(0, arr.size - 1)), arr.shape)
        arr[at] = value
        if arr is Q and draw(st.booleans()):
            Q[at[0], at[2], at[1]] = value
    return arrays


@settings(max_examples=300, deadline=None)
@given(_tampered_payloads(), st.integers(1, 3))
def test_check_gives_the_elementwise_verdict(arrays, rows):
    # pieces of 1 to 3 rows of Q, so that most arrays span several pieces
    n = arrays[2].shape[1]
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * n * n * rows):
        got = _verdict(problems._check_payload, arrays)
        want = _verdict(reference_forms.check_payload, arrays)
    if want is not None and "NaN or infinite" in want:
        want += f" {_located(arrays)}"
    assert got == want


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_check_refuses_a_mirrored_infinite_pair_in_q(tmp_path, capsys, value):
    inst = random_qcqp(3, 2, 2, 4, seed=0)

    def edit(arrays):
        arrays[2][1, 0, 2] = arrays[2][1, 2, 0] = value
        assert np.array_equal(arrays[2], arrays[2].transpose(0, 2, 1))  # symmetric, not finite

    path = _tampered(tmp_path, inst, edit)
    with pytest.raises(ValueError, match=r"NaN or infinite values \(Q, constraint 1\)$"):
        load_instance(path)
    assert _solve_exit(path, tmp_path) == 2
    assert "NaN or infinite values (Q, constraint 1)" in capsys.readouterr().err


def test_check_refuses_nan_in_q_as_non_finite_not_asymmetric(tmp_path):
    # NaN != NaN, so a Q_j that holds one is not symmetric either
    path = _tampered(tmp_path, random_qcqp(3, 2, 2, 4, seed=0),
                     lambda arrays: arrays[2].__setitem__((2, 0, 1), math.nan))
    with pytest.raises(ValueError, match=r"NaN or infinite values \(Q, constraint 2\)$"):
        load_instance(path)


@pytest.mark.parametrize("rows", [1, 3])
def test_check_loads_huge_finite_values(tmp_path, rows):
    # pieces of 1 or 3 rows of Q: the huge values fall in several pieces
    inst = random_qcqp(3, 2, 2, 4, seed=0)
    edited = []

    def edit(arrays):
        H, c, Q, a, b, box_lo, box_hi = arrays
        H[0, 0, 0], H[-1, -1, -1], c[1, 0] = 1.7e308, -1.7e308, np.finfo(float).max
        Q[0, 0, 1] = Q[0, 1, 0] = 1.7e308
        Q[3, 2, 2], a[2, 1], b[0] = -1.7e308, np.finfo(float).min, -1.7e308
        box_lo[0], box_hi[1] = -1.7e308, 1.7e308
        edited.extend(arr.copy() for arr in arrays)

    n = inst.data.Q.shape[1]
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * n * n * rows):
        loaded = load_instance(_tampered(tmp_path, inst, edit))
    for name, arr in zip(ARRAY_NAMES, edited):
        assert getattr(loaded.data, name).tobytes() == arr.tobytes()


@pytest.mark.parametrize("k", range(7))
def test_check_finds_a_bad_value_in_the_last_piece(tmp_path, capsys, k):
    # one row per piece: every array of several rows spans several pieces
    inst = random_qcqp(3, 2, 5, 7, seed=1)
    name, value = ARRAY_NAMES[k], (math.nan, math.inf, -math.inf)[k % 3]
    last = len(getattr(inst.data, name)) - 1
    path = _tampered(tmp_path, inst, lambda arrays: arrays[k].reshape(-1).__setitem__(-1, value))
    message = f"NaN or infinite values ({name}, {ROW_WORDS[k]} {last})"
    with mock.patch.object(problems, "_CHUNK_BYTES", 8):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_instance(path)
        assert _solve_exit(path, tmp_path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("j", [1, 4, 5, 6])
def test_check_names_an_asymmetric_q_j_in_a_later_piece(tmp_path, j):
    # pieces of two rows of Q: Q_0 and Q_1, Q_2 and Q_3, ...; Q_6 is skewed too
    inst = random_qcqp(3, 2, 2, 7, seed=2)

    def edit(arrays):
        for i in {j, 6}:
            arrays[2][i, 0, 2] += 1.0
            arrays[2][i, 2, 0] -= 1.0

    path = _tampered(tmp_path, inst, edit)
    with mock.patch.object(problems, "_CHUNK_BYTES", 8 * 3 * 3 * 2):
        with pytest.raises(ValueError, match=f"Q_{j} is not symmetric$"):
            load_instance(path)


@pytest.mark.parametrize("m", [100, 800])
def test_check_holds_one_piece_of_flags_at_a_time(tmp_path, m):
    # a file's arrays and statistics are mapped, so what a load
    # allocates is the check's: one piece's boolean temporary of the symmetry
    # test (an eighth of _CHUNK_BYTES) and the buffer numpy's comparison
    # takes for the strided transpose (np.getbufsize() float64s), however
    # many pieces Q has (4 and 25 here), plus 16 KiB for small objects;
    # np.isfinite over all of Q would hold 0.4 or 3.3 MB
    inst = random_qcqp(64, 2, 4, m, seed=0)
    path = _saved(tmp_path, inst)
    load_instance(path)  # first calls' lazy imports are no part of a load
    bound = problems._CHUNK_BYTES // 8 + 8 * np.getbufsize() + 16 * 1024
    assert _load_peak(path) <= bound


def test_cli_corrupt_instance_exits_2(tmp_path, capsys):
    blob = bytearray(_version_4(random_qcqp(3, 2, 2, 4, seed=0)))
    struct.pack_into("<4Q", blob, 9, *[2**40] * 4)
    path = tmp_path / "corrupt.bin"
    path.write_bytes(bytes(blob))
    rc = cli.main(
        ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
         "--rho", "0.003", "--epochs", "1", "--seeds", "0", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "needs" in capsys.readouterr().err


_FUZZ_BLOB = _version_4(random_qcqp(2, 1, 2, 2, seed=0))


@st.composite
def _corrupted_blobs(draw):
    blob = bytearray(_FUZZ_BLOB)
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
    """The version-1 serialization, the digest and the statistics section
    that a loadable blob encodes."""
    n, p, N, m = struct.unpack_from("<4Q", blob, 9)
    end = 80 + 8 * (N * p * n + N * p + m * n * n + m * n + m + 2 * n)
    return blob[:8] + b"\x01" + blob[9:41] + blob[80:end], blob[41:73].hex(), blob[end:]


@settings(max_examples=300, deadline=None)
@given(blob=_corrupted_blobs())
def test_loader_fuzz_loads_bit_exactly_or_raises_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "inst.bin"
    path.write_bytes(blob)
    try:
        loaded = load_instance(path)
    except ValueError:
        return
    v1, digest, section = _encoded(blob)
    assert instance_bytes(loaded) == v1
    assert instance_digest(loaded) == digest
    assert _section(loaded) == section

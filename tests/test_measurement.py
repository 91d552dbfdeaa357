"""Measurement from cached quadratic statistics, against the reference forms.

The objective is evaluated as ``(1/2) x'Px - q'x + r`` and a stack of points
is measured with one pass over Q; both reorder the arithmetic, so they are
held to the tolerance contract of ``reference_forms``.  The shared ``Q @ x``
of ``constraint_values_and_grads`` keeps the arithmetic and is bit-equal.
The reference solve evaluates only the constraints its screen lets through
and sums the squared gradient norms from cached statistics; it is held to
the unscreened form under the same contract.
"""

import dataclasses
import functools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_forms as rf
from pdsg import metrics
from pdsg.baselines import full_batch_reference
from pdsg.problems import (
    ProblemInstance, QuadraticInstance, load_instance, random_qcqp, random_scenario_lp,
    save_instance,
)
from pdsg.solver import fixed_horizon, run
from test_loop_equivalence import qcqps


def _points(inst, seed):
    """Box corners, uniform box points, points near the origin, and the
    unconstrained least-squares minimiser, where the expanded objective
    cancels most."""
    rng = np.random.default_rng(seed)
    corners = np.where(rng.random((4, inst.n)) < 0.5, inst.box_lo, inst.box_hi)
    uniform = rng.uniform(inst.box_lo, inst.box_hi, size=(3, inst.n))
    near = rng.uniform(-0.01, 0.01, size=(2, inst.n))
    q, _ = inst.linear_terms()
    x_ls = np.linalg.lstsq(inst.hessian(), q, rcond=None)[0]
    return np.vstack((corners, uniform, near, x_ls))


def _assert_forms_within_contract(inst, X):
    f0, fvals = inst.measure(X)
    assert f0.shape == (len(X),) and fvals.shape == (len(X), inst.m)
    for s, x in enumerate(X):
        f0_scale = rf.objective_scale(inst, x)
        rf.assert_within_contract(f0[s], rf.objective(inst, x), f0_scale)
        rf.assert_within_contract(inst.objective(x), rf.objective(inst, x), f0_scale)
        rf.assert_within_contract(
            inst.objective_grad(x), rf.objective_grad(inst, x), rf.objective_grad_scale(inst, x)
        )
        want_vals = rf.constraint_values(inst, x)
        rf.assert_within_contract(fvals[s], want_vals, rf.constraint_values_scale(inst, x))
        # same arithmetic as the per-point forms: bit-equal
        vals, grads = inst.constraint_values_and_grads(x)
        assert vals.tobytes() == want_vals.tobytes()
        assert grads.tobytes() == rf.constraint_grads(inst, x).tobytes()
        assert inst.constraint_values(x).tobytes() == want_vals.tobytes()
        assert inst.constraint_grads(x).tobytes() == rf.constraint_grads(inst, x).tobytes()


@settings(max_examples=80, deadline=None)
@given(qcqps(), st.integers(0, 2**32))
def test_measurement_within_contract_on_generated(inst, seed):
    _assert_forms_within_contract(inst, _points(inst, seed))


@pytest.mark.parametrize("N", [1, 2, 7])
def test_measurement_within_contract_on_scenario_lp(N):
    inst = random_scenario_lp(5, 8, N, seed=N)
    _assert_forms_within_contract(inst, _points(inst, N))


def test_measurement_within_contract_on_loaded(tmp_path):
    inst = random_qcqp(9, 6, 40, 12, seed=4)
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    loaded = load_instance(path)
    X = _points(loaded, 0)
    _assert_forms_within_contract(loaded, X)
    for got, want in zip(loaded.measure(X), inst.measure(X)):
        assert got.tobytes() == want.tobytes()


def test_measure_one_point_and_empty_stack():
    inst = random_qcqp(4, 3, 5, 6, seed=2)
    x = np.linspace(-3.0, 3.0, 4)
    f0, fvals = inst.measure(x[None])
    assert f0.shape == (1,) and fvals.shape == (1, 6)
    assert f0[0] == inst.objective(x)
    f0, fvals = inst.measure(np.empty((0, 4)))
    assert f0.shape == (0,) and fvals.shape == (0, 6)


def test_cached_statistics_are_read_only_and_computed_once():
    inst = random_qcqp(4, 3, 5, 6, seed=1)
    q, r = inst.linear_terms()
    with pytest.raises(ValueError):
        q[0] = 0.0
    assert inst.linear_terms()[0] is q
    assert r == rf.objective(inst, np.zeros(4))
    np.testing.assert_allclose(
        q, np.einsum("ipn,ip->n", inst.data.H, inst.data.c) / inst.N, rtol=1e-12
    )


def test_generic_measure_makes_the_per_point_calls(one_dim):
    X = np.array([[-3.0], [0.5], [2.0]])
    f0, fvals = one_dim.measure(X)
    assert f0.tolist() == [one_dim.objective(x) for x in X]
    assert fvals.tolist() == [[one_dim.constraint_value(0, x)] for x in X]
    vals, grads = one_dim.constraint_values_and_grads(X[0])
    assert vals.tolist() == [2.0] and grads.tolist() == [[-1.0]]
    # the generic screen evaluates every constraint
    idx, vals, grads, grad_sq = one_dim.constraint_screen()(X[0], np.zeros(1, dtype=bool))
    assert idx == slice(None) and vals.tolist() == [2.0] and grads.tolist() == [[-1.0]]
    assert grad_sq == 1.0


# -- counting: what a tick and the reference solve touch ----------------------


class _Untouchable:
    """Stands in for H once the cached statistics exist: any use fails."""

    def __getattr__(self, name):
        raise AssertionError(f"H was read (.{name})")

    def __array__(self, *args, **kwargs):
        raise AssertionError("H was read")


def _without_h(inst, monkeypatch):
    inst.hessian(), inst.linear_terms()  # fill the caches first
    monkeypatch.setattr(inst, "data", dataclasses.replace(inst.data, H=_Untouchable()))


def _forbid(inst, monkeypatch, *names):
    for name in names:
        def forbidden(*args, _name=name):
            raise AssertionError(f"{_name} called")
        monkeypatch.setattr(inst, name, forbidden)


def _count(inst, monkeypatch, name):
    calls = []
    fn = getattr(inst, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(inst, name, counted)
    return calls


def test_recorder_tick_is_one_batched_measurement_without_h(monkeypatch):
    inst = random_qcqp(5, 4, 7, 9, seed=3)
    K = 2 * inst.m
    state, _ = run(inst, fixed_horizon(0.02, 0.02, K), K, seed=0)
    expected = metrics.Recorder(inst, f0_ref=0.5)
    expected(state)

    rec = metrics.Recorder(inst, f0_ref=0.5)
    _without_h(inst, monkeypatch)
    _forbid(inst, monkeypatch, "objective", "objective_grad", "constraint", "constraint_value",
            "constraint_values", "constraint_grads", "constraint_values_and_grads")
    calls = _count(inst, monkeypatch, "measure")
    rec(state)
    assert len(calls) == 1 and calls[0][0].shape == (3, inst.n)
    assert rec.record.rows == expected.record.rows


def test_reference_reads_q_once_per_anchor_and_never_h(monkeypatch):
    inst = random_qcqp(5, 4, 10, 10, seed=0)
    _without_h(inst, monkeypatch)
    _forbid(inst, monkeypatch, "constraint_values", "constraint_grads")
    calls = _count(inst, monkeypatch, "constraint_values_and_grads")
    ref = full_batch_reference(inst, tol=1e-9)
    assert ref.converged and ref.iterations > 1
    assert len(calls) == 1  # the anchor at the start point; no re-anchor here


# -- the screen ---------------------------------------------------------------


def _binding(shape, seed, shift):
    """``random_qcqp`` with targets c_i + H_i u, ||u|| = shift: its least-squares
    minimiser moves out of the feasible set, so constraints bind."""
    inst = random_qcqp(*shape, seed=seed)
    u = np.random.default_rng(seed + 1).standard_normal(inst.n)
    u *= shift / np.linalg.norm(u)
    d = inst.data
    return QuadraticInstance(dataclasses.replace(d, c=d.c + d.H @ u))


def _exact_values(inst, x):
    """f_j(x) for every j in exact rational arithmetic on the float inputs."""
    d, xs = inst.data, [Fraction(v) for v in x]
    return [
        sum(Fraction(q) * xi * xk for row, xi in zip(d.Q[j].tolist(), xs)
            for q, xk in zip(row, xs)) / 2
        + sum(Fraction(aj) * xi for aj, xi in zip(d.a[j].tolist(), xs)) - Fraction(d.b[j])
        for j in range(inst.m)
    ]


@settings(max_examples=120, deadline=None)
@given(qcqps(), st.integers(0, 2**32), st.sampled_from(["same", "near", "far"]))
def test_screen_keeps_every_constraint_that_can_be_positive(inst, seed, where):
    """Anchors and points in the box, with some b_j set so that f_j is zero at
    the point to within a few ulps: every j whose exact value at the point is
    > 0, whose computed value is > 0, or that is kept, comes back evaluated."""
    rng = np.random.default_rng(seed)
    xa = rng.uniform(inst.box_lo, inst.box_hi)
    x = {"same": xa.copy(),
         "near": np.clip(xa + 1e-7 * rng.standard_normal(inst.n), inst.box_lo, inst.box_hi),
         "far": rng.uniform(inst.box_lo, inst.box_hi)}[where]
    g = rf.constraint_values(inst, x) + inst.data.b
    b = np.where(rng.random(inst.m) < 0.7, g + rng.integers(-3, 4, inst.m) * np.spacing(g),
                 inst.data.b)
    inst = QuadraticInstance(dataclasses.replace(inst.data, b=b))
    keep = rng.random(inst.m) < 0.2

    screen = inst.constraint_screen()
    screen(xa, np.zeros(inst.m, dtype=bool))
    idx, fvals, grads, grad_sq = screen(x, keep)

    exact = np.array([v > 0 for v in _exact_values(inst, x)])
    want_vals = rf.constraint_values(inst, x)
    assert set(np.flatnonzero(exact | (want_vals > 0) | keep)) <= set(idx.tolist())
    rf.assert_within_contract(fvals, want_vals[idx], rf.constraint_values_scale(inst, x)[idx])
    grad_scale = rf.constraint_grads_scale(inst, x)
    rf.assert_within_contract(grads, rf.constraint_grads(inst, x)[idx], grad_scale[idx])
    rf.assert_within_contract(grad_sq, float(np.sum(rf.constraint_grads(inst, x) ** 2)),
                              float(np.sum(grad_scale**2)))


def test_screen_reanchors_when_the_candidates_grow():
    inst = random_qcqp(20, 15, 200, 200, seed=13)
    screen = inst.constraint_screen()
    with mock.patch.object(inst, "constraint_values_and_grads",
                           wraps=inst.constraint_values_and_grads) as full:
        none = np.zeros(inst.m, dtype=bool)
        screen(np.zeros(inst.n), none)
        screen(np.full(inst.n, 1e-3), none)  # near the anchor: gathered
        assert full.call_count == 1
        corner = inst.box_hi.copy()
        idx, fvals, grads, _ = screen(corner, none)  # most constraints can be positive there
        assert full.call_count == 2
    want = rf.constraint_values(inst, corner)
    assert np.all(want[np.setdiff1d(np.arange(inst.m), idx)] < 0)
    assert fvals.tobytes() == want[idx].tobytes()
    assert grads.tobytes() == rf.constraint_grads(inst, corner)[idx].tobytes()


# -- the reference against its unscreened form ----------------------------------


_DESK, _MIDSCALE = ((20, 15, 200, 200), 13), ((100, 95, 1000, 1000), 0)


def _instance(name):
    if name.startswith("desk"):
        return random_qcqp(*_DESK[0], seed=_DESK[1])
    if name == "midscale":
        return random_qcqp(*_MIDSCALE[0], seed=_MIDSCALE[1])
    if name == "binding":
        return _binding((40, 30, 300, 400), 0, 0.6)
    if name == "scenario_binding":
        return random_scenario_lp(50, 1000, 10, seed=0)
    return random_scenario_lp(8, 300, 4, seed=1)


# K caps the binding instance, which does not converge in the default budget,
# and desk_capped, which stops at K = 37 long before it converges
_BUDGET = {"desk": 200_000, "desk_capped": 37, "midscale": 200_000, "binding": 300,
           "scenario": 200_000}


@functools.cache  # small results only: the instances are built again per test
def _unscreened(name):
    return rf.full_batch_reference(_instance(name), K=_BUDGET[name])


@pytest.mark.parametrize("name", ["desk", "midscale"])
def test_shared_constraint_pass_is_bit_exact(name):
    """The generic screen (every constraint from one shared pass) with the
    per-point objective forms is byte-equal to the unscreened form."""
    inst = _instance(name)
    want_x, want_z, want_f0, want_k, want_converged = _unscreened(name)
    generic = functools.partial(ProblemInstance.constraint_screen, inst)
    with mock.patch.object(inst, "objective", lambda x: rf.objective(inst, x)), \
            mock.patch.object(inst, "objective_grad", lambda x: rf.objective_grad(inst, x)), \
            mock.patch.object(inst, "constraint_screen", generic):
        got = full_batch_reference(inst)
    assert got.converged and want_converged
    assert got.x.tobytes() == want_x.tobytes() and got.z.tobytes() == want_z.tobytes()
    assert got.iterations == want_k and got.f0 == want_f0


@pytest.mark.parametrize("name", ["desk", "desk_capped", "midscale", "binding", "scenario"])
def test_screened_reference_within_contract(name):
    inst = _instance(name)
    want_x, _, want_f0, want_k, want_converged = _unscreened(name)
    screens = []
    make = inst.constraint_screen

    def counted():
        screen = make()

        def rows(x, keep):
            out = screen(x, keep)
            screens.append(len(out[0]))
            return out

        return rows

    with mock.patch.object(inst, "constraint_screen", counted), \
            mock.patch.object(inst, "constraint_values_and_grads",
                              wraps=inst.constraint_values_and_grads) as full:
        got = full_batch_reference(inst, K=_BUDGET[name])
    assert got.converged == want_converged and got.iterations == want_k
    assert want_converged or want_k == _BUDGET[name]
    np.testing.assert_allclose(got.x, want_x, rtol=0, atol=1e-12)
    rf.assert_within_contract(got.f0, want_f0, rf.objective_scale(inst, want_x))
    # Q rows read: m per anchor plus the candidates, against m at the start
    # point and per iteration with one shared pass unscreened
    assert len(screens) == want_k + 1
    assert full.call_count * inst.m + sum(screens) <= (want_k + 1) * inst.m / 5


@pytest.mark.parametrize("name", ["desk", "midscale", "scenario_binding"])
def test_reference_equals_one_from_the_earlier_passes(name):
    """The constraint pass that forms the gradients in place, the curvatures
    from row sums of squares and the screen's per-call gather buffer leave
    the reference bit-equal.  ``scenario_binding`` has 9 active constraints
    and takes 19 311 iterations."""
    inst = _instance(name)
    got = full_batch_reference(inst)
    want = full_batch_reference(rf.EarlierPasses(inst.data))
    assert got.converged and want.converged
    assert [got.x.tobytes(), got.z.tobytes(), got.f0, got.iterations] == \
        [want.x.tobytes(), want.z.tobytes(), want.f0, want.iterations]


def test_cached_statistics_reference_within_contract():
    inst = random_qcqp(*_DESK[0], seed=_DESK[1])
    want_x, _, want_f0, want_k, _ = rf.full_batch_reference(inst)
    fast = full_batch_reference(inst)
    assert fast.converged and fast.iterations == want_k
    rf.assert_within_contract(fast.f0, want_f0, rf.objective_scale(inst, want_x))
    np.testing.assert_allclose(fast.x, want_x, rtol=0, atol=1e-12)

"""Measurement from cached quadratic statistics, against the reference forms.

The objective is evaluated as ``(1/2) x'Px - q'x + r`` and a stack of points
is measured with one pass over Q; both reorder the arithmetic, so they are
held to the tolerance contract of ``reference_forms``.  The shared ``Q @ x``
of ``constraint_values_and_grads`` keeps the arithmetic and is bit-equal.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_forms as rf
from pdsg import baselines, metrics
from pdsg.baselines import full_batch_reference
from pdsg.problems import load_instance, random_qcqp, random_scenario_lp, save_instance
from pdsg.solver import _Z_BLOWUP, fixed_horizon, project_box, run
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


def test_reference_reads_q_once_per_iteration_and_never_h(monkeypatch):
    inst = random_qcqp(5, 4, 10, 10, seed=0)
    _without_h(inst, monkeypatch)
    _forbid(inst, monkeypatch, "constraint_values", "constraint_grads")
    calls = _count(inst, monkeypatch, "constraint_values_and_grads")
    ref = full_batch_reference(inst, tol=1e-9)
    assert ref.converged and ref.iterations > 1
    assert len(calls) == ref.iterations + 1  # the start point, then once per iteration


# -- the shared Q @ x alone is bit-exact ----------------------------------------


def _reference_two_passes(inst, K=200_000, tol=1e-9):
    """``full_batch_reference`` as it was before the constraint pass was
    shared: per-point forms throughout, two passes over Q per iteration."""
    x = inst.start_point()
    z = np.zeros(inst.m)
    m = inst.m
    L0 = inst.objective_curvature()
    qcurv = inst.constraint_curvatures()
    fvals, grads = rf.constraint_values(inst, x), rf.constraint_grads(inst, x)
    best, best_score, converged = None, math.inf, False
    k, step_norm = 0, math.inf
    infeas = float(np.maximum(fvals, 0.0).mean())
    for k in range(1, K + 1):
        mult = np.maximum(fvals + z, 0.0)
        d = rf.objective_grad(inst, x) + grads.T @ (mult / m)
        pen_curv = float(np.sum(grads * grads)) / m + float(mult @ qcurv) / m
        alpha_k = 1.0 / (L0 + pen_curv + 1e-2)
        x_new = project_box(x - alpha_k * d, inst.box_lo, inst.box_hi)
        fvals_new = rf.constraint_values(inst, x_new)
        grads_new = rf.constraint_grads(inst, x_new)
        z = np.maximum(z + np.maximum(-z, fvals_new), 0.0)
        assert np.isfinite(x_new).all() and float(np.max(np.abs(z))) <= _Z_BLOWUP
        step_norm = float(np.linalg.norm(x_new - x))
        infeas = float(np.maximum(fvals_new, 0.0).mean())
        x, fvals, grads = x_new, fvals_new, grads_new
        hit_tol = infeas <= tol and step_norm <= tol * min(1.0, alpha_k)
        if hit_tol or k % baselines._CHECK_EVERY == 0:
            score = max(infeas, step_norm)
            if score < best_score:
                best_score = score
                best = (x.copy(), z.copy())
            if hit_tol:
                converged = True
                break
    if best is None or max(infeas, step_norm) < best_score:
        best = (x.copy(), z.copy())
    return best[0], best[1], rf.objective(inst, best[0]), k, converged


_DESK, _MIDSCALE = ((20, 15, 200, 200), 13), ((100, 95, 1000, 1000), 0)


@pytest.mark.parametrize("shape,seed", [_DESK, _MIDSCALE], ids=["desk", "midscale"])
def test_shared_constraint_pass_is_bit_exact(shape, seed):
    inst = random_qcqp(*shape, seed=seed)
    want_x, want_z, want_f0, want_k, want_converged = _reference_two_passes(inst)
    # the library's loop with the per-point objective forms, its shared pass kept
    with mock.patch.object(inst, "objective", lambda x: rf.objective(inst, x)), \
            mock.patch.object(inst, "objective_grad", lambda x: rf.objective_grad(inst, x)):
        got = full_batch_reference(inst)
    assert got.converged and want_converged
    assert got.x.tobytes() == want_x.tobytes() and got.z.tobytes() == want_z.tobytes()
    assert got.iterations == want_k and got.f0 == want_f0


def test_cached_statistics_reference_within_contract():
    inst = random_qcqp(*_DESK[0], seed=_DESK[1])
    want_x, _, want_f0, want_k, _ = _reference_two_passes(inst)
    fast = full_batch_reference(inst)
    assert fast.converged and fast.iterations == want_k
    rf.assert_within_contract(fast.f0, want_f0, rf.objective_scale(inst, want_x))
    np.testing.assert_allclose(fast.x, want_x, rtol=0, atol=1e-12)

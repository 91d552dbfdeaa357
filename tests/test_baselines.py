"""Mirror-prox variant and deterministic reference solver tests."""

from unittest import mock

import numpy as np
import pytest

from pdsg import metrics
from pdsg.baselines import (
    MirrorProxConfig,
    full_batch_reference,
    mirror_prox_run,
    mirror_prox_step,
    zmax_from_reference,
)
from pdsg.problems import random_qcqp, random_scenario_lp
from pdsg.solver import init_state, pdsg_step
from reference_forms import lagrangian_gap

MP_TRACE_X = [0.0, -1.0, -2.0, -2.0, -1.0, 0.0, 0.0, -1.0, -2.0]
MP_TRACE_Z = [0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 1.0, 0.0, 0.0]


def test_mirror_prox_hand_trace(one_dim):
    state = init_state(one_dim, seed=0)
    xs, zs = [state.x[0]], [state.z[0]]
    for _ in range(8):
        mirror_prox_step(state, one_dim, 1.0, 1.0, 1.0, 10.0)
        xs.append(float(state.x[0]))
        zs.append(float(state.z[0]))
    assert np.allclose(xs, MP_TRACE_X, atol=1e-12)
    assert np.allclose(zs, MP_TRACE_Z, atol=1e-12)


def test_mirror_prox_first_differs_from_pdsg_at_step_three(one_dim):
    sp = init_state(one_dim, seed=0)
    sm = init_state(one_dim, seed=0)
    diverged_at = None
    for step in range(1, 6):
        pdsg_step(sp, one_dim, 1.0, 1.0, 1.0)
        mirror_prox_step(sm, one_dim, 1.0, 1.0, 1.0, 10.0)
        if not (np.allclose(sp.x, sm.x) and np.allclose(sp.z, sm.z)):
            diverged_at = step
            break
    assert diverged_at == 2  # states first differ after the second update
    # ... and the primal trajectories first differ at step three
    assert float(sp.x[0]) == float(sm.x[0]) == -2.0


def test_mirror_prox_stationary_point_fixed(one_dim):
    # start at the stationary pair of the 1-D problem: x = 0 feasible, z = 0,
    # zero objective gradient is not available here, so use a slack interior
    # point of a generated instance instead
    inst = random_scenario_lp(3, 4, 1, seed=0)
    cbar = inst.data.c.mean(axis=0)
    if np.all(inst.constraint_values(cbar) < 0):
        state = init_state(inst, seed=1)
        state.x = cbar.copy()
        for _ in range(20):
            mirror_prox_step(state, inst, 0.3, 0.3, 0.3, 10.0)
        assert np.allclose(state.x, cbar, atol=1e-12)
        assert np.array_equal(state.z, np.zeros(inst.m))


def test_mirror_prox_dual_stays_in_box():
    inst = random_qcqp(5, 4, 6, 8, seed=1)
    z_max = 0.02
    state = init_state(inst, seed=2)
    for _ in range(2000):
        mirror_prox_step(state, inst, 0.02, 0.02, 0.02, z_max)
        assert np.min(state.z) >= 0.0
        assert np.max(state.z) <= z_max
    assert np.max(state.z) > 0  # box level actually exercised


def test_mirror_prox_oracle_budget():
    inst = random_qcqp(4, 3, 5, 6, seed=2)
    cfg = MirrorProxConfig(z_max=10.0)
    state, _ = mirror_prox_run(inst, cfg, 73, seed=0)
    assert state.n_obj_queries == 73
    assert state.n_constr_grad_queries == 73
    assert state.n_constr_val_queries == 73


def test_zmax_rule():
    assert zmax_from_reference(np.zeros(4)) == 10.0
    assert zmax_from_reference(np.array([0.5, -2.0])) == 20.0
    assert zmax_from_reference(np.array([3.0])) == 30.0


def test_reference_one_dim_analytic(one_dim):
    ref = full_batch_reference(one_dim, tol=1e-10)
    assert ref.converged
    assert abs(ref.x[0] + 1.0) < 1e-6
    assert abs(ref.f0 + 1.0) < 1e-6
    assert abs(ref.z[0] - 1.0) < 1e-6


def test_generic_full_pass_makes_one_constraint_call_per_constraint(one_dim):
    # the generic screen takes every constraint from one
    # constraint_values_and_grads pass: m constraint calls per iterate
    x = np.array([0.5])
    with mock.patch.object(one_dim, "constraint", wraps=one_dim.constraint) as calls:
        ref = full_batch_reference(one_dim, tol=1e-10)
        assert calls.call_count == (ref.iterations + 1) * one_dim.m
        calls.reset_mock()
        fvals, grads = one_dim.constraint_values_and_grads(x)
        assert calls.call_count == one_dim.m
        calls.reset_mock()
        assert fvals.tobytes() == one_dim.constraint_values(x).tobytes()
        assert calls.call_count == one_dim.m
        calls.reset_mock()
        assert grads.tobytes() == one_dim.constraint_grads(x).tobytes()
        assert calls.call_count == one_dim.m


def test_reference_scenario_one_dim_analytic():
    for seed in range(5):
        inst = random_scenario_lp(1, 1, 1, seed=seed)
        cbar = inst.data.c.mean(axis=0)
        a, b = inst.data.a[0], inst.data.b[0]
        x_star = cbar if float(a @ cbar) <= b else np.array([b / a[0]])
        x_star = np.clip(x_star, inst.box_lo, inst.box_hi)
        ref = full_batch_reference(inst, tol=1e-10)
        assert abs(ref.x[0] - x_star[0]) < 1e-6


def test_reference_matches_normal_equations_when_unconstrained():
    # instance whose constraints are all slack at the least-squares solution
    inst = random_qcqp(4, 3, 30, 8, seed=2)
    d = inst.data
    A = np.einsum("ipn,ipq->nq", d.H, d.H)
    v = np.einsum("ipn,ip->n", d.H, d.c)
    x_ls = np.linalg.solve(A, v)
    assert np.all(inst.constraint_values(x_ls) < 0)
    ref = full_batch_reference(inst, tol=1e-9)
    assert np.max(np.abs(ref.x - x_ls)) < 1e-6
    assert np.linalg.norm(ref.z) == 0.0


def test_reference_kkt_quality_on_small_instances():
    for seed in (0, 1, 2):
        inst = random_qcqp(5, 4, 10, 10, seed=seed)
        tol = 1e-7
        ref = full_batch_reference(inst, tol=tol)
        assert ref.converged
        kkt = metrics.kkt_residual(inst, ref.x, ref.z)
        assert kkt.primal_infeas <= tol
        assert kkt.stationarity <= 10 * tol
        assert kkt.dual_infeas == 0.0


def test_reference_nonconverged_flag():
    inst = random_qcqp(5, 4, 10, 10, seed=3)
    ref = full_batch_reference(inst, K=3, tol=1e-12)
    assert not ref.converged
    assert ref.iterations == 3


def test_optimality_gap_nonnegative_at_reference_pair():
    # the gap function with the reference primal-dual pair is nonnegative
    # over the whole box, not just the feasible set
    inst = random_qcqp(4, 3, 8, 6, seed=4)
    ref = full_batch_reference(inst, tol=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = rng.uniform(inst.box_lo, inst.box_hi)
        gap = lagrangian_gap(
            inst.objective(x), ref.f0, inst.constraint_values(x), ref.z
        )
        assert gap >= -1e-7


def test_pdsg_tracks_reference_objective_more_closely_with_budget():
    from pdsg.solver import fixed_horizon, run

    inst = random_qcqp(4, 3, 30, 8, seed=2)
    ref = full_batch_reference(inst, tol=1e-9)
    gaps = []
    for K in (400, 6400):
        errs = []
        for seed in range(3):
            state, _ = run(inst, fixed_horizon(1.0, 1.0, K), K, seed)
            errs.append(abs(inst.objective(state.ergodic_plain()) - ref.f0))
        gaps.append(np.mean(errs))
    assert gaps[1] < gaps[0]

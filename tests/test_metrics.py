"""Measurement function and recorder tests."""

import math

import numpy as np
import pytest

from pdsg import metrics
from pdsg.errors import AccountingError
from pdsg.problems import ProblemInstance, random_qcqp, random_scenario_lp
from pdsg.solver import fixed_horizon, init_state, run


class _FixedValues(ProblemInstance):
    """Constraint values pinned to a constant vector, zero objective."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        m = self.values.size
        super().__init__(2, m, [-5, -5], [5, 5], origin_feasible=False)

    def objective(self, x):
        return 0.0

    def objective_grad(self, x):
        return np.zeros(2)

    def stoch_objective_grad(self, i, x):
        return np.zeros(2)

    def constraint(self, j, x):
        return float(self.values[j]), np.zeros(2)


def test_infeasibility_arithmetic():
    inst = _FixedValues([1.0, -3.0])
    assert metrics.infeasibility(inst, np.zeros(2)) == pytest.approx(0.5)
    assert metrics.infeasibility(_FixedValues([-1.0, -2.0]), np.zeros(2)) == 0.0


def test_infeasibility_zero_at_qcqp_origin():
    inst = random_qcqp(5, 3, 4, 9, seed=0)
    assert metrics.infeasibility(inst, np.zeros(5)) == 0.0


def test_objective_error_pure():
    inst = random_qcqp(4, 3, 5, 6, seed=1)
    x = np.random.default_rng(0).uniform(-1, 1, 4)
    err = metrics.objective_error(inst, x, 2.0)
    assert err == pytest.approx(abs(inst.objective(x) - 2.0))
    assert metrics.objective_error(inst, x, inst.objective(x)) == 0.0


def test_kkt_residual_interior_unconstrained_min():
    inst = random_scenario_lp(4, 6, 2, seed=0)
    cbar = inst.data.c.mean(axis=0)
    if np.all(inst.constraint_values(cbar) < 0):
        out = metrics.kkt_residual(inst, cbar, np.zeros(inst.m))
        assert out.stationarity < 1e-10
        assert out.complementarity == 0.0
        assert out.primal_infeas == 0.0
        assert out.dual_infeas == 0.0


def test_kkt_residual_negative_dual():
    inst = random_qcqp(3, 2, 2, 4, seed=2)
    out = metrics.kkt_residual(inst, np.zeros(3), -np.ones(4))
    assert out.dual_infeas == pytest.approx(math.sqrt(4))
    # complementarity |z_j f_j(0)| = b_j on average
    assert out.complementarity == pytest.approx(float(np.abs(inst.data.b).mean()))


def test_kkt_stationarity_clips_active_bounds():
    inst = random_scenario_lp(2, 3, 1, seed=1)
    # at the upper-right box corner any inward-pointing gradient is stationary
    corner = inst.box_hi.copy()
    g = inst.objective_grad(corner)
    out = metrics.kkt_residual(inst, corner, np.zeros(inst.m))
    expected = np.linalg.norm(np.maximum(g, 0.0))
    assert out.stationarity == pytest.approx(expected)


def test_recorder_rows_and_epoch_accounting():
    inst = random_qcqp(4, 3, 5, 6, seed=3)
    K = 4 * inst.m
    rec = metrics.Recorder(inst, f0_ref=0.0, meta={"method": "pdsg", "seed": 0})
    state, record = run(inst, fixed_horizon(0.02, 0.02, K), K, seed=0, recorder=rec, cadence=inst.m)
    assert record is rec.record
    epochs = sorted({row.epoch for row in record.rows})
    assert epochs == [1.0, 2.0, 3.0, 4.0]
    for epoch in epochs:
        tags = [r.point for r in record.rows if r.epoch == epoch]
        assert tags == ["last", "ergodic_plain", "ergodic_weighted"]
    for row in record.rows:
        assert row.infeas >= 0.0
        assert row.z_norm >= 0.0
    ks = [r.k for r in record.rows if r.point == "last"]
    assert ks == sorted(ks)


def test_recorder_is_pure_measurement():
    inst = random_qcqp(4, 3, 5, 6, seed=4)
    state = init_state(inst, seed=5)
    rec = metrics.Recorder(inst, f0_ref=1.0)
    from pdsg.solver import pdsg_step

    for _ in range(7):
        pdsg_step(state, inst, 0.02, 0.02, 0.02)
    rng_state_before = state.rng.bit_generator.state
    x_before = state.x.copy()
    z_before = state.z.copy()
    rec(state)
    rec(state)
    assert state.rng.bit_generator.state == rng_state_before
    assert np.array_equal(state.x, x_before)
    assert np.array_equal(state.z, z_before)


def test_recorder_rejects_out_of_step_counters():
    inst = random_qcqp(4, 3, 5, 6, seed=4)
    state, _ = run(inst, fixed_horizon(0.02, 0.02, 9), 9, seed=1)
    rec = metrics.Recorder(inst, f0_ref=1.0)
    rec(state)
    state.n_constr_val_queries -= 1
    with pytest.raises(AccountingError):
        rec(state)
    state.n_constr_val_queries += 1
    state.k += 1
    with pytest.raises(AccountingError):
        rec(state)
    assert len(rec.record.rows) == 3  # only the consistent tick was logged


def test_record_final_lookup():
    record = metrics.RunRecord()
    record.rows.append(metrics.RunRow(1, 1.0, "last", 0.5, 0.1, 0.0))
    record.rows.append(metrics.RunRow(2, 2.0, "last", 0.4, 0.0, 0.0))
    assert record.final("last").k == 2
    assert record.final("ergodic_plain") is None

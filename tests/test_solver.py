"""Schedules, validation, the PDSG step, and run-loop behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsg import bench, metrics
from pdsg.baselines import MirrorProxConfig, mirror_prox_run
from pdsg.errors import ConfigError, DimensionError, DivergenceError
from pdsg.problems import ProblemInstance, QuadraticInstance, certify_constants, random_qcqp
from pdsg.solver import (
    ParamSchedule,
    anytime,
    fixed_horizon,
    init_state,
    max_equal_steps,
    pdsg_step,
    project_box,
    run,
    strongly_convex,
    validate_schedule,
)
from test_loop_equivalence import PROPERTY, kinds, make_schedule, qcqps, steps

PDSG_TRACE_X = [0.0, -1.0, -2.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0]
PDSG_TRACE_Z = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_project_box_examples():
    lo = np.array([-10.0, -10.0])
    hi = np.array([10.0, 10.0])
    inside = np.array([3.0, -4.0])
    assert np.array_equal(project_box(inside, lo, hi), inside)
    assert np.array_equal(project_box(np.array([15.0, -12.0]), lo, hi), [10.0, -10.0])


def test_project_box_is_nearest_point():
    rng = np.random.default_rng(0)
    lo = rng.uniform(-5, 0, 6)
    hi = lo + rng.uniform(0.5, 5, 6)
    for _ in range(50):
        x = rng.uniform(-10, 10, 6)
        p = project_box(x, lo, hi)
        assert np.all(p >= lo) and np.all(p <= hi)
        for _ in range(20):
            y = rng.uniform(lo, hi)
            assert np.linalg.norm(p - x) <= np.linalg.norm(y - x) + 1e-12


def test_project_box_dimension_error():
    with pytest.raises(DimensionError):
        project_box(np.zeros(3), np.zeros(2), np.ones(2))


def test_schedule_values():
    s = fixed_horizon(2.0, 3.0, 100)
    assert s.steps(1)[0] == pytest.approx(0.2)
    assert s.steps(50)[1] == pytest.approx(0.3)
    assert s.steps(7)[2] == s.steps(7)[1]

    s = anytime(1.0, 1.0)
    assert s.steps(1)[0] == pytest.approx(1.0 / (np.sqrt(2.0) * np.log(2.0)))
    assert s.steps(3)[1] == pytest.approx(1.0 / (2.0 * np.log(4.0)))

    s = strongly_convex(2.0, 1.0, 99, mu=0.5)
    assert s.steps(1)[0] == pytest.approx(1.0)
    assert s.steps(9)[0] == pytest.approx(0.2)
    assert s.steps(5)[1] == pytest.approx(1.0 / np.log(100.0))


def test_schedule_alpha_nonincreasing():
    for s in (fixed_horizon(1, 1, 2000), anytime(1, 1), strongly_convex(1, 1, 2000, mu=1.0)):
        a = s.sequences(1999)[0]
        assert np.all(np.diff(a) <= 1e-15)


def test_fixed_horizon_sequences_allocate_no_k_values():
    sched = fixed_horizon(0.5, 0.5, 10**6)
    tracemalloc.start()
    try:
        sequences = sched.sequences(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [seq.shape for seq in sequences] == [(10**6,)] * 2


def test_schedule_constructor_validation():
    with pytest.raises(ConfigError):
        ParamSchedule("fixed_horizon", 1.0, 1.0)  # K missing
    with pytest.raises(ConfigError):
        ParamSchedule("strongly_convex", 1.0, 1.0, K=10, mu=0.0)
    with pytest.raises(ConfigError):
        ParamSchedule("nope", 1.0, 1.0)
    with pytest.raises(ConfigError):
        ParamSchedule("anytime", -1.0, 1.0)


def test_validate_schedule_passes_within_limits():
    m, G = 200, 1.0
    alpha = rho = np.sqrt(m / (64.0 * G * G))  # product m/64 < m/32
    report = validate_schedule(fixed_horizon(alpha, rho, 1000), m, G, 1000)
    assert report.ok, str(report)


def test_validate_schedule_flags_anytime_product():
    m, G = 200, 1.0
    alpha = rho = np.sqrt(m / (32.0 * G * G))  # fails the stricter m/68 limit
    report = validate_schedule(anytime(alpha, rho), m, G, 1000)
    failed = {c.name for c in report.failed()}
    assert failed == {"alpha_rho_product"}


def test_validate_schedule_flags_small_alpha_for_strongly_convex():
    mu = 2.0
    sched = strongly_convex(1.0 / (2 * mu), 1e-4, 1000, mu=mu)
    report = validate_schedule(sched, 200, 1.0, 1000, mu=mu)
    failed = {c.name for c in report.failed()}
    assert "alpha_ge_inv_mu" in failed


def test_max_equal_steps_is_valid_and_tight():
    m, G = 50, 130.0
    for kind, denom in (("fixed_horizon", 32.0), ("anytime", 68.0)):
        s = max_equal_steps(m, G, kind)
        assert s * s < m / (denom * G * G)
        assert s * s > 0.99 * m / (denom * G * G)


@pytest.mark.parametrize("G", [0.0, -1.0, float("nan")])
def test_product_condition_rejects_nonpositive_G(G):
    with pytest.raises(ConfigError, match="G must be positive"):
        max_equal_steps(10, G)
    with pytest.raises(ConfigError, match="G must be positive"):
        validate_schedule(fixed_horizon(1.0, 1.0, 100), 10, G, 100)


@pytest.mark.parametrize("m", [0, -3, float("nan")])
def test_product_condition_rejects_nonpositive_m(m):
    # m = 0 used to give the step 0.0, and m = -3 a bare math domain error
    with pytest.raises(ConfigError, match="m must be positive"):
        max_equal_steps(m, 1.0)
    with pytest.raises(ConfigError, match="m must be positive"):
        validate_schedule(anytime(1.0, 1.0), m, 1.0, 100)


@pytest.mark.parametrize("K", [0, -5])
def test_validate_schedule_rejects_nonpositive_horizon(K):
    # the anytime schedule needs no K, so nothing refused it before
    with pytest.raises(ConfigError, match="K must be positive"):
        validate_schedule(anytime(1.0, 1.0), 10, 1.0, K)


def test_hand_trace_ten_steps(one_dim):
    state = init_state(one_dim, seed=0)
    xs, zs = [state.x[0]], [state.z[0]]
    for _ in range(10):
        pdsg_step(state, one_dim, 1.0, 1.0, 1.0)
        xs.append(float(state.x[0]))
        zs.append(float(state.z[0]))
    assert np.allclose(xs, PDSG_TRACE_X, atol=1e-12)
    assert np.allclose(zs, PDSG_TRACE_Z, atol=1e-12)


class _StationaryInstance(ProblemInstance):
    """Interior point with zero objective gradient and slack constraints."""

    def __init__(self):
        super().__init__(2, 3, [-5, -5], [5, 5], origin_feasible=True)

    def objective(self, x):
        return 0.0

    def objective_grad(self, x):
        return np.zeros(2)

    def stoch_objective_grad(self, i, x):
        return np.zeros(2)

    def constraint(self, j, x):
        return -1.0 - j, np.array([1.0, float(j)])


def test_stationary_feasible_point_is_fixed():
    inst = _StationaryInstance()
    state = init_state(inst, seed=3)
    for _ in range(25):
        pdsg_step(state, inst, 0.5, 0.5, 0.5)
    assert np.array_equal(state.x, np.zeros(2))
    assert np.array_equal(state.z, np.zeros(3))


def test_oracle_call_accounting():
    inst = random_qcqp(4, 3, 5, 6, seed=0)
    sched = fixed_horizon(0.01, 0.01, 137)
    state, _ = run(inst, sched, 137, seed=1)
    assert state.n_obj_queries == 137
    assert state.n_constr_grad_queries == 137
    assert state.n_constr_val_queries == 137


def test_ergodic_accumulators_match_recomputation():
    inst = random_qcqp(4, 3, 5, 6, seed=1)
    K = 500
    sched = fixed_horizon(0.02, 0.02, K)

    iterates = []

    class Grab:
        record = metrics.RunRecord()

        def __call__(self, state):
            iterates.append(state.x.copy())
            return None

    state, _ = run(inst, sched, K, seed=2, recorder=Grab(), cadence=1)
    stacked = np.stack(iterates)
    assert np.max(np.abs(state.ergodic_plain() - stacked.mean(axis=0))) < 1e-12
    alphas = sched.sequences(K)[0]
    weighted = (alphas[:, None] * stacked).sum(axis=0) / alphas.sum()
    assert np.max(np.abs(state.ergodic_weighted() - weighted)) < 1e-12


def test_run_deterministic_given_seed():
    inst = random_qcqp(4, 3, 5, 6, seed=2)
    sched = fixed_horizon(0.02, 0.02, 200)
    s1, _ = run(inst, sched, 200, seed=9)
    s2, _ = run(inst, sched, 200, seed=9)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.z, s2.z)


def test_run_zero_iterations():
    inst = random_qcqp(3, 2, 2, 4, seed=3)
    state, record = run(inst, anytime(1.0, 1.0), 0, seed=0)
    assert state.k == 1
    assert np.array_equal(state.x, inst.start_point())
    assert record.rows == []


def test_run_rejects_horizon_mismatch():
    inst = random_qcqp(3, 2, 2, 4, seed=3)
    with pytest.raises(ConfigError):
        run(inst, fixed_horizon(1.0, 1.0, 100), 50, seed=0)


def test_single_constraint_matches_deterministic_recursion(one_dim):
    # with m = 1 and a deterministic objective the sampled method must equal
    # the dense full-batch recursion step for step
    K = 30
    a_k = r_k = b_k = 0.25
    state = init_state(one_dim, seed=5)
    got_x, got_z = [], []
    for _ in range(K):
        pdsg_step(state, one_dim, a_k, r_k, b_k)
        got_x.append(float(state.x[0]))
        got_z.append(float(state.z[0]))

    x = np.zeros(1)
    z = np.zeros(1)
    want_x, want_z = [], []
    for _ in range(K):
        fval, grad = one_dim.constraint(0, x)
        d = one_dim.objective_grad(x) + max(b_k * fval + z[0], 0.0) * grad
        x = project_box(x - a_k * d, one_dim.box_lo, one_dim.box_hi)
        fnew = one_dim.constraint(0, x)[0]
        z = np.maximum(z + r_k * np.maximum(-z / b_k, fnew), 0.0)
        want_x.append(float(x[0]))
        want_z.append(float(z[0]))

    assert np.allclose(got_x, want_x, atol=1e-14)
    assert np.allclose(got_z, want_z, atol=1e-14)


def test_dual_stays_nonnegative_on_small_runs():
    inst = random_qcqp(6, 4, 10, 20, seed=4)
    mu = 1.0  # conservative stand-in; only the schedule shape matters here
    for sched in (
        fixed_horizon(0.005, 0.005, 3000),
        anytime(0.005, 0.005),
        strongly_convex(1.0 / mu, 0.001, 3000, mu=mu),
    ):
        state = init_state(inst, seed=6)
        for _ in range(3000):
            a_k, r_k, b_k = sched.steps(state.k)
            pdsg_step(state, inst, a_k, r_k, b_k)
            assert np.min(state.z) >= 0.0
            assert np.all(state.x >= inst.box_lo) and np.all(state.x <= inst.box_hi)


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_grows_like_root_k_on_the_binding_desk_instance(seed):
    # desk seed 13 has two active constraints and ||z*|| = 20.9.  At the
    # certified fixed-horizon steps each z_j moves about K/m times by
    # rho f_j / sqrt(K), so ||z|| grows like sqrt(K): about x2 from 50 to 200
    # epochs, and it stays far below ||z*|| (notes/decisions.md, "Why the
    # dual does not reach z*")
    inst = random_qcqp(20, 15, 200, 200, seed=13)
    step = max_equal_steps(inst.m, certify_constants(inst, samples=0).G)
    norms = []
    for epochs in (50, 200):
        K = epochs * inst.m
        state, _ = run(inst, fixed_horizon(step, step, K), K, seed)
        norms.append(float(np.linalg.norm(state.z)))
    assert 1.5 <= norms[1] / norms[0] <= 3.0
    assert max(norms) < 1e-2


class _ExplodingConstraint(ProblemInstance):
    def __init__(self):
        super().__init__(1, 1, [-1.0], [1.0], origin_feasible=False)

    def objective(self, x):
        return 0.0

    def objective_grad(self, x):
        return np.zeros(1)

    def stoch_objective_grad(self, i, x):
        return np.zeros(1)

    def constraint(self, j, x):
        return 1e13, np.zeros(1)


def test_divergence_guard_raises():
    inst = _ExplodingConstraint()
    state = init_state(inst, seed=0)
    with pytest.raises(DivergenceError):
        for _ in range(10):
            pdsg_step(state, inst, 1.0, 1.0, 1.0)


# -- properties of the solver's invariants --------------------------------------

coords = st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, st.floats(0.0, 1e3), coords, st.floats(0.0, 1.0)),
                min_size=1, max_size=6))
def test_project_box_is_nearest_point_property(cols):
    lo, width, x, frac = (np.array(col) for col in zip(*cols))
    hi = lo + width
    p = project_box(x, lo, hi)
    assert np.all(lo <= p) and np.all(p <= hi)
    # any box point, corners and faces included, is at least as far from x,
    # coordinate by coordinate (the clamp is exact, so no tolerance)
    for y in (np.minimum(lo + frac * width, hi), lo, hi, np.where(frac < 0.5, lo, hi)):
        assert np.all(np.abs(p - x) <= np.abs(y - x))
        assert np.linalg.norm(p - x) <= np.linalg.norm(y - x)


def _recorded_run(inst, sched, K, seed, cadence):
    """x, z and the CSV bytes of one recorded run, or of its divergence."""
    recorder = metrics.Recorder(inst, 0.0, meta={"method": "pdsg", "seed": seed})
    try:
        state, record = run(inst, sched, K, seed, recorder, cadence)
    except DivergenceError as exc:
        state, record = exc.state, recorder.record
    return state.x.tobytes(), state.z.tobytes(), bench.csv_text([record])


@PROPERTY
@given(qcqps(), kinds, steps, steps, st.integers(0, 80), st.integers(1, 30), st.integers(0, 2**32))
def test_run_deterministic_given_seed_property(inst, kind, alpha, rho, K, cadence, seed):
    if kind != "anytime":
        K = max(K, 1)
    sched = make_schedule(kind, alpha, rho, K)
    first = _recorded_run(inst, sched, K, seed, cadence)
    assert _recorded_run(inst, sched, K, seed, cadence) == first


class _CountingOracles(QuadraticInstance):
    """A quadratic instance that counts its per-iteration oracle calls."""

    def __init__(self, inst):
        super().__init__(inst.data)
        self.calls = {"objective": 0, "constraint": 0, "constraint_value": 0}

    def stoch_objective_grad(self, i, x):
        self.calls["objective"] += 1
        return super().stoch_objective_grad(i, x)

    def constraint(self, j, x):
        self.calls["constraint"] += 1
        return super().constraint(j, x)

    def constraint_value(self, j, x):
        self.calls["constraint_value"] += 1
        return super().constraint_value(j, x)


@PROPERTY
@given(
    qcqps(), st.sampled_from(["pdsg", "mirror_prox"]), kinds, steps, steps,
    st.integers(1, 80), st.integers(0, 2**32),
)
def test_two_constraint_queries_per_iteration(inst, method, kind, alpha, rho, K, seed):
    inst = _CountingOracles(inst)
    ticks = []

    class Tick:
        record = metrics.RunRecord()

        def __call__(self, state):
            done = state.k - 1
            # one value-and-subgradient query for the primal step, one value
            # query for the dual coordinate, one objective sample
            assert inst.calls == {"objective": done, "constraint": done, "constraint_value": done}
            assert state.n_constr_grad_queries + state.n_constr_val_queries == 2 * done
            ticks.append(done)

    tick = Tick()
    try:
        if method == "pdsg":
            run(inst, make_schedule(kind, alpha, rho, K), K, seed, tick, cadence=1)
        else:
            mirror_prox_run(inst, MirrorProxConfig(z_max=5.0, alpha=alpha, rho=rho), K, seed,
                            tick, cadence=1)
    except DivergenceError as exc:
        assert inst.calls == {
            "objective": exc.state.n_obj_queries,
            "constraint": exc.state.n_constr_grad_queries,
            "constraint_value": exc.state.n_constr_val_queries,
        }
        return
    assert ticks == list(range(1, K + 1))

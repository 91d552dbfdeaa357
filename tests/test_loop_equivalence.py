"""The shared run loop against the one-step reference forms, bit for bit.

``run`` and ``mirror_prox_run`` go through one fused loop that draws the
sample indices in blocks; ``pdsg_step`` and ``mirror_prox_step`` draw them one
scalar call at a time.  Each test replays a run both ways and compares every
field of the state, the random generator included, at every recording tick,
at the end, at an early stop and at a divergence.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsg import metrics, solver
from pdsg.baselines import MirrorProxConfig, mirror_prox_run, mirror_prox_step
from pdsg.errors import DivergenceError
from pdsg.problems import ProblemInstance, random_qcqp
from pdsg.solver import (
    SCHEDULE_KINDS,
    ParamSchedule,
    init_state,
    pdsg_step,
    run,
)

ARRAYS = ("x", "z", "sum_plain", "sum_weighted")
SCALARS = (
    "k",
    "n_plain",
    "weight_sum",
    "n_obj_queries",
    "n_constr_grad_queries",
    "n_constr_val_queries",
)
STOP_BELOW = 0.5
PROPERTY = settings(max_examples=60, deadline=None)


def snapshot(state):
    """Every field of the state, arrays as raw bytes so -0.0 and 0.0 differ."""
    return (
        tuple(getattr(state, f).tobytes() for f in ARRAYS),
        tuple(getattr(state, f) for f in SCALARS),
        state.rng.bit_generator.state,
    )


class Snapshots:
    """Recorder stand-in: snapshots each tick and signals a stop at tick ``stop_at``."""

    def __init__(self, stop_at=None):
        self.stop_at = stop_at
        self.ticks = []
        self.record = metrics.RunRecord()

    def __call__(self, state):
        self.ticks.append(snapshot(state))
        return 0.0 if len(self.ticks) == self.stop_at else 1.0


def stepwise(step, state, K, recorder, cadence, stop_below):
    """The run loop written with one scalar step per iteration."""
    for _ in range(K):
        step(state)
        done = state.k - 1
        if (cadence and done % cadence == 0) or done == K:
            if recorder is not None:
                signal = recorder(state)
                if stop_below is not None and signal <= stop_below:
                    break
    return state


def outcome(go):
    """How a run ended, its final (or diverging) state and the generator's next draw."""
    try:
        state = go()
    except DivergenceError as exc:
        return "diverged", exc.iteration, snapshot(exc.state), exc.state.rng.integers(2**40)
    return "done", snapshot(state), state.rng.integers(2**40)


def make_schedule(kind, alpha, rho, K):
    return ParamSchedule(kind, alpha, rho, K=None if kind == "anytime" else K, mu=1.0)


@st.composite
def qcqps(draw):
    n, p, N, m = (draw(st.integers(1, hi)) for hi in (4, 3, 5, 6))
    return random_qcqp(n, p, N, m, seed=draw(st.integers(0, 2**16)))


@st.composite
def run_plans(draw, min_K=0):
    """(K, cadence, stop_at, block): cadences that do and do not divide K."""
    K = draw(st.integers(min_K, 90))
    cadence = draw(st.one_of(st.none(), st.integers(1, K + 3)))
    stop_at = draw(st.one_of(st.none(), st.integers(1, 4)))
    block = draw(st.sampled_from([1, 2, 3, 5, solver._DRAW_BLOCK]))
    return K, cadence, stop_at, block


steps = st.floats(1e-3, 1.0)
kinds = st.sampled_from(SCHEDULE_KINDS)


def compare_pdsg(inst, sched, K, cadence, stop_at, block, seed):
    fused, scalar = Snapshots(stop_at), Snapshots(stop_at)
    with mock.patch.object(solver, "_DRAW_BLOCK", block):
        got = outcome(
            lambda: run(inst, sched, K, seed, fused, cadence, stop_below=STOP_BELOW)[0]
        )
    want = outcome(
        lambda: stepwise(
            lambda s: pdsg_step(s, inst, *sched.steps(s.k)),
            init_state(inst, seed), K, scalar, cadence, STOP_BELOW,
        )
    )
    assert got == want
    assert fused.ticks == scalar.ticks
    return got


def compare_mirror_prox(inst, cfg, K, cadence, block, seed):
    fused, scalar = Snapshots(), Snapshots()
    a_k, r_k, beta = cfg.steps(max(K, 1))
    with mock.patch.object(solver, "_DRAW_BLOCK", block):
        got = outcome(lambda: mirror_prox_run(inst, cfg, K, seed, fused, cadence)[0])
    want = outcome(
        lambda: stepwise(
            lambda s: mirror_prox_step(s, inst, a_k, r_k, beta, cfg.z_max),
            init_state(inst, seed), K, scalar, cadence, None,
        )
    )
    assert got == want
    assert fused.ticks == scalar.ticks
    return got


@PROPERTY
@given(qcqps(), kinds, steps, steps, run_plans(), st.integers(0, 2**32))
def test_run_equals_pdsg_steps(inst, kind, alpha, rho, plan, seed):
    K, cadence, stop_at, block = plan
    if kind != "anytime":
        K = max(K, 1)
    compare_pdsg(inst, make_schedule(kind, alpha, rho, K), K, cadence, stop_at, block, seed)


@PROPERTY
@given(qcqps(), st.floats(0.01, 10.0), steps, steps, run_plans(), st.integers(0, 2**32))
def test_mirror_prox_run_equals_mirror_prox_steps(inst, z_max, alpha, rho, plan, seed):
    K, cadence, _, block = plan
    cfg = MirrorProxConfig(z_max=z_max, alpha=alpha * 10, rho=rho * 10)
    compare_mirror_prox(inst, cfg, K, cadence, block, seed)


def test_run_without_recorder_equals_pdsg_steps():
    inst = random_qcqp(5, 3, 7, 11, seed=8)
    K = 3 * solver._DRAW_BLOCK // 2  # one full block and one partial block
    sched = make_schedule("anytime", 0.05, 0.05, K)
    state, _ = run(inst, sched, K, seed=4, cadence=7)
    ref = init_state(inst, 4)
    for _ in range(K):
        pdsg_step(ref, inst, *sched.steps(ref.k))
    assert snapshot(state) == snapshot(ref)


def test_early_stop_leaves_generator_in_step():
    inst = random_qcqp(4, 3, 5, 6, seed=6)
    K, cadence = 200, 13
    sched = make_schedule("fixed_horizon", 0.02, 0.02, K)
    for stop_at in (1, 3):
        got = compare_pdsg(inst, sched, K, cadence, stop_at, solver._DRAW_BLOCK, seed=2)
        assert got[0] == "done"
        assert got[1][1][0] - 1 == stop_at * cadence  # stopped at that tick


class _Blowup(ProblemInstance):
    """Objective sample 0 is NaN; constraint 0 is 1e13, so pdsg's dual blows up."""

    def __init__(self, N, m):
        super().__init__(2, m, [-1.0, -1.0], [1.0, 1.0], N=N)

    def stoch_objective_grad(self, i, x):
        return np.full(2, np.nan) if i == 0 else np.ones(2)

    def constraint(self, j, x):
        return (1e13 if j == 0 else -1.0), np.array([1.0, -1.0])


@PROPERTY
@given(
    st.integers(2, 60), st.integers(2, 60), st.floats(0.2, 1.0), run_plans(min_K=1),
    st.integers(0, 2**32),
)
def test_divergence_at_same_iteration_with_same_state(N, m, step, plan, seed):
    inst = _Blowup(N, m)
    K, cadence, stop_at, block = plan
    K *= 5  # long enough that most runs draw sample 0 or constraint 0
    sched = make_schedule("fixed_horizon", step * np.sqrt(K), step * np.sqrt(K), K)
    compare_pdsg(inst, sched, K, cadence, stop_at, block, seed)
    cfg = MirrorProxConfig(z_max=5.0, alpha=step, rho=step)
    compare_mirror_prox(inst, cfg, K, cadence, block, seed)


def test_divergence_is_reached_mid_block():
    inst = _Blowup(40, 40)
    K = 400
    sched = make_schedule("fixed_horizon", 0.5 * np.sqrt(K), 0.5 * np.sqrt(K), K)
    got = compare_pdsg(inst, sched, K, 7, None, solver._DRAW_BLOCK, seed=0)
    assert got[0] == "diverged" and got[1] % 7 not in (0, 1)  # neither end of a block


@PROPERTY
@given(qcqps(), kinds, steps, steps, st.integers(1, 80), st.integers(0, 2**32))
def test_dual_stays_nonnegative_throughout(inst, kind, alpha, rho, K, seed):
    class ZCheck(Snapshots):
        def __call__(self, state):
            assert np.min(state.z) >= 0.0
            return None

    try:
        run(inst, make_schedule(kind, alpha, rho, K), K, seed, ZCheck(), cadence=1)
    except DivergenceError as exc:
        assert np.min(exc.state.z) >= 0.0


@PROPERTY
@given(kinds, st.floats(1e-3, 50.0), st.floats(1e-3, 50.0), st.integers(0, 1500))
def test_sequences_equal_steps(kind, alpha, rho, K):
    if kind != "anytime":
        K = max(K, 1)
    sched = make_schedule(kind, alpha, rho, K)
    alphas, rhos, betas = (seq.tolist() for seq in sched.sequences(K))
    assert len(alphas) == len(rhos) == len(betas) == K
    for k in range(1, K + 1):
        assert (alphas[k - 1], rhos[k - 1], betas[k - 1]) == sched.steps(k)


def test_sequences_follow_beta_override():
    class ConstantBeta(ParamSchedule):
        def beta_at(self, k):
            return 0.25

    sched = ConstantBeta("anytime", 1.0, 1.0)
    _, _, betas = sched.sequences(5)
    assert betas.tolist() == [0.25] * 5
    assert [sched.steps(k)[2] for k in range(1, 6)] == [0.25] * 5

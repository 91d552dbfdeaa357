"""The shared run loop against the one-step reference forms, bit for bit.

``run`` and ``mirror_prox_run`` go through one fused loop that draws the
sample indices in blocks; ``pdsg_step`` and ``mirror_prox_step`` draw them one
scalar call at a time.  Each test replays a run both ways and compares every
field of the state, the random generator included, at every recording tick,
at the end and at a divergence.  The ergodic means, which the state derives
from its iteration counter, are checked against sums kept by the tests.
"""

from unittest import mock

import numpy as np
import pytest
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
    "weight_sum",
    "n_obj_queries",
    "n_constr_grad_queries",
    "n_constr_val_queries",
)
PROPERTY = settings(max_examples=60, deadline=None)


def snapshot(state):
    """Every field of the state, arrays as raw bytes so -0.0 and 0.0 differ."""
    return (
        tuple(getattr(state, f).tobytes() for f in ARRAYS),
        tuple(getattr(state, f) for f in SCALARS),
        state.rng.bit_generator.state,
    )


class Snapshots:
    """Recorder stand-in: snapshots the state at each tick."""

    def __init__(self):
        self.ticks = []
        self.record = metrics.RunRecord()

    def __call__(self, state):
        self.ticks.append(snapshot(state))


def stepwise(step, state, K, recorder, cadence):
    """The run loop written with one scalar step per iteration."""
    for _ in range(K):
        step(state)
        done = state.k - 1
        if recorder is not None and ((cadence and done % cadence == 0) or done == K):
            recorder(state)
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
    """(K, cadence, block): cadences that do and do not divide K."""
    K = draw(st.integers(min_K, 90))
    cadence = draw(st.one_of(st.none(), st.integers(1, K + 3)))
    block = draw(st.sampled_from([1, 2, 3, 5, solver._DRAW_BLOCK]))
    return K, cadence, block


steps = st.floats(1e-3, 1.0)
kinds = st.sampled_from(SCHEDULE_KINDS)


def compare_pdsg(inst, sched, K, cadence, block, seed):
    fused, scalar = Snapshots(), Snapshots()
    with mock.patch.object(solver, "_DRAW_BLOCK", block):
        got = outcome(lambda: run(inst, sched, K, seed, fused, cadence)[0])
    want = outcome(
        lambda: stepwise(
            lambda s: pdsg_step(s, inst, *sched.steps(s.k)),
            init_state(inst, seed), K, scalar, cadence,
        )
    )
    assert got == want
    assert fused.ticks == scalar.ticks
    return got


def compare_mirror_prox(inst, cfg, K, cadence, block, seed):
    fused, scalar = Snapshots(), Snapshots()
    a_k, r_k, beta = cfg.schedule(max(K, 1)).steps(1)
    with mock.patch.object(solver, "_DRAW_BLOCK", block):
        got = outcome(lambda: mirror_prox_run(inst, cfg, K, seed, fused, cadence)[0])
    want = outcome(
        lambda: stepwise(
            lambda s: mirror_prox_step(s, inst, a_k, r_k, beta, cfg.z_max),
            init_state(inst, seed), K, scalar, cadence,
        )
    )
    assert got == want
    assert fused.ticks == scalar.ticks
    return got


@PROPERTY
@given(qcqps(), kinds, steps, steps, run_plans(), st.integers(0, 2**32))
def test_run_equals_pdsg_steps(inst, kind, alpha, rho, plan, seed):
    K, cadence, block = plan
    if kind != "anytime":
        K = max(K, 1)
    compare_pdsg(inst, make_schedule(kind, alpha, rho, K), K, cadence, block, seed)


@PROPERTY
@given(qcqps(), st.floats(0.01, 10.0), steps, steps, run_plans(), st.integers(0, 2**32))
def test_mirror_prox_run_equals_mirror_prox_steps(inst, z_max, alpha, rho, plan, seed):
    K, cadence, block = plan
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
    K, cadence, block = plan
    K *= 5  # long enough that most runs draw sample 0 or constraint 0
    sched = make_schedule("fixed_horizon", step * np.sqrt(K), step * np.sqrt(K), K)
    compare_pdsg(inst, sched, K, cadence, block, seed)
    cfg = MirrorProxConfig(z_max=5.0, alpha=step, rho=step)
    compare_mirror_prox(inst, cfg, K, cadence, block, seed)


def test_divergence_is_reached_mid_block():
    inst = _Blowup(40, 40)
    K = 400
    sched = make_schedule("fixed_horizon", 0.5 * np.sqrt(K), 0.5 * np.sqrt(K), K)
    got = compare_pdsg(inst, sched, K, 7, solver._DRAW_BLOCK, seed=0)
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
    seqs = sched.sequences(K)
    assert not any(seq.flags.writeable for seq in seqs)
    # the constant sequences are views of one value
    constant = {"fixed_horizon": seqs, "anytime": (), "strongly_convex": seqs[1:]}[kind]
    for seq in constant:
        assert seq.strides == (0,)
    alphas, rhos = (seq.tolist() for seq in seqs)
    assert len(alphas) == len(rhos) == K
    for k in range(1, K + 1):
        # rho_k is both the dual step and the penalty
        assert (alphas[k - 1], rhos[k - 1], rhos[k - 1]) == sched.steps(k)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_steps_equal_sequences_over_a_long_horizon(kind):
    K = 10**5  # math.log and numpy's log differ in the last ulp on a few of these
    sched = make_schedule(kind, 0.37, 0.91, K)
    alphas, rhos = (seq.tolist() for seq in sched.sequences(K))
    assert [sched.steps(k) for k in range(1, K + 1)] == list(zip(alphas, rhos, rhos))


@pytest.mark.parametrize("K", [1, 2, 7, 1000])
def test_mirror_prox_steps_are_the_fixed_horizon_schedule(K):
    cfg = MirrorProxConfig(z_max=5.0, alpha=0.37, rho=0.91)
    a_k, r_k = 0.37 / np.sqrt(K), 0.91 / np.sqrt(K)
    assert cfg.schedule(K).steps(1) == (a_k, r_k, r_k)
    alphas, rhos = cfg.schedule(K).sequences(K)
    assert alphas.tolist() == [a_k] * K and rhos.tolist() == [r_k] * K


def test_zero_iteration_runs_return_the_start_and_the_same_empty_record():
    inst = random_qcqp(4, 3, 5, 6, seed=7)
    start = snapshot(init_state(inst, 3))
    for K in (0, 5):
        state, record = run(inst, make_schedule("anytime", 0.1, 0.1, K), K, 3)
        mp_state, mp_record = mirror_prox_run(inst, MirrorProxConfig(), K, 3)
        if K == 0:
            assert snapshot(state) == snapshot(mp_state) == start
        assert record.rows == mp_record.rows == []
        assert record.meta == mp_record.meta == {"seed": 3, "K": K}


def assert_ergodic_means(state, start, iterates, alphas):
    """Both ergodic means of ``state`` against sums of the post-update iterates.

    The sums are taken here in iteration order, as the run loop takes them, so
    the means must agree bit for bit; with no iterate each is the start point.
    """
    assert state.k - 1 == len(iterates) == len(alphas)
    if iterates:
        plain, weighted, weight = np.zeros_like(start), np.zeros_like(start), 0.0
        for x, a_k in zip(iterates, alphas):
            plain += x
            weighted += a_k * x
            weight += a_k
        want = (plain / len(iterates), weighted / weight)
    else:
        want = (start, start)
    for got, expected in zip((state.ergodic_plain(), state.ergodic_weighted()), want):
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, state.x)  # a copy, never the iterate itself


class Iterates(Snapshots):
    """Recorder stand-in that keeps the iterate at each tick."""

    def __call__(self, state):
        self.ticks.append(state.x.copy())


def test_ergodic_means_follow_k_after_steps_and_runs():
    inst = random_qcqp(4, 3, 5, 6, seed=7)
    start = inst.start_point()
    K = 60
    sched = make_schedule("anytime", 0.05, 0.05, K)  # alpha_k varies with k
    assert_ergodic_means(init_state(inst, 0), start, [], [])

    state, iterates, alphas = init_state(inst, 0), [], []
    for _ in range(K):
        a_k, r_k, b_k = sched.steps(state.k)
        pdsg_step(state, inst, a_k, r_k, b_k)
        iterates.append(state.x.copy())
        alphas.append(a_k)
    assert_ergodic_means(state, start, iterates, alphas)

    grab = Iterates()
    state, _ = run(inst, sched, K, 1, grab, cadence=1)
    assert_ergodic_means(state, start, grab.ticks, [sched.steps(k)[0] for k in range(1, K + 1)])

    cfg = MirrorProxConfig(z_max=5.0, alpha=0.5, rho=0.5)
    grab = Iterates()
    state, _ = mirror_prox_run(inst, cfg, K, 2, grab, cadence=1)
    assert_ergodic_means(state, start, grab.ticks, [cfg.schedule(K).steps(1)[0]] * K)


def test_ergodic_means_follow_k_on_divergence_mid_block():
    inst = _Blowup(40, 40)
    K = 400
    sched = make_schedule("fixed_horizon", 0.5 * np.sqrt(K), 0.5 * np.sqrt(K), K)
    cfg = MirrorProxConfig(z_max=5.0, alpha=0.5 * np.sqrt(K), rho=0.5 * np.sqrt(K))
    policies = (  # (fused run, one step's arguments after the instance, the step)
        (lambda: run(inst, sched, K, 0), sched.steps, pdsg_step),
        (lambda: mirror_prox_run(inst, cfg, K, 0),
         lambda k: (*cfg.schedule(K).steps(1), cfg.z_max), mirror_prox_step),
    )
    for go, step_args, step in policies:
        with pytest.raises(DivergenceError) as info:
            go()  # no recorder: iterations 1..K form one draw block
        assert 2 < info.value.iteration < K

        # the iterates before the divergence, replayed one scalar step at a time
        replay, iterates, alphas = init_state(inst, 0), [], []
        with pytest.raises(DivergenceError):
            for _ in range(K):
                args = step_args(replay.k)
                step(replay, inst, *args)
                iterates.append(replay.x.copy())
                alphas.append(args[0])
        assert_ergodic_means(info.value.state, inst.start_point(), iterates, alphas)

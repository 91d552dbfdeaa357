"""The run loop over several runs, bit for bit.

``solver._iterate`` advances R runs together: on the compiled kernel for a
quadratic instance, its rows split in groups over threads, and one row at a
time through the per-row oracles for any other.  One iteration of a stack
of rows must equal each row's step function on the per-row oracles, and
each row must equal its own one-row run (``run`` or ``mirror_prox_run``)
on the per-row kernel in every field of the state, the generator included,
at every tick, at the end and at a divergence.
``bench.run_experiment`` runs an experiment's loop runs through one call
and measures each tick of all of them with one ``measure`` call; its rows
match the one-run records within the tolerance contract.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_forms as rf
from pdsg import bench, compiled, solver
from pdsg.baselines import MirrorProxConfig, mirror_prox_run, mirror_prox_step
from pdsg.errors import DivergenceError
from pdsg.problems import (
    ProblemInstance,
    load_instance,
    random_qcqp,
    random_scenario_lp,
    save_instance,
)
from pdsg.solver import SCHEDULE_KINDS, _iterate, init_state, pdsg_step, run
from test_compiled import per_row_kernel
from test_loop_equivalence import (
    PROPERTY,
    Snapshots,
    _Blowup,
    compare_mirror_prox,
    make_schedule,
    qcqps,
    run_plans,
    snapshot,
)

# -- one stacked iteration against the per-row oracles ------------------------------


def _stack_inputs(inst, R, seed):
    """R points (box corners and uniform points) and three index arrays; with
    small m or N the indices repeat."""
    rng = np.random.default_rng(seed)
    corners = np.where(rng.random((R, inst.n)) < 0.5, inst.box_lo, inst.box_hi)
    uniform = rng.uniform(inst.box_lo, inst.box_hi, size=(R, inst.n))
    X = np.where(rng.random((R, 1)) < 0.3, corners, uniform)
    return X, rng.integers(inst.N, size=R), rng.integers(inst.m, size=R), rng.integers(
        inst.m, size=R
    )


class _Scripted:
    """A generator stand-in that hands a step function its index triple."""

    def __init__(self, triple):
        self.draws = iter(triple)

    def integers(self, bound):
        return next(self.draws)


def assert_stacked_equal_per_row(inst, X, xis, I, J):
    """One iteration of every row in one block, on the kernel the run loop
    takes for ``inst`` (the compiled one, its rows split over threads, for
    a quadratic instance; ``_row_block`` for any other), against each row's
    step function on the per-row oracles at a fresh copy of its point.  X
    holds G copies of the U draws of the index arrays, copy-major: row
    g*U + u takes index u.  Rows alternate pdsg and mirror-prox (with a dual
    box above the dual steps here) and take steps from 1e-6, which keeps
    the new point off the box, to 1; their duals start in [0, 1)."""
    U = len(xis)
    G = len(X) // U
    triples = np.stack([np.tile(idx, G) for idx in (I, xis, J)], axis=1)
    duals = np.random.default_rng(len(X)).random((len(X), inst.m))
    alphas = [10.0 ** -(6 - r % 6) for r in range(len(X))]
    r_k = 0.7

    def start(r):
        state = init_state(inst, r)
        state.x, state.z = X[r].copy(), duals[r].copy()
        return state

    rows = [(start(r), np.full(1, alphas[r]), np.full(1, r_k), None if r % 2 == 0 else 1e4)
            for r in range(len(X))]
    operands = compiled.operands(inst)
    if operands is None:
        oracles = (inst.stoch_objective_grad, inst.constraint, inst.constraint_value)
        out = solver._row_block(rows, list(triples), oracles, inst.box_lo, inst.box_hi, 0, 1)
    else:
        out = solver._compiled_block(rows, list(triples), operands, 0, 1)
    assert out == {}

    for r, (state, _, _, z_max) in enumerate(rows):
        want = start(r)
        rng, want.rng = want.rng, _Scripted(triples[r].tolist())
        if z_max is None:
            pdsg_step(want, inst, alphas[r], r_k, r_k)
        else:
            mirror_prox_step(want, inst, alphas[r], r_k, r_k, z_max)
        want.rng = rng  # the kernels draw nothing
        assert snapshot(state) == snapshot(want), f"row {r}"


@settings(max_examples=80, deadline=None)
@given(qcqps(), st.integers(1, 12), st.integers(0, 2**32))
def test_stacked_oracles_equal_per_row_on_generated(inst, R, seed):
    assert_stacked_equal_per_row(inst, *_stack_inputs(inst, R, seed))


@settings(max_examples=80, deadline=None)
@given(qcqps(), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32))
def test_stacked_oracles_over_copies_equal_per_row(inst, G, U, seed):
    # G copies of U distinct draws: rows of one draw at different points
    X = _stack_inputs(inst, G * U, seed)[0]
    assert_stacked_equal_per_row(inst, X, *_stack_inputs(inst, U, seed + 1)[1:])


@pytest.mark.parametrize("N", [1, 2, 7])
@pytest.mark.parametrize("R", [1, 5, 12])
def test_stacked_oracles_equal_per_row_on_scenario_lp(N, R):
    inst = random_scenario_lp(5, 8, N, seed=N)
    assert_stacked_equal_per_row(inst, *_stack_inputs(inst, R, R))


@pytest.mark.parametrize("R", range(1, 13))
def test_stacked_oracles_equal_per_row_on_loaded(tmp_path, R):
    inst = random_qcqp(9, 6, 40, 12, seed=4)
    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert_stacked_equal_per_row(loaded, *_stack_inputs(loaded, R, R))


def test_stacked_oracles_with_one_repeated_index():
    inst = random_qcqp(7, 5, 9, 11, seed=3)
    X, _, _, _ = _stack_inputs(inst, 12, 0)
    same = np.full(12, 4)
    assert_stacked_equal_per_row(inst, X, same, same, same)


class _Wavy(ProblemInstance):
    """Test-only instance with non-quadratic oracles: sampled objective
    gradients sin(x + i), constraint values cos(w_j'x) - 1/2 and subgradients
    -sin(w_j'x) w_j.  Values are numpy scalars, as a subclass may return."""

    def __init__(self, n=3, m=5, N=4):
        super().__init__(n, m, -np.ones(n), np.ones(n), N=N)
        self.w = np.arange(1.0, m * n + 1.0).reshape(m, n) / (m * n)

    def stoch_objective_grad(self, i, x):
        return np.sin(x + i)

    def constraint(self, j, x):
        t = self.w[j] @ x
        return np.cos(t) - 0.5, -np.sin(t) * self.w[j]


@pytest.mark.parametrize("R", [1, 4, 12])
def test_generic_stacked_oracles_make_the_per_row_calls(R):
    inst = _Wavy()
    assert compiled.operands(inst) is None
    assert_stacked_equal_per_row(inst, *_stack_inputs(inst, R, R))


@pytest.mark.parametrize("G, U", [(2, 1), (3, 2), (2, 5)])
def test_generic_stacked_oracles_over_copies_make_the_per_row_calls(G, U):
    inst = _Wavy()
    X = _stack_inputs(inst, G * U, G)[0]
    assert_stacked_equal_per_row(inst, X, *_stack_inputs(inst, U, U)[1:])


# -- several runs against one-row runs ----------------------------------------------


@st.composite
def row_specs(draw):
    """(policy, alpha, rho, z_max, seed): a pdsg schedule kind or mirror-prox."""
    policy = draw(st.sampled_from(SCHEDULE_KINDS + ("mirror_prox",)))
    alpha, rho = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))
    z_max = draw(st.floats(0.01, 10.0)) if policy == "mirror_prox" else None
    return policy, alpha, rho, z_max, draw(st.integers(0, 2**32))


def _rows(inst, K, specs):
    """Fresh ``(state, alphas, rhos, z_max)`` rows, as ``run`` and
    ``mirror_prox_run`` build them."""
    rows = []
    for policy, alpha, rho, z_max, seed in specs:
        if z_max is None:
            alphas, rhos = make_schedule(policy, alpha, rho, K).sequences(max(K, 1))
        else:
            cfg = MirrorProxConfig(z_max=z_max, alpha=alpha, rho=rho)
            a_k, r_k, _ = cfg.schedule(max(K, 1)).steps(1)
            alphas, rhos = np.full(K, a_k), np.full(K, r_k)
        rows.append((init_state(inst, seed), alphas, rhos, z_max))
    return rows


def _one_row_run(inst, K, spec, recorder, cadence):
    """The spec's own ``run`` or ``mirror_prox_run``; returns its final state."""
    policy, alpha, rho, z_max, seed = spec
    if z_max is None:
        return run(inst, make_schedule(policy, alpha, rho, K), K, seed, recorder, cadence)[0]
    cfg = MirrorProxConfig(z_max=z_max, alpha=alpha, rho=rho)
    return mirror_prox_run(inst, cfg, K, seed, recorder, cadence)[0]


def _ending(state, exc=None):
    """How a run ended: its iteration at a divergence, every field of its
    state and the generator's next draw."""
    head = ("diverged", exc.iteration) if exc is not None else ("done",)
    return (*head, snapshot(state), state.rng.integers(2**40))


def compare_grid(inst, K, specs, cadence, block=solver._DRAW_BLOCK):
    """Run the rows through one ``_iterate`` call, and each through its own
    one-row run on the per-row kernel; return the endings."""
    rows = _rows(inst, K, specs)
    grid_ticks = [[] for _ in rows]

    def on_tick(live):
        for r in live:
            grid_ticks[r].append(snapshot(rows[r][0]))

    with mock.patch.object(solver, "_DRAW_BLOCK", block):
        errors = _iterate(rows, inst, K, on_tick=on_tick, cadence=cadence)
        got = [_ending(row[0], exc) for row, exc in zip(rows, errors)]
        for r, spec in enumerate(specs):
            ticks = Snapshots()
            try:
                with per_row_kernel():
                    want = _ending(_one_row_run(inst, K, spec, ticks, cadence))
            except DivergenceError as exc:
                want = _ending(exc.state, exc)
            assert got[r] == want, f"row {r} ({spec[0]}) ends differently"
            assert grid_ticks[r] == ticks.ticks, f"row {r} ({spec[0]}) ticks differently"
    for exc, (state, *_) in zip(errors, rows):
        assert exc is None or exc.state is state
    return got


@PROPERTY
@given(qcqps(), st.lists(row_specs(), min_size=1, max_size=6), run_plans())
def test_grid_equals_independent_runs(inst, specs, plan):
    K, cadence, block = plan
    if any(policy in ("fixed_horizon", "strongly_convex") for policy, *_ in specs):
        K = max(K, 1)  # these schedules need a horizon
    compare_grid(inst, K, specs, cadence, block)


@PROPERTY
@given(
    st.integers(2, 60), st.integers(2, 60), st.floats(0.2, 1.0),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**32)), min_size=1, max_size=5),
    run_plans(min_K=1),
)
def test_grid_divergence_equals_independent_runs(N, m, step, kinds, plan):
    inst = _Blowup(N, m)
    K, cadence, block = plan
    K *= 5  # long enough that most rows draw sample 0 or constraint 0
    scale = step * np.sqrt(K)
    specs = [("fixed_horizon", scale, scale, None, seed) if pdsg
             else ("mirror_prox", step, step, 5.0, seed) for pdsg, seed in kinds]
    compare_grid(inst, K, specs, cadence, block)


@PROPERTY
@given(qcqps(), st.lists(row_specs(), min_size=1, max_size=6),
       st.lists(st.integers(0, 2), min_size=6, max_size=6), run_plans())
def test_grid_with_shared_seeds_equals_independent_runs(inst, specs, seeds, plan):
    # rows of one seed draw equal blocks
    specs = [(*spec[:4], seed) for spec, seed in zip(specs, seeds)]
    K, cadence, block = plan
    if any(policy in ("fixed_horizon", "strongly_convex") for policy, *_ in specs):
        K = max(K, 1)  # these schedules need a horizon
    compare_grid(inst, K, specs, cadence, block)


def test_grid_copies_that_part_run_one_copy_per_row():
    # two pdsg and mirror-prox pairs of one seed each; the big pdsg row
    # diverges mid-run, and the rows of its seed run on apart
    inst = random_qcqp(3, 2, 40, 40, seed=5)
    specs = [("fixed_horizon", 1e10, 1e10, None, 1), ("fixed_horizon", 0.01, 0.01, None, 0),
             ("mirror_prox", 1.0, 1.0, 5.0, 1), ("mirror_prox", 1.0, 1.0, 5.0, 0)]
    got = compare_grid(inst, 400, specs, cadence=7)
    assert [g[0] for g in got] == ["diverged", "done", "done", "done"]


def test_grid_row_diverges_mid_block_while_the_others_finish():
    # sample 0 (a NaN gradient) is practically never drawn; constraint 0
    # (value 1e13) blows up the dual of the pdsg rows with rho_k > 0.1 only
    inst = _Blowup(2**40, 40)
    K = 400
    big, small = 0.5 * np.sqrt(K), 0.01 * np.sqrt(K)
    specs = [
        ("fixed_horizon", big, big, None, 0),
        ("fixed_horizon", small, small, None, 1),
        ("mirror_prox", big, big, 5.0, 2),
        ("fixed_horizon", big, big, None, 3),
        ("mirror_prox", 0.5, 0.5, 5.0, 4),
    ]
    got = compare_grid(inst, K, specs, cadence=7)
    assert [g[0] for g in got] == ["diverged", "done", "done", "diverged", "done"]
    assert got[0][1] != got[3][1]
    for ending in (got[0], got[3]):
        assert ending[1] % 7 not in (0, 1)  # neither end of a block


def test_mirror_prox_dual_above_the_blowup_level_runs_on():
    # mirror-prox has no blow-up test on its dual: with a box above
    # _Z_BLOWUP its dual passes that level where pdsg's diverges
    inst = _Blowup(2**40, 40)
    K = 400
    big = 0.5 * np.sqrt(K)
    specs = [("fixed_horizon", big, big, None, 0), ("mirror_prox", big, big, 1e15, 1),
             ("mirror_prox", big, big, 1e15, 2)]
    got = compare_grid(inst, K, specs, cadence=7)
    assert [g[0] for g in got] == ["diverged", "done", "done"]
    cfg = MirrorProxConfig(z_max=1e15, alpha=big, rho=big)
    got = compare_mirror_prox(inst, cfg, K, 7, solver._DRAW_BLOCK, seed=1)
    z = np.frombuffer(got[1][0][1])
    assert got[0] == "done" and z.max() > solver._Z_BLOWUP


class _NanConstraint(ProblemInstance):
    """Constraint 0 has a NaN value.  A NaN multiplier takes pdsg's penalty
    branch, which makes x NaN, and skips mirror-prox's, which runs on."""

    def __init__(self, m):
        super().__init__(2, m, [-1.0, -1.0], [1.0, 1.0], N=3)

    def stoch_objective_grad(self, i, x):
        return x - i

    def constraint(self, j, x):
        return (np.nan if j == 0 else float(x.sum()) - 1.0), np.array([1.0, 1.0])


def test_grid_nan_multiplier_follows_each_policy():
    specs = [("fixed_horizon", 0.3, 0.3, None, seed) for seed in range(3)] + [
        ("mirror_prox", 0.3, 0.3, 1.0, seed) for seed in range(3)
    ]
    got = compare_grid(_NanConstraint(9), 120, specs, cadence=11)
    assert [g[0] for g in got] == ["diverged"] * 3 + ["done"] * 3


class _CountingGenerator(np.random.Generator):
    """``default_rng(seed)`` that counts its ``integers`` calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("on_compiled", [True, False])  # the compiled kernel, then the per-row one
def test_run_loop_draws_once_per_live_row_and_block(on_compiled):
    # the big pdsg row diverges mid-block; the other two finish
    inst = random_qcqp(3, 2, 40, 40, seed=5)
    K, cadence = 400, 7
    specs = [("fixed_horizon", 1e10, 1e10, None, 1), ("fixed_horizon", 0.01, 0.01, None, 0),
             ("mirror_prox", 1.0, 1.0, 5.0, 2)]
    rows = _rows(inst, K, specs)
    for (state, *_), spec in zip(rows, specs):
        state.rng = _CountingGenerator(spec[-1])
    with contextlib.nullcontext() if on_compiled else per_row_kernel():
        errors = _iterate(rows, inst, K, on_tick=lambda live: None, cadence=cadence)
    assert [exc is not None for exc in errors] == [True, False, False]
    stop = errors[0].iteration  # the iteration at which row 0 stopped
    assert stop % cadence not in (0, 1)  # neither end of a block
    blocks = -(-K // cadence)
    # row 0: one draw per block up to its divergence, and one rewind to it
    want = [stop // cadence + 2]
    # the others draw once per block on either kernel: a row's divergence
    # ends no other row's block
    want += [blocks] * 2
    assert [row[0].rng.calls for row in rows] == want
    for (state, *_), spec in zip(rows, specs):
        try:
            alone = _one_row_run(inst, K, spec, None, None)
        except DivergenceError as exc:
            alone = exc.state
        assert state.rng.bit_generator.state == alone.rng.bit_generator.state


# -- experiments ------------------------------------------------------------------


def _cfg(**kw):
    base = dict(family="qcqp", n=6, p=4, N=30, m=25, instance_seed=2,
                methods=("pdsg", "mirror_prox", "reference"), alpha=0.5, rho=0.5,
                force=True, epochs=3, cadence=1.0, seeds=(0, 1, 2))
    base.update(kw)
    return bench.ExperimentConfig(**base)


def _one_run_records(cfg, inst, ref):
    """The experiment's records, each from its own ``run_one``."""
    K = cfg.epochs * inst.m
    cadence_steps = max(1, int(round(cfg.cadence * inst.m)))
    return [
        bench.run_one(method, inst, cfg, K, seed, ref, cadence_steps)
        for method in cfg.methods
        for seed in cfg.seeds
    ]


def _box_scales(inst):
    """Contract scales of the objective and of the constraint values that
    bound those of every point of the box."""
    corner = np.maximum(np.abs(inst.box_lo), np.abs(inst.box_hi))
    return rf.objective_scale(inst, corner), float(rf.constraint_values_scale(inst, corner).max())


def assert_records_match(got, want, inst):
    """Same records, rows and z_norm bytes; obj_err and infeas within the contract."""
    f0_scale, fval_scale = _box_scales(inst)

    def meta(records):
        return [{k: v for k, v in r.meta.items() if k != "wall_clock"} for r in records]

    assert meta(got) == meta(want)
    for g, w in zip(got, want):
        assert [(r.k, r.epoch, r.point) for r in g.rows] == [(r.k, r.epoch, r.point)
                                                             for r in w.rows]
        for a, b in zip(g.rows, w.rows):
            assert np.float64(a.z_norm).tobytes() == np.float64(b.z_norm).tobytes()
            if a.point != "DIVERGED":
                rf.assert_within_contract(a.obj_err, b.obj_err, f0_scale)
                rf.assert_within_contract(a.infeas, b.infeas, fval_scale)
    got_csv, want_csv = bench.csv_text(got).splitlines(), bench.csv_text(want).splitlines()
    assert [line.rsplit(",", 3)[::3] for line in got_csv] == [
        line.rsplit(",", 3)[::3] for line in want_csv
    ]  # every field but obj_err and infeas, z_norm included, byte for byte


@pytest.mark.parametrize("kw", [
    {},
    dict(schedule="anytime", cadence=0.3, seeds=(4, 1, 3)),
    dict(methods=("mirror_prox",), seeds=(0, 1, 2, 3)),
    dict(alpha=1e12, rho=1e12),  # every pdsg run diverges
])
def test_experiment_grid_matches_one_run_loops(kw):
    cfg = _cfg(**kw)
    inst = bench.build_instance(cfg)
    with mock.patch.object(solver, "_iterate", wraps=solver._iterate) as loop:
        records, ref, _ = bench.run_experiment(cfg, inst=inst)
    assert loop.call_count == 1
    want = _one_run_records(cfg, inst, ref)
    assert_records_match(records, want, inst)
    if cfg.alpha > 1e6:
        assert all(r.meta.get("diverged") for r in records if r.meta["method"] == "pdsg")


def test_experiment_measures_each_grid_tick_once():
    # 6 loop runs, and 2
    for seeds in ((0, 1, 2), (0,)):
        # cadence 10 of K = 50: ticks at 10, ..., 50
        cfg = _cfg(cadence=0.4, epochs=2, seeds=seeds)
        inst = bench.build_instance(cfg)
        measured = []
        measure = inst.measure

        def counted(X):
            measured.append(len(X))
            return measure(X)

        inst.measure = counted
        records, _, _ = bench.run_experiment(cfg, inst=inst)
        loops = 2 * len(cfg.seeds)
        assert measured == [3 * loops] * 5
        assert all(len(r.rows) == 15 for r in records if r.meta["method"] != "reference")


@pytest.mark.parametrize("methods, seeds", [
    (("pdsg",), (0,)),  # `pdsg solve` with its default single seed
    (("pdsg", "reference"), (0,)),
    (("pdsg", "reference"), (0, 1)),
])
def test_experiment_of_one_or_two_loop_runs_matches_one_run_loops(methods, seeds):
    cfg = _cfg(methods=methods, seeds=seeds)
    inst = bench.build_instance(cfg)
    records, ref, _ = bench.run_experiment(cfg, inst=inst)
    want = _one_run_records(cfg, inst, ref)
    if len(seeds) == 1:
        assert bench.csv_text(records) == bench.csv_text(want)
    else:  # both runs' ticks are measured in one call, within the contract
        assert_records_match(records, want, inst)

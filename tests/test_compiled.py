"""The compiled run kernel against the per-row kernel and the step functions, bit for bit.

``solver._iterate`` runs the blocks of a ``QuadraticInstance`` with its own
oracles on the compiled kernel (``compiled``, ``_kernel.c``), and any other
instance's, or every block where the kernel is unavailable, on
``_row_block``.  Each test runs rows both ways and one scalar step at a
time (``pdsg_step`` or ``mirror_prox_step``), and compares every field of
each row's state, the generator included, at every tick, at the end and at
a divergence.  The kernel splits a block's rows over threads; two tests also
run it from two Python threads at once and in a forked child.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import shutil
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdsg import bench, compiled, solver
from pdsg.baselines import MirrorProxConfig, mirror_prox_run, mirror_prox_step
from pdsg.errors import DivergenceError
from pdsg.problems import (
    QcqpData,
    QuadraticInstance,
    load_instance,
    random_qcqp,
    random_scenario_lp,
    save_instance,
)
from pdsg.solver import SCHEDULE_KINDS, _iterate, init_state, pdsg_step, run
from test_loop_equivalence import PROPERTY, Snapshots, make_schedule, run_plans, snapshot


def per_row_kernel():
    """The compiled kernel made unavailable: every block runs on ``_row_block``."""
    return mock.patch.object(compiled, "load", return_value=None)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """A loaded instance: its arrays are read-only views of one mapped file."""
    path = tmp_path_factory.mktemp("compiled") / "inst.bin"
    save_instance(random_qcqp(9, 6, 40, 12, seed=4), path)
    return load_instance(path)


@st.composite
def small_qcqps(draw):
    n, p, N, m = (draw(st.integers(1, 4)) for _ in range(4))
    return random_qcqp(n, p, N, m, seed=draw(st.integers(0, 2**16)))


@st.composite
def scenario_lps(draw):
    """Scenario LPs: Q = 0 and H_i = I."""
    n, m, N = (draw(st.integers(1, 4)) for _ in range(3))
    return random_scenario_lp(n, m, N, seed=draw(st.integers(0, 2**16)))


@st.composite
def row_specs(draw):
    """(policy, alpha, rho, z_max, seed): pdsg rows, some with steps large
    enough to diverge, and mirror-prox rows; seeds repeat across rows."""
    policy = draw(st.sampled_from(SCHEDULE_KINDS + ("mirror_prox",)))
    alpha = draw(st.floats(1e-3, 2.0))
    rho = draw(st.one_of(st.floats(1e-3, 2.0), st.floats(1e9, 1e13)))
    # a dual box above pdsg's blow-up level: mirror-prox has no such test
    z_max = draw(st.one_of(st.floats(0.01, 10.0), st.just(1e15)))
    z_max = z_max if policy == "mirror_prox" else None
    return policy, alpha, rho, z_max, draw(st.integers(0, 2))


def _steps(spec, K):
    """A row's (alphas, rhos), as ``run`` and ``mirror_prox_run`` build them."""
    policy, alpha, rho, z_max, _ = spec
    if z_max is None:
        return make_schedule(policy, alpha, rho, K).sequences(K)
    a_k, r_k, _ = MirrorProxConfig(z_max=z_max, alpha=alpha, rho=rho).schedule(K).steps(1)
    return np.full(K, a_k), np.full(K, r_k)


def _ending(state, exc=None):
    head = ("diverged", exc.iteration) if exc is not None else ("done",)
    return (*head, snapshot(state), state.rng.integers(2**40))


def run_loop(inst, specs, K, cadence, block=solver._DRAW_BLOCK):
    """The specs' rows through one ``_iterate`` call: each row's ending and
    its snapshots at the ticks."""
    rows = [(init_state(inst, spec[-1]), *_steps(spec, K), spec[3]) for spec in specs]
    ticks = [[] for _ in rows]

    def on_tick(live):
        for r in live:
            ticks[r].append(snapshot(rows[r][0]))

    with mock.patch.object(solver, "_DRAW_BLOCK", block):
        errors = _iterate(rows, inst, K, on_tick=on_tick, cadence=cadence)
    return [_ending(row[0], exc) for row, exc in zip(rows, errors)], ticks


def stepwise(inst, spec, K, cadence):
    """One row as K scalar steps: its ending and its snapshots at the ticks."""
    z_max = spec[3]
    state, ticks = init_state(inst, spec[-1]), []
    try:
        for done, (a_k, r_k) in enumerate(zip(*(seq.tolist() for seq in _steps(spec, K))), 1):
            if z_max is None:
                pdsg_step(state, inst, a_k, r_k, r_k)
            else:
                mirror_prox_step(state, inst, a_k, r_k, r_k, z_max)
            if (cadence and done % cadence == 0) or done == K:
                ticks.append(snapshot(state))
    except DivergenceError as exc:
        return _ending(exc.state, exc), ticks
    return _ending(state), ticks


def assert_kernels_agree(inst, specs, K, cadence, block=solver._DRAW_BLOCK):
    """The compiled loop equals the per-row loop and each row's scalar steps;
    returns the endings."""
    assert compiled.operands(inst) is not None
    endings, ticks = run_loop(inst, specs, K, cadence, block)
    with per_row_kernel():
        assert compiled.operands(inst) is None
        assert run_loop(inst, specs, K, cadence, block) == (endings, ticks)
    for r, spec in enumerate(specs):
        assert (endings[r], ticks[r]) == stepwise(inst, spec, K, cadence), f"row {r} ({spec[0]})"
    return endings


@PROPERTY
@given(data=st.data())
def test_compiled_kernel_equals_row_kernel_and_steps(loaded, data):
    inst = data.draw(st.one_of(small_qcqps(), scenario_lps(), st.just(loaded)))
    specs = data.draw(st.lists(row_specs(), min_size=1, max_size=5))
    K, cadence, block = data.draw(run_plans(min_K=1))
    assert_kernels_agree(inst, specs, K, cadence, block)


def test_compiled_row_diverges_mid_block_while_the_others_finish():
    inst = random_qcqp(3, 2, 40, 40, seed=5)
    specs = [("fixed_horizon", 1e10, 1e10, None, 1), ("fixed_horizon", 0.01, 0.01, None, 0),
             ("mirror_prox", 1.0, 1.0, 5.0, 1), ("fixed_horizon", 1e10, 1e10, None, 3)]
    endings = assert_kernels_agree(inst, specs, 400, 7)
    assert [e[0] for e in endings] == ["diverged", "done", "done", "diverged"]
    assert endings[0][1] != endings[3][1]
    for ending in (endings[0], endings[3]):
        assert ending[1] % 7 not in (0, 1)  # neither end of a block


def test_compiled_kernel_keeps_nan_and_signed_zero_rules():
    # b_0 is NaN: a NaN multiplier takes pdsg's penalty branch, which makes x
    # NaN, and skips mirror-prox's, which runs on
    d = random_qcqp(3, 2, 5, 6, seed=1).data
    b = d.b.copy()
    b[0] = np.nan
    specs = [("fixed_horizon", 0.3, 0.3, None, seed) for seed in range(3)] + [
        ("mirror_prox", 0.3, 0.3, 1.0, seed) for seed in range(3)]
    endings = assert_kernels_agree(QuadraticInstance(dataclasses.replace(d, b=b)), specs, 120, 11)
    assert [e[0] for e in endings] == ["diverged"] * 3 + ["done"] * 3

    # zero data on a box with signed-zero bounds: every clip is a tie of zeros
    n = 3
    zero = QcqpData(np.zeros((2, 1, n)), np.zeros((2, 1)), np.zeros((2, n, n)),
                    np.zeros((2, n)), np.ones(2), np.array([-0.0, -1.0, 0.0]),
                    np.array([1.0, -0.0, 1.0]))
    endings = assert_kernels_agree(QuadraticInstance(zero), specs[:1] + specs[3:4], 5, 2)
    assert endings[0][1][0][0] == np.array([-0.0, -0.0, 0.0]).tobytes()  # x


@pytest.mark.parametrize("shared", [("z", "z"), ("sum_plain", "sum_weighted")])
def test_rows_writing_the_same_memory_run_per_row(shared):
    # two rows that write one array would race on two threads
    inst = random_qcqp(4, 3, 5, 6, seed=2)
    specs = [("anytime", 0.5, 0.5, None, 0), ("mirror_prox", 0.5, 0.5, 1.0, 1)]

    def aliased_run():
        rows = [(init_state(inst, spec[-1]), *_steps(spec, 60), spec[3]) for spec in specs]
        setattr(rows[1][0], shared[1], getattr(rows[0][0], shared[0]))
        assert _iterate(rows, inst, 60, on_tick=lambda live: None, cadence=7) == [None, None]
        return [_ending(row[0]) for row in rows]

    with mock.patch.object(solver, "_row_block", wraps=solver._row_block) as row_block:
        got = aliased_run()
    assert row_block.call_count == 9
    with per_row_kernel():
        assert aliased_run() == got


def test_split_keeps_equal_draws_together_and_balances_rows(monkeypatch):
    draws = [np.full(6, seed, np.int64) for seed in (0, 0, 1, 2, 2, 2)]
    monkeypatch.setattr(compiled._process, "cpus", 2)
    threads, rows, counts = compiled.split(draws)
    assert (threads, rows.tolist(), counts.tolist()) == (2, [3, 4, 5, 0, 1, 2], [3, 3])
    monkeypatch.setattr(compiled._process, "cpus", 1)
    assert compiled.split(draws)[0] == 1
    monkeypatch.setattr(compiled._process, "cpus", 8)
    assert compiled.split(draws)[0] == 3  # one thread per group


def _one_row_runs(inst, specs, K, cadence):
    """Each spec's ending and ticks as a run of its own on the per-row kernel."""
    with per_row_kernel():
        return [tuple(out[0] for out in run_loop(inst, [spec], K, cadence)) for spec in specs]


# pdsg and mirror-prox rows of one seed share their draws, and a third row
# is a group of its own
_GROUPED = [("fixed_horizon", 0.05, 0.05, None, 0), ("mirror_prox", 1.0, 1.0, 5.0, 0),
            ("anytime", 0.05, 0.05, None, 1)]


def test_python_threads_run_the_compiled_kernel_at_once():
    # ctypes releases the GIL in the kernel, so both calls run together
    inst = random_qcqp(30, 20, 60, 60, seed=3)
    K, cadence = 3000, 700
    plans = [_GROUPED, [("mirror_prox", 0.5, 0.5, 2.0, 2), ("anytime", 0.02, 0.02, None, 3)]]
    want = [_one_row_runs(inst, specs, K, cadence) for specs in plans]
    got = [None] * len(plans)
    barrier = threading.Barrier(len(plans))

    def loop(k):
        barrier.wait()
        got[k] = run_loop(inst, plans[k], K, cadence)

    threads = [threading.Thread(target=loop, args=(k,)) for k in range(len(plans))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for (endings, ticks), alone in zip(got, want):
        assert list(zip(endings, ticks)) == alone


def _send_run_loop(conn, inst, specs, K, cadence):
    conn.send(run_loop(inst, specs, K, cadence))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
# the fork is the point: BLAS worker threads are alive in the parent
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_the_compiled_kernel():
    inst = random_qcqp(6, 4, 30, 30, seed=7)
    K, cadence = 400, 90
    endings, ticks = run_loop(inst, _GROUPED, K, cadence)  # the kernel has run here
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_run_loop, args=(send, inst, _GROUPED, K, cadence))
    child.start()
    send.close()
    got = receive.recv() if receive.poll(60) else None
    child.join(timeout=60)
    assert child.exitcode == 0
    assert got == (endings, ticks)
    assert list(zip(*got)) == _one_row_runs(inst, _GROUPED, K, cadence)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_quadratic_runs_take_the_compiled_kernel(loaded):
    assert compiled.load() is not None
    for inst in (random_qcqp(5, 3, 7, 11, seed=8), random_scenario_lp(4, 6, 3, seed=1), loaded):
        with mock.patch.object(solver, "_row_block", side_effect=AssertionError("per-row")), \
                mock.patch.object(solver, "_compiled_block", wraps=solver._compiled_block) as block:
            run(inst, make_schedule("anytime", 0.05, 0.05, 300), 300, 4, Snapshots(), 7)
            mirror_prox_run(inst, MirrorProxConfig(), 300, 4)
            run_loop(inst, [("fixed_horizon", 0.05, 0.05, None, 0), ("mirror_prox", 1, 1, 5, 1)],
                     300, 100)
        assert block.call_count == 43 + 1 + 3


class _Overriding(QuadraticInstance):
    """A quadratic instance whose constraint value oracle is its own."""

    def constraint_value(self, j, x):
        return super().constraint_value(j, x)


def test_other_oracles_and_arrays_run_per_row():
    inst = random_qcqp(4, 3, 5, 6, seed=2)
    assert compiled.operands(inst) is not None
    assert compiled.operands(_Overriding(inst.data)) is None
    replaced = QuadraticInstance(inst.data)
    replaced.constraint = replaced.constraint  # an oracle set on the instance
    assert compiled.operands(replaced) is None
    strided = np.empty((inst.m, 2 * inst.n))[:, ::2]
    strided[:] = inst.data.a
    assert compiled.operands(QuadraticInstance(dataclasses.replace(inst.data, a=strided))) is None
    assert compiled.operands(QuadraticInstance(dataclasses.replace(
        inst.data, b=inst.data.b.astype(np.float32)))) is None

    # a state whose dual is a strided view runs its blocks per row
    sched = make_schedule("anytime", 0.5, 0.5, 60)
    state = init_state(inst, 3)
    state.z = np.zeros(2 * inst.m)[::2]
    with mock.patch.object(solver, "_row_block", wraps=solver._row_block) as row_block:
        _iterate([(state, *sched.sequences(60), None)], inst, 60)
    assert row_block.call_count == 1
    want = init_state(inst, 3)
    for k in range(1, 61):
        pdsg_step(want, inst, *sched.steps(k))
    assert snapshot(state) == snapshot(want)


@pytest.mark.parametrize("failure", ["compiler", "symbols", "self_check"])
def test_unavailable_kernel_falls_back_to_the_per_row_kernel(monkeypatch, tmp_path, failure):
    monkeypatch.setattr(compiled._process, "kernel", None)
    if failure == "compiler":  # a source not built yet, and a flag cc refuses
        source = tmp_path / "_kernel.c"
        shutil.copy(compiled._SOURCE, source)
        monkeypatch.setattr(compiled, "_SOURCE", str(source))
        monkeypatch.setattr(compiled, "_FLAGS", (*compiled._FLAGS, "--no-such-flag"))
    elif failure == "symbols":
        monkeypatch.setattr(compiled, "_SYMBOLS", ("no_such_cblas_{}",))
    else:
        monkeypatch.setattr(compiled, "_self_check", lambda: False)
    inst = random_qcqp(4, 3, 5, 6, seed=2)
    assert compiled.load() is None and compiled.operands(inst) is None
    assert compiled.load() is None  # found unavailable once per process
    if failure == "compiler":
        assert os.listdir(tmp_path / "__pycache__") == []  # no partial build is left
    specs = [("anytime", 0.5, 0.5, None, 0), ("mirror_prox", 0.5, 0.5, 1.0, 0)]
    endings, ticks = run_loop(inst, specs, 50, 9)
    for r, spec in enumerate(specs):
        assert (endings[r], ticks[r]) == stepwise(inst, spec, 50, 9)


def test_concurrent_first_loads_wait_for_one_build(monkeypatch):
    monkeypatch.setattr(compiled._process, "kernel", None)
    builds, got = [], []
    build = compiled._build
    monkeypatch.setattr(compiled, "_build", lambda: builds.append(1) or build())
    threads = [threading.Thread(target=lambda: got.append(compiled.load())) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == [1] and len(got) == 4
    assert got[0] is not None and all(kernel is got[0] for kernel in got)


def test_build_without_a_writable_cache_uses_a_temporary_directory(monkeypatch, tmp_path):
    source = tmp_path / "_kernel.c"
    shutil.copy(compiled._SOURCE, source)
    monkeypatch.setattr(compiled, "_SOURCE", str(source))
    access = os.access
    cache = str(tmp_path / "__pycache__")
    monkeypatch.setattr(os, "access", lambda path, mode: path != cache and access(path, mode))
    monkeypatch.setattr(compiled._process, "tmpdir", None)
    path = compiled._build()
    try:
        assert os.path.dirname(path) == compiled._process.tmpdir.name
        assert os.path.basename(path).startswith("_kernel.") and os.path.getsize(path) > 0
        assert os.listdir(tmp_path / "__pycache__") == []
    finally:
        compiled._process.tmpdir.cleanup()


def test_experiment_without_the_compiled_kernel_writes_the_same_csv(tmp_path):
    cfg = bench.ExperimentConfig(family="qcqp", n=6, p=4, N=30, m=25, instance_seed=2,
                                 methods=("pdsg", "mirror_prox", "reference"), alpha=0.5,
                                 rho=0.5, force=True, epochs=3, cadence=0.5, seeds=(0, 1, 2))
    for name, unavailable in (("compiled.csv", False), ("per_row.csv", True)):
        with per_row_kernel() if unavailable else contextlib.nullcontext():
            records, _, _ = bench.run_experiment(cfg)
        bench.write_csv(records, tmp_path / name)
    assert (tmp_path / "compiled.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()

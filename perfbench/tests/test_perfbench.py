"""Tests of the benchmark itself: tracer install/restore, count repeatability,
and the output check.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import check  # noqa: E402
import tracer as tracing  # noqa: E402
from pdsg import bench, problems, solver  # noqa: E402

METHODS = ("pdsg", "mirror_prox")
SEEDS = (0, 1)
EPOCHS = 2


def _snapshot():
    mods = tracing._library_modules()
    snap = {(m.__name__, a): v for m in mods for a, v in vars(m).items()}
    for cls in (problems.QuadraticInstance, solver.ParamSchedule, bench.metrics.Recorder):
        snap.update({(cls.__qualname__, a): v for a, v in vars(cls).items()})
    return snap


def _experiment():
    cfg = bench.ExperimentConfig(
        n=5, p=4, N=20, m=20, instance_seed=13, methods=METHODS, epochs=EPOCHS, seeds=SEEDS
    )
    inst = bench.build_instance(cfg)
    alpha = solver.max_equal_steps(inst.m, problems.certify_constants(inst).G)
    cfg = dataclasses.replace(cfg, alpha=alpha, rho=alpha)
    records, ref, _ = bench.run_experiment(cfg, inst=inst)
    return bench.csv_text(records), ref


def test_install_and_restore_leave_library_unpatched():
    before = _snapshot()
    tr = tracing.Tracer()
    with tr.installed():
        assert solver.project_box is not before[("pdsg.solver", "project_box")]
        assert bench.baselines.project_box is solver.project_box
        assert solver.primal_subgradient is not before[("pdsg.solver", "primal_subgradient")]
        assert problems.hashlib is not before[("pdsg.problems", "hashlib")]
        _experiment()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tr.absent == []


def test_missing_function_is_reported_absent():
    before = _snapshot()
    gone = tracing.Boundary("solver.fused_kernel", "pdsg.solver", "fused_kernel", hot=True)
    tr = tracing.Tracer(tracing.BOUNDARIES + (gone,))
    with tr.installed():
        _experiment()
    assert tr.absent == ["solver.fused_kernel"]
    assert tr.layer_metrics()["trace.absent_boundaries"] == 1.0
    assert all(_snapshot()[k] is v for k, v in before.items())


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tr.installed():
            _experiment()
        counts.append(tr.counts())
        layers = tr.layer_metrics()
        assert layers["solver.constraint_queries_per_iter"] == 2.0
        assert layers["metrics.Recorder.ticks"] == EPOCHS * len(METHODS) * len(SEEDS)
    assert counts[0] == counts[1]
    assert counts[0]["solver.run"] == len(SEEDS)
    assert counts[0][tracing.HASHLIB_BOUNDARY] > 0


def test_untraced_and_traced_csv_agree():
    plain, _ = _experiment()
    with tracing.Tracer().installed():
        traced, _ = _experiment()
    assert plain == traced


@pytest.fixture(scope="module")
def good_csv():
    text, ref = _experiment()
    assert ref.converged
    return text


def _check(text):
    return check.check_csv(text, METHODS, SEEDS, EPOCHS)


def test_check_accepts_the_library_output(good_csv):
    errors, finals = _check(good_csv)
    assert errors == []
    assert len(finals) == len(METHODS) * len(SEEDS) * len(check.POINTS)


def _alter_value(text, row, column, value):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "alter",
    [
        lambda t: t.replace("method,seed", "method,run_seed", 1),
        lambda t: "\n".join(t.split("\n")[:-2]) + "\n",
        lambda t: _alter_value(t, 3, 5, "nan"),
        lambda t: _alter_value(t, 3, 6, "inf"),
        lambda t: _alter_value(t, 3, 4, check.DIVERGED),
        lambda t: _alter_value(t, 3, 0, "reference"),
        lambda t: _alter_value(t, 4, 2, "1"),
    ],
    ids=["header", "row-dropped", "nan", "inf", "diverged", "method", "k-order"],
)
def test_check_rejects_an_altered_record(good_csv, alter):
    errors, _ = _check(alter(good_csv))
    assert errors


def test_golden_check_tolerance(good_csv):
    _, finals = _check(good_csv)
    entry = {"finals": finals}
    tol = check.load_golden()["tolerance"]
    # a last-bit change passes; a change in the sixth digit does not
    nudged = {k: [v * (1 + 3e-16) for v in vals] for k, vals in finals.items()}
    assert check.check_golden(nudged, entry, tol) == []
    key = next(iter(finals))
    moved = dict(finals)
    moved[key] = [finals[key][0] * (1 + 1e-4) + 1e-9] + finals[key][1:]
    assert check.check_golden(moved, entry, tol)
    missing = dict(finals)
    del missing[key]
    assert check.check_golden(missing, entry, tol)


def test_golden_values_are_finite():
    golden = check.load_golden()
    assert set(golden["workloads"]) == {"desk", "midscale", "paper_io"}
    for entry in golden["workloads"].values():
        assert all(math.isfinite(v) for vals in entry["finals"].values() for v in vals)


def test_runner_refuses_without_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

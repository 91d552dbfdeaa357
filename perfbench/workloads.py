"""Workload definitions for the pdsg benchmark.

Each workload is one experiment grid (pdsg plus mirror-prox over several run
seeds) on one QCQP instance, run single-process with the library's default
``workers``.  The workload seed chooses the run seeds and, for ``midscale``,
the instance; the same seed always gives the same inputs.

This module imports nothing from the library, so the parent process can plan
runs (and refuse to start) without it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
REF_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    N: int
    m: int
    epochs: int  # one measurement tick per epoch
    n_run_seeds: int
    schedule: str
    # builds per child process; setup_s is the median over all of them
    setup_reps: int
    # expected peak RSS of one child, for the memory guard
    peak_mb: int
    from_file: bool = False


WORKLOADS = {
    # the ROADMAP desk experiment on the acceptance instance (seed 13, whose
    # optimum has active constraints); the instance stays fixed because its
    # reference solve costs 0.01-0.8 s depending on the instance seed
    "desk": Workload("desk", 20, 15, 200, 200, epochs=50, n_run_seeds=5,
                     schedule="fixed_horizon", setup_reps=10, peak_mb=150),
    # instance generated from the workload seed; every seed tried has an
    # interior optimum and a 37-iteration reference solve
    "midscale": Workload("midscale", 100, 95, 1000, 1000, epochs=5, n_run_seeds=2,
                         schedule="fixed_horizon", setup_reps=1, peak_mb=700),
    # one 470 MB instance file, prepared once per checkout with a warm
    # reference cache beside it
    "paper_io": Workload("paper_io", 100, 95, 3000, 3000, epochs=2, n_run_seeds=2,
                         schedule="anytime", setup_reps=2, peak_mb=1500, from_file=True),
}

DESK_INSTANCE_SEED = 13
PAPER_IO_INSTANCE_SEED = 1
# free memory kept on top of a workload's expected peak before it may start
MEMORY_HEADROOM_MB = 1024

METHODS = ("pdsg", "mirror_prox")


def instance_seed(w: Workload, seed: int) -> int:
    if w.name == "desk":
        return DESK_INSTANCE_SEED
    if w.name == "paper_io":
        return PAPER_IO_INSTANCE_SEED
    return seed


def run_seeds(w: Workload, seed: int) -> tuple:
    return tuple(range(w.n_run_seeds * seed, w.n_run_seeds * (seed + 1)))


def data_dir(root) -> str:
    """Build outputs of the benchmark inside the checkout (git-ignored)."""
    return os.path.join(root, ".bench_build", "perfbench")


def instance_path(root, w: Workload) -> str:
    return os.path.join(
        data_dir(root), f"{w.name}-n{w.n}-p{w.p}-N{w.N}-m{w.m}-s{PAPER_IO_INSTANCE_SEED}.bin"
    )


def prep_path(root, w: Workload) -> str:
    """Marker written last by the preparation step; holds the step size."""
    return instance_path(root, w) + ".prep.json"


def read_prep(root, w: Workload):
    """The preparation record, or None when the prepared files are incomplete."""
    inst = instance_path(root, w)
    if not (os.path.exists(inst) and os.path.exists(inst + ".ref.json")):
        return None
    try:
        with open(prep_path(root, w)) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def config_kwargs(w: Workload, seed: int, root, alpha: float) -> dict:
    """Keyword arguments of ``bench.ExperimentConfig`` for this workload."""
    kw = dict(
        family="qcqp",
        n=w.n,
        p=w.p,
        N=w.N,
        m=w.m,
        instance_seed=instance_seed(w, seed),
        methods=METHODS,
        schedule=w.schedule,
        alpha=alpha,
        rho=alpha,
        epochs=w.epochs,
        cadence=1.0,
        seeds=run_seeds(w, seed),
        ref_tol=REF_TOL,
    )
    if w.from_file:
        kw["instance_file"] = instance_path(root, w)
    return kw


def instance_bytes(w: Workload) -> int:
    """Size of the dense float64 arrays of the instance (computed, not measured)."""
    floats = w.N * w.p * w.n + w.N * w.p + w.m * w.n * w.n + w.m * w.n + w.m + 2 * w.n
    return 8 * floats

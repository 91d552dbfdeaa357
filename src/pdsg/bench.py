"""Experiment harness: instance prep, reference caching, multi-seed runs, CSV.

A run grid is (method x seed) over one immutable instance; the objective
error column is measured against the deterministic reference solution, which
is solved once per instance and cached (in memory, and beside the instance
file when there is one).  CSV output is byte-deterministic: fixed header,
fixed row order (method, seed, k, point), floats at 17 significant digits.
"""

from __future__ import annotations

import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines, metrics, problems, solver
from .errors import ConfigError, DivergenceError

CSV_HEADER = "method,seed,k,epoch,point,obj_err,infeas,z_norm"
METHODS = ("pdsg", "mirror_prox", "reference")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: problem, solver, measurement, output."""

    family: str = "qcqp"
    n: int = 20
    p: int = 15
    N: int = 200
    m: int = 200
    second_stage_dim: int = 1
    instance_seed: int = 0
    instance_file: str | None = None

    methods: tuple = ("pdsg",)
    schedule: str = "fixed_horizon"
    alpha: float = 1.0
    rho: float = 1.0
    mu: float | None = None
    # mirror-prox has its own step theory; its constants default to 1
    mp_alpha: float = 1.0
    mp_rho: float = 1.0
    mp_beta: float | None = None
    mp_zmax: float | None = None

    epochs: int = 50
    cadence: float = 1.0
    seeds: tuple = (0,)

    out_dir: str = "."
    csv_name: str = "runs.csv"
    force: bool = False
    workers: int = 1
    ref_tol: float = 1e-9

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one run seed is required")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {METHODS}")


def build_instance(cfg: ExperimentConfig) -> problems.QuadraticInstance:
    """Load the configured instance file or generate the configured family."""
    if cfg.instance_file:
        return problems.load_instance(cfg.instance_file)
    if cfg.family == "qcqp":
        return problems.random_qcqp(cfg.n, cfg.p, cfg.N, cfg.m, cfg.instance_seed)
    if cfg.family == "scenario_lp":
        return problems.random_scenario_lp(
            cfg.n, cfg.m, cfg.second_stage_dim, cfg.instance_seed
        )
    raise ConfigError(f"unknown problem family {cfg.family!r}")


_REF_CACHE: dict = {}


def reference_for(inst, tol=1e-9, cache_path=None) -> baselines.ReferenceSolution:
    """Reference solution for the instance, memoized by content hash.

    With ``cache_path`` the solution is also persisted as JSON next to the
    instance file, written atomically, and reused by later invocations when
    the hash and tolerance match.
    """
    digest = problems.instance_digest(inst)
    key = (digest, float(tol))
    if key in _REF_CACHE:
        return _REF_CACHE[key]

    if cache_path and os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                payload = json.load(fh)
            if payload.get("digest") == digest and payload.get("tol") == tol:
                ref = baselines.ReferenceSolution(
                    x=np.asarray(payload["x"]),
                    z=np.asarray(payload["z"]),
                    f0=payload["f0"],
                    converged=payload["converged"],
                    iterations=payload["iterations"],
                    infeas=payload["infeas"],
                    step_norm=payload["step_norm"],
                )
                _REF_CACHE[key] = ref
                return ref
        except (ValueError, KeyError, OSError):
            pass  # stale or unreadable cache; recompute

    ref = baselines.full_batch_reference(inst, tol=tol)
    _REF_CACHE[key] = ref
    if cache_path:
        payload = {
            "digest": digest,
            "tol": tol,
            "x": ref.x.tolist(),
            "z": ref.z.tolist(),
            "f0": ref.f0,
            "converged": ref.converged,
            "iterations": ref.iterations,
            "infeas": ref.infeas,
            "step_norm": ref.step_norm,
        }
        # write beside the target and rename, so readers never see a partial file
        tmp = f"{cache_path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, cache_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ref


def build_schedule(cfg: ExperimentConfig, K, constants) -> solver.ParamSchedule:
    mu = cfg.mu if cfg.mu is not None else constants.mu
    if cfg.schedule == "fixed_horizon":
        return solver.fixed_horizon(cfg.alpha, cfg.rho, K)
    if cfg.schedule == "anytime":
        return solver.anytime(cfg.alpha, cfg.rho)
    if cfg.schedule == "strongly_convex":
        return solver.strongly_convex(cfg.alpha, cfg.rho, K, mu)
    raise ConfigError(f"unknown schedule kind {cfg.schedule!r}")


def run_one(method, inst, cfg: ExperimentConfig, K, seed, ref, cadence_steps):
    """One (method, seed) run; divergence yields a partial record, not a raise."""
    if method == "pdsg":
        descriptor = f"{cfg.schedule}(alpha={cfg.alpha:g}, rho={cfg.rho:g})"
    elif method == "mirror_prox":
        descriptor = f"mirror_prox(alpha={cfg.mp_alpha:g}, rho={cfg.mp_rho:g})"
    else:
        descriptor = "reference"
    meta = {
        "method": method,
        "seed": seed,
        "schedule": descriptor,
        "instance": f"{cfg.family} n={inst.n} m={inst.m} seed={cfg.instance_seed}",
    }
    recorder = metrics.Recorder(inst, ref.f0, meta=meta)
    try:
        if method == "pdsg":
            constants = certified_constants(inst)
            sched = build_schedule(cfg, K, constants)
            solver.run(inst, sched, K, seed, recorder=recorder, cadence=cadence_steps)
        elif method == "mirror_prox":
            zmax = cfg.mp_zmax
            if zmax is None:
                zmax = baselines.zmax_from_reference(ref.z)
            mp = baselines.MirrorProxConfig(
                z_max=zmax, alpha=cfg.mp_alpha, rho=cfg.mp_rho, beta=cfg.mp_beta
            )
            baselines.mirror_prox_run(
                inst, mp, K, seed, recorder=recorder, cadence=cadence_steps
            )
        elif method == "reference":
            out = baselines.full_batch_reference(inst, K=K, tol=cfg.ref_tol)
            recorder.record.rows.append(
                metrics.RunRow(
                    k=out.iterations,
                    epoch=out.iterations / inst.m,
                    point="last",
                    obj_err=metrics.objective_error(inst, out.x, ref.f0),
                    infeas=metrics.infeasibility(inst, out.x),
                    z_norm=float(np.linalg.norm(out.z)),
                )
            )
        else:
            raise ConfigError(f"unknown method {method!r}")
    except DivergenceError as exc:
        k = exc.iteration or 0
        recorder.record.rows.append(
            metrics.RunRow(
                k=k,
                epoch=k / inst.m,
                point=metrics.DIVERGED_TAG,
                obj_err=math.nan,
                infeas=math.nan,
                z_norm=math.nan,
            )
        )
        recorder.record.meta["diverged"] = True
    return recorder.record


_CONSTANTS_CACHE: dict = {}


def certified_constants(inst) -> problems.TheoryConstants:
    digest = problems.instance_digest(inst)
    if digest not in _CONSTANTS_CACHE:
        _CONSTANTS_CACHE[digest] = problems.certify_constants(inst)
    return _CONSTANTS_CACHE[digest]


def run_experiment(cfg: ExperimentConfig, inst=None):
    """Run the full (method x seed) grid; returns (records, reference, report).

    The schedule is validated against the instance's certified constants
    before anything runs; an invalid schedule raises ConfigError unless
    ``cfg.force`` is set.
    """
    if inst is None:
        inst = build_instance(cfg)
    K = cfg.epochs * inst.m
    constants = certified_constants(inst)

    report = None
    if "pdsg" in cfg.methods:
        sched = build_schedule(cfg, K, constants)
        mu = cfg.mu if cfg.mu is not None else constants.mu
        report = solver.validate_schedule(sched, inst.m, constants.G, K, mu=mu)
        if not report.ok and not cfg.force:
            raise ConfigError(
                "schedule fails validation (pass force=True to run anyway):\n" + str(report)
            )

    cache_path = cfg.instance_file + ".ref.json" if cfg.instance_file else None
    ref = reference_for(inst, tol=cfg.ref_tol, cache_path=cache_path)

    cadence_steps = max(1, int(round(cfg.cadence * inst.m)))
    grid = [(method, seed) for method in cfg.methods for seed in cfg.seeds]

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(
                pool.map(
                    lambda ms: run_one(ms[0], inst, cfg, K, ms[1], ref, cadence_steps),
                    grid,
                )
            )
    else:
        records = [run_one(method, inst, cfg, K, seed, ref, cadence_steps) for method, seed in grid]
    return records, ref, report


def _fmt(v) -> str:
    return format(v, ".17g")


def csv_text(records) -> str:
    """Render records as the stable CSV schema (one string, LF line ends)."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for rec in records:
        method = rec.meta.get("method", "?")
        seed = rec.meta.get("seed", -1)
        for row in rec.rows:
            buf.write(
                f"{method},{seed},{row.k},{_fmt(row.epoch)},{row.point},"
                f"{_fmt(row.obj_err)},{_fmt(row.infeas)},{_fmt(row.z_norm)}\n"
            )
    return buf.getvalue()


def write_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(records))


def summarize(records, point="ergodic_plain"):
    """Per-method means of the final obj_err and infeas across seeds."""
    finals: dict = {}
    for rec in records:
        method = rec.meta.get("method", "?")
        last = rec.final(point) or rec.final("last")
        if last is None:
            continue
        finals.setdefault(method, []).append((last.obj_err, last.infeas))
    out = []
    for method, vals in finals.items():
        arr = np.asarray(vals)
        out.append(
            {
                "method": method,
                "point": point,
                "mean_final_obj_err": float(arr[:, 0].mean()),
                "mean_final_infeas": float(arr[:, 1].mean()),
                "seeds": len(vals),
            }
        )
    return out


def summary_text(summary_rows) -> str:
    lines = [f"{'method':<12} {'point':<17} {'mean obj_err':>14} {'mean infeas':>14}"]
    for row in summary_rows:
        lines.append(
            f"{row['method']:<12} {row['point']:<17} "
            f"{row['mean_final_obj_err']:>14.6g} {row['mean_final_infeas']:>14.6g}"
        )
    return "\n".join(lines)

"""Experiment harness: instance prep, reference caching, multi-seed runs, CSV.

A run grid is (method x seed) over one immutable instance; the objective
error column is measured against the deterministic reference solution, which
is solved once per experiment and, when the instance comes from a file,
cached beside that file.  CSV output is byte-deterministic: fixed header,
fixed row order (method, seed, k, point), floats at 17 significant digits.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, metrics, problems, solver
from .errors import ConfigError, DivergenceError

CSV_HEADER = "method,seed,k,epoch,point,obj_err,infeas,z_norm"
METHODS = ("pdsg", "mirror_prox", "reference")
# format of the reference cache payload; raised whenever the reference's
# numerics or the payload's fields change, so a cached f0* and a fresh one
# never meet in one CSV (2: objective from cached quadratic statistics;
# 3: the payload carried those statistics; 4: they moved to the instance file)
REF_FORMAT = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: problem, solver, measurement (and CLI defaults)."""

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
    mp_zmax: float | None = None

    epochs: int = 50
    cadence: float = 1.0
    seeds: tuple = (0,)

    force: bool = False
    ref_tol: float = 1e-9

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one run seed is required")
        for name in ("cadence", "ref_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {METHODS}")
        for name in ("methods", "seeds"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} repeat {repeated}; each runs once")


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


def _finite(value, shape):
    """A finite float (shape None) or a finite float64 array of ``shape``
    decoded from JSON; ValueError otherwise."""
    if shape is None:
        if isinstance(value, float) and math.isfinite(value):
            return value
    elif isinstance(value, list):
        arr = np.asarray(value)
        if arr.dtype == np.float64 and arr.shape == shape and np.isfinite(arr).all():
            return arr
    raise ValueError("cached value of the wrong type, shape or finiteness")


def _read_cache(inst, key, cache_path):
    """The reference the payload at ``cache_path`` holds for ``key``, or None.

    A hit needs the key to match, x and z to be finite float arrays of
    shapes (n,) and (m,), f0 to be a finite float, ``converged`` a bool,
    ``iterations`` an int (not a bool) >= 0, and ``infeas`` and
    ``step_norm`` finite floats >= 0.
    """
    try:
        with open(cache_path) as fh:
            payload = json.load(fh)
        if any(payload.get(k) != v for k, v in key.items()):
            return None
        values = {f.name: payload[f.name] for f in fields(baselines.ReferenceSolution)}
        values.update(x=_finite(values["x"], (inst.n,)), z=_finite(values["z"], (inst.m,)),
                      f0=_finite(values["f0"], None))
        if not (isinstance(values["converged"], bool)
                and type(values["iterations"]) is int and values["iterations"] >= 0
                and _finite(values["infeas"], None) >= 0.0
                and _finite(values["step_norm"], None) >= 0.0):
            return None
    except (ValueError, KeyError, TypeError, AttributeError, OSError):
        return None  # stale or unreadable
    return baselines.ReferenceSolution(**values)


def reference_for(inst, tol=1e-9, cache_path=None) -> baselines.ReferenceSolution:
    """Reference solution for the instance.

    With ``cache_path`` the solution is also persisted as JSON next to the
    instance file, by a new file renamed over the old (``problems.replacing``),
    and reused by later invocations when the payload format, the content hash
    and the tolerance match and every value passes its check
    (``_read_cache``); any other payload is stale, and is recomputed and
    overwritten.  The content hash is ``problems.instance_digest``: an
    instance saved or loaded carries it from its file's header, so a warm
    cache hashes nothing.  A payload edited after saving keeps its header's
    digest, and so the old reference.
    """
    # the digest is part of the key; without a cache file nothing reads it
    digest = problems.instance_digest(inst) if cache_path else None
    key = {"format": REF_FORMAT, "digest": digest, "tol": tol}
    ref = _read_cache(inst, key, cache_path) if cache_path else None
    if ref is not None:
        return ref

    ref = baselines.full_batch_reference(inst, tol=tol)
    if cache_path:
        payload = dict(key)
        for f in fields(baselines.ReferenceSolution):
            value = getattr(ref, f.name)
            payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        with problems.replacing(cache_path, "w") as fh:
            json.dump(payload, fh)
    return ref


def build_schedule(cfg: ExperimentConfig, K, constants) -> solver.ParamSchedule:
    mu = cfg.mu if cfg.mu is not None else constants.mu
    return solver.ParamSchedule(cfg.schedule, cfg.alpha, cfg.rho, K=K, mu=mu)


def _records(runs, inst, cfg: ExperimentConfig, K, ref, cadence_steps, sched=None,
             reference_solve=None):
    """The records of the (method, seed) ``runs``, in their order.

    The pdsg and mirror-prox runs go through one ``solver._iterate``, and
    each tick of all running runs is measured by one ``metrics.record_ticks``
    call.  pdsg runs on ``sched``, built from the certified constants when
    not given.  A loop record's ``wall_clock`` is the loop's, as its runs
    share every iteration.  Each ``reference`` run records
    ``reference_solve``, the reference method's solve capped at the run
    budget K, which does not depend on the seed and is solved here when not
    given.  A run that diverges, in the loop or in that solve, ends its
    record with a partial ``DIVERGED`` row.
    """
    recorders = [metrics.Recorder(inst, ref.f0, meta={"method": method, "seed": seed})
                 for method, seed in runs]
    loop = [r for r, (method, _) in enumerate(runs) if method != "reference"]
    zmax = cfg.mp_zmax if cfg.mp_zmax is not None else baselines.zmax_from_reference(ref.z)
    mp = baselines.MirrorProxConfig(z_max=zmax)
    steps = {"mirror_prox": (*mp.schedule(K).sequences(K), mp.z_max)}
    if any(method == "pdsg" for method, _ in runs):
        if sched is None:
            sched = build_schedule(cfg, K, problems.certify_constants(inst, samples=0))
        steps["pdsg"] = (*sched.sequences(K), None)
    states = [solver.init_state(inst, runs[r][1]) for r in loop]
    rows = [(state, *steps[runs[r][0]]) for state, r in zip(states, loop)]

    def on_tick(live):
        metrics.record_ticks([recorders[loop[i]] for i in live], [states[i] for i in live])

    errors = dict(zip(loop, solver._iterate(rows, inst, K, on_tick=on_tick,
                                            cadence=cadence_steps)))
    if len(loop) < len(runs) and reference_solve is None:
        try:
            reference_solve = baselines.full_batch_reference(inst, K=K, tol=cfg.ref_tol)
        except DivergenceError as exc:
            reference_solve = exc  # every seed records it
    for r, recorder in enumerate(recorders):
        # a loop run's error (None if it did not diverge), or the reference solve
        out = errors.get(r, reference_solve)
        if isinstance(out, DivergenceError):
            k = out.iteration or 0
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
        elif out is not None:
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
    return [recorder.record for recorder in recorders]


def run_one(method, inst, cfg: ExperimentConfig, K, seed, ref, cadence_steps,
            reference_solve=None):
    """One (method, seed) run; divergence yields a partial record, not a raise.

    ``reference_solve`` (the reference method's solve capped at K, or its
    ``DivergenceError``) is shared by all seeds of an experiment; when not
    given it is computed for this run.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    return _records([(method, seed)], inst, cfg, K, ref, cadence_steps,
                    reference_solve=reference_solve)[0]


def run_experiment(cfg: ExperimentConfig, inst=None):
    """Run the full (method x seed) grid; returns (records, reference, report).

    What the runs share is computed here once: the pdsg schedule, validated
    against the instance's certified constants before anything runs (an
    invalid schedule raises ConfigError unless ``cfg.force`` is set), and the
    reference solution, which is also the reference method's solve when it
    converged within the run budget K.  Every record comes from one
    ``_records`` call.
    """
    if inst is None:
        inst = build_instance(cfg)
    K = cfg.epochs * inst.m

    sched = report = None
    if "pdsg" in cfg.methods:
        # the schedule reads G and mu only: no sigma estimate, whose two passes read all of H
        constants = problems.certify_constants(inst, samples=0)
        sched = build_schedule(cfg, K, constants)
        report = solver.validate_schedule(sched, inst.m, constants.G, K)
        if not report.ok and not cfg.force:
            raise ConfigError(
                "schedule fails validation (pass force=True to run anyway):\n" + str(report)
            )

    cache_path = cfg.instance_file + ".ref.json" if cfg.instance_file else None
    ref = reference_for(inst, tol=cfg.ref_tol, cache_path=cache_path)
    # the solve is deterministic: one that converged within K is the capped solve
    reference_solve = ref if ref.converged and ref.iterations <= K else None
    cadence_steps = max(1, int(round(cfg.cadence * inst.m)))
    runs = [(method, seed) for method in cfg.methods for seed in cfg.seeds]
    records = _records(runs, inst, cfg, K, ref, cadence_steps, sched, reference_solve)
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

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
import os
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, metrics, problems, solver
from .errors import ConfigError, DivergenceError

CSV_HEADER = "method,seed,k,epoch,point,obj_err,infeas,z_norm"
METHODS = ("pdsg", "mirror_prox", "reference")
# format of the reference cache payload; raised whenever the reference's
# numerics change, so a cached f0* and a fresh one never meet in one CSV
# (2: objective from cached quadratic statistics)
REF_FORMAT = 2


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


def reference_for(inst, tol=1e-9, cache_path=None) -> baselines.ReferenceSolution:
    """Reference solution for the instance.

    With ``cache_path`` the solution is also persisted as JSON next to the
    instance file, written atomically, and reused by later invocations when
    the payload format, the content hash and the tolerance match; any other
    payload is stale, and is recomputed and overwritten.  The content hash is
    ``problems.instance_digest``: an instance saved or loaded as a version-2
    file carries it from its header, so a warm cache hashes nothing.  A
    payload edited after saving keeps its header's digest, and so the old
    reference.
    """
    # the digest is part of the key; without a cache file nothing reads it
    digest = problems.instance_digest(inst) if cache_path else None
    key = {"format": REF_FORMAT, "digest": digest, "tol": tol}
    names = [f.name for f in fields(baselines.ReferenceSolution)]
    if cache_path and os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                payload = json.load(fh)
            if all(payload.get(k) == v for k, v in key.items()):
                values = {name: payload[name] for name in names}
                # the arrays are stored as JSON lists
                return baselines.ReferenceSolution(
                    **{k: np.asarray(v) if isinstance(v, list) else v for k, v in values.items()}
                )
        except (ValueError, KeyError, AttributeError, OSError):
            pass  # stale or unreadable cache; recompute

    ref = baselines.full_batch_reference(inst, tol=tol)
    if cache_path:
        payload = dict(key)
        for name in names:
            value = getattr(ref, name)
            payload[name] = value.tolist() if isinstance(value, np.ndarray) else value
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
    return solver.ParamSchedule(cfg.schedule, cfg.alpha, cfg.rho, K=K, mu=mu)


def _solve_reference_method(inst, K, tol):
    """The ``reference`` method's own solve, capped at the run budget K.

    It does not depend on the run seed.  A divergence is returned, not
    raised, so that every seed can record it.
    """
    try:
        return baselines.full_batch_reference(inst, K=K, tol=tol)
    except DivergenceError as exc:
        return exc


def _recorder(method, inst, seed, ref) -> metrics.Recorder:
    return metrics.Recorder(inst, ref.f0, meta={"method": method, "seed": seed})


def _log_divergence(record, exc: DivergenceError, m) -> None:
    """End a record with the partial ``DIVERGED`` row of its divergence."""
    k = exc.iteration or 0
    record.rows.append(
        metrics.RunRow(
            k=k,
            epoch=k / m,
            point=metrics.DIVERGED_TAG,
            obj_err=math.nan,
            infeas=math.nan,
            z_norm=math.nan,
        )
    )
    record.meta["diverged"] = True


def _run_loops(runs, inst, cfg: ExperimentConfig, K, ref, sched, cadence_steps):
    """The (method, seed) pdsg and mirror-prox runs, through one ``solver._iterate``.

    Returns their records in the order of ``runs``.  Each tick of all
    running runs is measured by one ``metrics.record_ticks`` call, and a
    run that diverges ends its record with a partial ``DIVERGED`` row.  A
    record's ``wall_clock`` is the loop's, as its runs share every iteration.
    """
    zmax = cfg.mp_zmax if cfg.mp_zmax is not None else baselines.zmax_from_reference(ref.z)
    mp = baselines.MirrorProxConfig(z_max=zmax)
    steps = {"mirror_prox": (*mp.schedule(K).sequences(K), mp.z_max)}
    if sched is not None:
        steps["pdsg"] = (*sched.sequences(K), None)
    recorders = [_recorder(method, inst, seed, ref) for method, seed in runs]
    states = [solver.init_state(inst, seed) for _, seed in runs]
    rows = [(state, *steps[method]) for state, (method, _) in zip(states, runs)]

    def on_tick(live):
        metrics.record_ticks([recorders[r] for r in live], [states[r] for r in live])

    errors = solver._iterate(rows, inst, K, on_tick=on_tick, cadence=cadence_steps)
    for recorder, exc in zip(recorders, errors):
        if exc is not None:
            _log_divergence(recorder.record, exc, inst.m)
    return [recorder.record for recorder in recorders]


def run_one(method, inst, cfg: ExperimentConfig, K, seed, ref, cadence_steps,
            reference_solve=None):
    """One (method, seed) run; divergence yields a partial record, not a raise.

    ``reference_solve`` (the reference method's output of
    ``_solve_reference_method``) is shared by all seeds of an experiment;
    when not given it is computed for this run.
    """
    if method in ("pdsg", "mirror_prox"):
        sched = None
        if method == "pdsg":
            sched = build_schedule(cfg, K, problems.certify_constants(inst, samples=0))
        return _run_loops([(method, seed)], inst, cfg, K, ref, sched, cadence_steps)[0]
    if method != "reference":
        raise ConfigError(f"unknown method {method!r}")
    recorder = _recorder(method, inst, seed, ref)
    out = reference_solve
    if out is None:
        out = _solve_reference_method(inst, K, cfg.ref_tol)
    if isinstance(out, DivergenceError):
        _log_divergence(recorder.record, out, inst.m)
    else:
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
    return recorder.record


def run_experiment(cfg: ExperimentConfig, inst=None):
    """Run the full (method x seed) grid; returns (records, reference, report).

    What the runs share is computed here once: the pdsg schedule, validated
    against the instance's certified constants before anything runs (an
    invalid schedule raises ConfigError unless ``cfg.force`` is set), the
    reference solution, and the reference method's solve, which is that
    solution when it converged within the run budget K.  The pdsg and
    mirror-prox runs go through one run loop together.
    """
    if inst is None:
        inst = build_instance(cfg)
    K = cfg.epochs * inst.m

    sched = report = None
    if "pdsg" in cfg.methods:
        # the schedule reads G and mu only: no sigma estimate, whose samples read H twice
        constants = problems.certify_constants(inst, samples=0)
        sched = build_schedule(cfg, K, constants)
        report = solver.validate_schedule(sched, inst.m, constants.G, K)
        if not report.ok and not cfg.force:
            raise ConfigError(
                "schedule fails validation (pass force=True to run anyway):\n" + str(report)
            )

    cache_path = cfg.instance_file + ".ref.json" if cfg.instance_file else None
    ref = reference_for(inst, tol=cfg.ref_tol, cache_path=cache_path)
    reference_solve = None
    if "reference" in cfg.methods:
        # the solve is deterministic: one that converged within K is the capped solve
        converged = ref.converged and ref.iterations <= K
        reference_solve = ref if converged else _solve_reference_method(inst, K, cfg.ref_tol)

    cadence_steps = max(1, int(round(cfg.cadence * inst.m)))
    runs = [(method, seed) for method in cfg.methods for seed in cfg.seeds]
    loops = iter(_run_loops([run for run in runs if run[0] != "reference"],
                            inst, cfg, K, ref, sched, cadence_steps))
    records = [
        run_one(method, inst, cfg, K, seed, ref, cadence_steps,
                reference_solve=reference_solve) if method == "reference" else next(loops)
        for method, seed in runs
    ]
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

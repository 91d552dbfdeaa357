"""Layer tracing from outside the library.

The tracer wraps public functions and methods of each ``pdsg`` module at run
time and restores them afterwards; nothing in the library is edited.  A
function is patched under every name it is bound to in any ``pdsg`` module,
so ``solver.project_box`` and ``baselines.project_box`` are one boundary.
A boundary whose function no longer exists is reported as absent, and the
run goes on without it.

Every boundary counts its calls and accumulates inclusive and self time (the
inclusive time minus the time of wrapped calls made inside it).  Cold
boundaries also keep one span per call, (id, name, start, end, parent id);
hot ones, called once or more per iteration, only aggregate.  Calls and time
are also split by the nearest enclosing *context* boundary (a run loop, a
Recorder tick, a reference solve), which is how per-iteration counts are
attributed.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _iterations(stat, result):
    state = result[0]
    stat.extra["iterations"] += state.k - 1


def _reference_iterations(stat, result):
    stat.extra["iterations"] += result.iterations


def _rss_hwm(stat, result):
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stat.extra["rss_hwm_mb"] = max(stat.extra["rss_hwm_mb"], mb)


@dataclass(frozen=True)
class Boundary:
    name: str
    module: str
    attr: str  # "function" or "Class.method"
    hot: bool = False
    context: bool = False
    after: object = None  # after(stat, result), on normal return only


BOUNDARIES = (
    Boundary("solver.run", "pdsg.solver", "run", context=True, after=_iterations),
    Boundary("solver.steps", "pdsg.solver", "ParamSchedule.steps", hot=True),
    Boundary("solver.pdsg_step", "pdsg.solver", "pdsg_step", hot=True),
    Boundary("solver.project_box", "pdsg.solver", "project_box", hot=True),
    Boundary("auglag.primal_subgradient", "pdsg.auglag", "primal_subgradient", hot=True),
    Boundary("problems.constraint", "pdsg.problems", "QuadraticInstance.constraint", hot=True),
    Boundary("problems.constraint_value", "pdsg.problems",
             "QuadraticInstance.constraint_value", hot=True),
    Boundary("problems.stoch_objective_grad", "pdsg.problems",
             "QuadraticInstance.stoch_objective_grad", hot=True),
    Boundary("problems.constraint_values", "pdsg.problems",
             "QuadraticInstance.constraint_values", hot=True),
    Boundary("problems.instance_digest", "pdsg.problems", "instance_digest"),
    Boundary("problems.certify_constants", "pdsg.problems", "certify_constants"),
    Boundary("problems.load_instance", "pdsg.problems", "load_instance", after=_rss_hwm),
    Boundary("problems.random_qcqp", "pdsg.problems", "random_qcqp"),
    Boundary("baselines.mirror_prox_run", "pdsg.baselines", "mirror_prox_run",
             context=True, after=_iterations),
    Boundary("baselines.mirror_prox_step", "pdsg.baselines", "mirror_prox_step", hot=True),
    Boundary("baselines.full_batch_reference", "pdsg.baselines", "full_batch_reference",
             context=True, after=_reference_iterations),
    Boundary("metrics.Recorder", "pdsg.metrics", "Recorder.__call__", context=True),
    Boundary("bench.reference_for", "pdsg.bench", "reference_for", context=True),
    Boundary("bench.run_experiment", "pdsg.bench", "run_experiment", context=True),
    Boundary("bench.csv_text", "pdsg.bench", "csv_text"),
    Boundary("theory.rate_envelope", "pdsg.theory", "rate_envelope"),
)

# bytes fed to hashlib from inside the library, counted through a stand-in
# for the ``hashlib`` module wherever a pdsg module holds it
HASHLIB_BOUNDARY = "problems.bytes_hashed"


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    ctx_calls: Counter = field(default_factory=Counter)
    ctx_time: Counter = field(default_factory=Counter)
    extra: Counter = field(default_factory=Counter)


def _library_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "pdsg" or name.startswith("pdsg."))
    ]


class _CountingHash:
    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def update(self, data):
        self._tracer._count_hashed(data)
        self._inner.update(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountingHashlib:
    """Stand-in for the hashlib module that counts the bytes hashed."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(hashlib, name)
        if name != "new" and name not in hashlib.algorithms_available:
            return attr
        tracer = self._tracer

        def construct(*args, **kwargs):
            data = args[1:2] if name == "new" else args[:1]
            data = data or [kwargs.get("data", kwargs.get("string", b""))]
            h = attr(*args, **kwargs)
            tracer._count_hashed(data[0])
            return _CountingHash(h, tracer)

        return construct


class Tracer:
    """Installs wrappers at the layer boundaries and aggregates what they see."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.stats = {b.name: Stat() for b in self.boundaries}
        self.spans = []
        self.absent = []
        self.bytes_hashed = 0
        self.paused = False
        self._frames = []  # [child time, span id] per active wrapped call
        self._ctx = []
        self._patches = []  # (owner, attribute, had own value, original)

    # -- install / restore --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        for b in self.boundaries:
            owner_name, _, fname = b.attr.rpartition(".")
            mod = sys.modules.get(b.module)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if not callable(orig):
                self.absent.append(b.name)
                continue
            wrapper = self._wrap(b, self.stats[b.name], orig)
            if owner_name:
                self._patch(owner, fname, wrapper)
            else:
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        self._patch(m, attr, wrapper)
        proxy = _CountingHashlib(self)
        holders = [(m, a) for m in modules for a, v in vars(m).items() if v is hashlib]
        if not holders:
            self.absent.append(HASHLIB_BOUNDARY)
        for m, attr in holders:
            self._patch(m, attr, proxy)

    def restore(self):
        while self._patches:
            owner, attr, had_own, orig = self._patches.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def pause(self):
        """Calls made inside this block go through unrecorded."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def _patch(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _count_hashed(self, data):
        if not self.paused:
            self.bytes_hashed += memoryview(data).nbytes

    def _wrap(self, b: Boundary, stat: Stat, fn):
        frames, ctx, spans = self._frames, self._ctx, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent_ctx = ctx[-1] if ctx else None
            parent_span = frames[-1][1] if frames else None
            span_id = parent_span
            if not b.hot:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            frames.append(frame)
            if b.context:
                ctx.append(b.name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                if b.context:
                    ctx.pop()
                dt = t1 - t0
                if frames:
                    frames[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                stat.ctx_calls[parent_ctx] += 1
                stat.ctx_time[parent_ctx] += dt
                if not b.hot:
                    spans[span_id] = (span_id, b.name, t0, t1, parent_span)
            if b.after is not None:
                b.after(stat, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def counts(self) -> dict:
        """Call counts per boundary, plus the bytes hashed: deterministic per seed."""
        out = {name: s.calls for name, s in self.stats.items()}
        out[HASHLIB_BOUNDARY] = self.bytes_hashed
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one traced experiment, keyed by metric name."""
        st = self.stats

        def per_call(name, scale, self_time=False):
            s = st[name]
            if not s.calls:
                return 0.0
            return (s.self_time if self_time else s.total) / s.calls * scale

        experiments = max(1, st["bench.run_experiment"].calls)

        def per_experiment(name):
            return st[name].total / experiments

        def loop_us_per_iter(name):
            # the run loop without the Recorder ticks it calls
            s = st[name]
            iters = s.extra["iterations"]
            if not iters:
                return 0.0
            return (s.total - st["metrics.Recorder"].ctx_time[name]) / iters * 1e6

        run_iters = st["solver.run"].extra["iterations"]
        queries = (
            st["problems.constraint"].ctx_calls["solver.run"]
            + st["problems.constraint_value"].ctx_calls["solver.run"]
        )
        reference = st["baselines.full_batch_reference"]
        experiment_time = st["bench.run_experiment"].total
        return {
            "solver.run.us_per_iter": loop_us_per_iter("solver.run"),
            "solver.steps.us": per_call("solver.steps", 1e6),
            "solver.pdsg_step.self_us": per_call("solver.pdsg_step", 1e6, self_time=True),
            "solver.project_box.us": per_call("solver.project_box", 1e6),
            "solver.constraint_queries_per_iter": queries / run_iters if run_iters else 0.0,
            "auglag.primal_subgradient.us": per_call("auglag.primal_subgradient", 1e6),
            "problems.constraint.us": per_call("problems.constraint", 1e6),
            "problems.constraint_value.us": per_call("problems.constraint_value", 1e6),
            "problems.stoch_objective_grad.us": per_call("problems.stoch_objective_grad", 1e6),
            "problems.constraint_values.ms": per_call("problems.constraint_values", 1e3),
            "problems.instance_digest.s": per_experiment("problems.instance_digest"),
            "problems.instance_digest.calls": st["problems.instance_digest"].calls / experiments,
            "problems.bytes_hashed": self.bytes_hashed / experiments,
            "problems.certify_constants.s": per_experiment("problems.certify_constants"),
            "problems.load_instance.s": per_call("problems.load_instance", 1.0),
            "problems.load_instance.rss_hwm_mb": st["problems.load_instance"].extra["rss_hwm_mb"],
            "problems.random_qcqp.s": per_call("problems.random_qcqp", 1.0),
            "baselines.mirror_prox_run.us_per_iter": loop_us_per_iter("baselines.mirror_prox_run"),
            "baselines.mirror_prox_step.self_us": per_call(
                "baselines.mirror_prox_step", 1e6, self_time=True
            ),
            "baselines.full_batch_reference.s": reference.total / experiments,
            "baselines.full_batch_reference.iterations": reference.extra["iterations"] / experiments,
            "baselines.full_batch_reference.calls": reference.calls / experiments,
            "metrics.Recorder.tick_ms": per_call("metrics.Recorder", 1e3),
            "metrics.Recorder.ticks": st["metrics.Recorder"].calls / experiments,
            "metrics.recorder_share": (
                st["metrics.Recorder"].total / experiment_time if experiment_time else 0.0
            ),
            "bench.reference_for.s": per_experiment("bench.reference_for"),
            "bench.reference_cache_hits": (
                st["bench.reference_for"].calls - reference.ctx_calls["bench.reference_for"]
            ) / experiments,
            "bench.run_experiment.self_s": st["bench.run_experiment"].self_time / experiments,
            "bench.csv_text.ms": per_call("bench.csv_text", 1e3),
            "theory.rate_envelope.calls": st["theory.rate_envelope"].calls / experiments,
            "trace.absent_boundaries": float(len(self.absent)),
        }

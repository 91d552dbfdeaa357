"""Run-time measurement: objective error, infeasibility, KKT residuals.

Metrics always use exact full-batch evaluations, independent of the solver's
sampled oracles, and never touch the solver's RNG; measurement cost is kept
off the solver's oracle budget.  A ``Recorder`` is the hook handed to a run:
at each measurement tick it logs the last iterate and both ergodic averages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AccountingError

POINT_TAGS = ("last", "ergodic_plain", "ergodic_weighted")
DIVERGED_TAG = "DIVERGED"


@dataclass(frozen=True)
class RunRow:
    k: int
    epoch: float
    point: str
    obj_err: float
    infeas: float
    z_norm: float


@dataclass
class RunRecord:
    """Time series of measurement rows plus run metadata."""

    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def by_point(self, tag):
        return [r for r in self.rows if r.point == tag]

    def final(self, tag):
        picked = self.by_point(tag)
        return picked[-1] if picked else None


def infeasibility(inst, x) -> float:
    """Mean positive part of the constraint values, (1/m) sum_j [f_j(x)]_+."""
    vals = inst.constraint_values(x)
    return float(np.maximum(vals, 0.0).mean())


def objective_error(inst, x, f0_ref) -> float:
    """Absolute exact-objective gap |f0(x) - f0_ref|."""
    return abs(inst.objective(x) - f0_ref)


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    complementarity: float
    primal_infeas: float
    dual_infeas: float

    def max(self) -> float:
        return max(
            self.stationarity, self.complementarity, self.primal_infeas, self.dual_infeas
        )


def kkt_residual(inst, x, z) -> KktResidual:
    """Four first-order residuals of (x, z) for the box-constrained problem.

    Stationarity is the norm of the Lagrangian gradient
    ``grad f0 + (1/m) sum_j z_j grad f_j`` projected on the box tangent cone
    (components pointing out of an active bound are clipped).
    Complementarity is ``(1/m) sum_j |z_j f_j(x)|``; dual infeasibility is the
    norm of the negative part of z.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    fvals, grads = inst.constraint_values_and_grads(x)
    g = inst.objective_grad(x) + grads.T @ (z / inst.m)

    at_lo = x <= inst.box_lo
    at_hi = x >= inst.box_hi
    r = g.copy()
    r[at_lo] = np.minimum(g[at_lo], 0.0)
    r[at_hi] = np.maximum(g[at_hi], 0.0)

    return KktResidual(
        stationarity=float(np.linalg.norm(r)),
        complementarity=float(np.abs(z * fvals).mean()),
        primal_infeas=float(np.maximum(fvals, 0.0).mean()),
        dual_infeas=float(np.linalg.norm(np.minimum(z, 0.0))),
    )


class Recorder:
    """Measurement hook: logs (last, ergodic_plain, ergodic_weighted) rows.

    The epoch is cross-checked against the run's oracle counters: each
    iteration costs two constraint-function queries, so the counter-based
    epoch must equal k/m exactly; ``AccountingError`` is raised otherwise.
    A tick measures its three points with one ``inst.measure`` call, through
    ``record_ticks``, which measures the ticks of several runs with one call.
    """

    def __init__(self, inst, f0_ref, meta=None):
        self.inst = inst
        self.f0_ref = float(f0_ref)
        self.record = RunRecord(meta=dict(meta or {}))
        self._t0 = time.perf_counter()

    def __call__(self, state):
        record_ticks([self], [state])

    def points(self, state):
        """The tick's three points, stacked (3, n), after the accounting check."""
        k = state.k - 1
        queries = state.n_constr_grad_queries + state.n_constr_val_queries
        if queries != 2 * k:
            raise AccountingError(
                f"{queries} constraint queries after {k} iterations; expected {2 * k}"
            )
        return np.stack((state.x, state.ergodic_plain(), state.ergodic_weighted()))

    def log(self, state, f0, fvals):
        """Append the tick's rows from the measured objective and constraint values."""
        k = state.k - 1
        epoch = k / self.inst.m
        z_norm = float(np.linalg.norm(state.z))
        infeas = np.maximum(fvals, 0.0).mean(axis=1)
        for tag, f, inf in zip(POINT_TAGS, f0, infeas):
            self.record.rows.append(
                RunRow(k=k, epoch=epoch, point=tag, obj_err=abs(float(f) - self.f0_ref),
                       infeas=float(inf), z_norm=z_norm)
            )
        self.record.meta["wall_clock"] = time.perf_counter() - self._t0


def record_ticks(recorders, states):
    """One tick of several runs on one instance: every point in one ``measure`` call.

    A pass over Q then serves all 3R points instead of three.  ``measure``
    may round a point's values differently in a larger stack, within the
    tolerance contract of ``notes/decisions.md``.
    """
    points = [rec.points(state) for rec, state in zip(recorders, states)]
    f0, fvals = recorders[0].inst.measure(np.concatenate(points))
    for r, (rec, state) in enumerate(zip(recorders, states)):
        rec.log(state, f0[3 * r : 3 * r + 3], fvals[3 * r : 3 * r + 3])

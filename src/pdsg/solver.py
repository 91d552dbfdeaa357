"""Primal-dual stochastic gradient solver: schedules, step, and run loop.

One iteration samples a constraint index for the primal update, takes a
projected stochastic subgradient step on the augmented Lagrangian, then
samples an independent second index and updates that single dual coordinate
from the new iterate's constraint value.  Three step-size schedules are
built in; each uses the dual step as the penalty (``beta_k = rho_k``), which
keeps the dual iterate nonnegative.

``pdsg_step`` is the one-step reference form.  Every run, pdsg or
mirror-prox, goes through ``_iterate``, which advances one or several runs,
draws the sample indices in blocks and is bit-for-bit equal to repeated
steps.  A quadratic instance's blocks run on the compiled kernel
(``compiled``, ``_kernel.c``), any other instance's on ``_row_block``.

A run is single-threaded and deterministic given its seed; the compiled
kernel splits a block of several runs over threads, each run on one.  Runs
over the same instance may execute concurrently; nothing here mutates the
instance.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import compiled, metrics
from .auglag import primal_subgradient
from .errors import ConfigError, DimensionError, DivergenceError

SCHEDULE_KINDS = ("fixed_horizon", "anytime", "strongly_convex")

# a dual coordinate above this magnitude counts as divergence
_Z_BLOWUP = 1e12


def product_coef(kind) -> float:
    """c in the kind's product condition alpha*rho < m/(c G^2): 68 for anytime, else 32."""
    return 68.0 if kind == "anytime" else 32.0


@dataclass(frozen=True)
class ParamSchedule:
    """Step-size sequences (alpha_k, rho_k) for one of the three kinds.

    fixed_horizon    alpha_k = alpha/sqrt(K),           rho_k = rho/sqrt(K)
    anytime          alpha_k = alpha/(sqrt(k+1)log(k+1)), rho_k likewise
    strongly_convex  alpha_k = alpha/(k+1),             rho_k = rho/log(K+1)

    The penalty is the dual step, beta_k = rho_k, in all three; ``steps``
    returns it as its third value.  Logs are natural.  ``K`` is required for
    the kinds whose sequences depend on the horizon; ``mu`` is the strong
    convexity modulus and is only used by ``strongly_convex``.
    """

    kind: str
    alpha: float
    rho: float
    K: int | None = None
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not (0 < self.alpha < math.inf and 0 < self.rho < math.inf):  # NaN fails too
            raise ConfigError(
                f"alpha and rho must be positive and finite, got {self.alpha}, {self.rho}"
            )
        if self.kind in ("fixed_horizon", "strongly_convex"):
            if self.K is None or self.K < 1:
                raise ConfigError(f"{self.kind} requires a positive horizon K")
        if self.kind == "strongly_convex" and not self.mu > 0:
            raise ConfigError("strongly_convex requires mu > 0")

    def _at(self, k):
        """(alpha_k, rho_k) at k, a float or an array of k values: the one
        home of each kind's formulas."""
        if self.kind == "fixed_horizon":
            root = math.sqrt(self.K)
            return self.alpha / root, self.rho / root
        if self.kind == "anytime":
            denom = np.sqrt(k + 1.0) * np.log(k + 1.0)
            return self.alpha / denom, self.rho / denom
        return self.alpha / (k + 1.0), self.rho / math.log(self.K + 1.0)

    def steps(self, k):
        """(alpha_k, rho_k, beta_k = rho_k) as floats for one iteration."""
        alpha_k, rho_k = map(float, self._at(float(k)))
        return alpha_k, rho_k, rho_k

    def sequences(self, K):
        """(alpha_k, rho_k) for k = 1..K as read-only float arrays; rho_k is
        also the penalty.

        Element k-1 of each array equals the matching entry of ``steps(k)``:
        both evaluate ``_at``.  A constant sequence is a broadcast view.
        """
        # the fixed-horizon steps do not depend on k
        ks = 1.0 if self.kind == "fixed_horizon" else np.arange(1.0, K + 1.0)
        return tuple(np.broadcast_to(seq, K) for seq in self._at(ks))


def fixed_horizon(alpha, rho, K) -> ParamSchedule:
    return ParamSchedule("fixed_horizon", alpha, rho, K=K)


def anytime(alpha, rho) -> ParamSchedule:
    return ParamSchedule("anytime", alpha, rho)


def strongly_convex(alpha, rho, K, mu) -> ParamSchedule:
    return ParamSchedule("strongly_convex", alpha, rho, K=K, mu=mu)


def _product_limit(m, G, kind) -> float:
    """m/(c G^2), the bound on alpha*rho in the kind's product condition."""
    if not m >= 1:
        raise ConfigError(f"m must be positive, got {m}")
    if not G > 0:
        raise ConfigError(f"G must be positive, got {G}")
    return m / (product_coef(kind) * G * G)


def max_equal_steps(m, G, kind="fixed_horizon") -> float:
    """Largest alpha = rho passing the kind's product condition, times 0.999.

    The factor keeps alpha*rho strictly below the product limit.
    """
    return 0.999 * math.sqrt(_product_limit(m, G, kind))


# -- schedule validation -------------------------------------------------------


@dataclass(frozen=True)
class ScheduleCheck:
    name: str
    passed: bool
    first_violation_k: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class ScheduleReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" (first violation at k={c.first_violation_k})" if c.first_violation_k else ""
            detail = f": {c.detail}" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{extra}{detail}")
        return "\n".join(lines)


def validate_schedule(sched: ParamSchedule, m, G, K, mu=None) -> ScheduleReport:
    """Check the step-size conditions of a schedule over horizon K.

    Verifies, for k = 1..K-1, the chained dual-step inequality
    ``rho_k/alpha_k >= rho_{k+1} (1/alpha_{k+1} - mu)``, plus the kind's
    product condition ``alpha*rho < m/(32 G^2)`` (``m/(68 G^2)`` for anytime)
    and ``alpha >= 1/mu`` for the strongly convex kind.  The penalty is the
    dual step, so ``beta_k >= rho_k`` holds by construction and is not
    checked.  Report-only: only an m, G or K that is not positive raises.
    """
    if not K >= 1:
        raise ConfigError(f"K must be positive, got {K}")
    if mu is None:
        mu = sched.mu
    checks = []

    if K >= 2:
        alpha, rho = sched.sequences(K)
        lhs = rho[:-1] / alpha[:-1]
        rhs = rho[1:] * (1.0 / alpha[1:] - mu)
        slack = 1e-9 * np.maximum(1.0, np.abs(rhs))
        bad = np.nonzero(lhs < rhs - slack)[0]
        checks.append(
            ScheduleCheck(
                "step_ratio_monotone", bad.size == 0, int(bad[0] + 1) if bad.size else None
            )
        )
    else:
        checks.append(ScheduleCheck("step_ratio_monotone", True))

    denom = product_coef(sched.kind)
    limit = _product_limit(m, G, sched.kind)
    prod_ok = sched.alpha * sched.rho < limit
    checks.append(
        ScheduleCheck(
            "alpha_rho_product",
            prod_ok,
            None,
            f"alpha*rho = {sched.alpha * sched.rho:.6g} vs m/({denom:.0f} G^2) = {limit:.6g}",
        )
    )

    if sched.kind == "strongly_convex":
        ok = mu > 0 and sched.alpha >= 1.0 / mu
        checks.append(
            ScheduleCheck(
                "alpha_ge_inv_mu",
                ok,
                None,
                f"alpha = {sched.alpha:.6g} vs 1/mu = {1.0 / mu if mu > 0 else float('inf'):.6g}",
            )
        )

    return ScheduleReport(tuple(checks))


# -- solver state and iteration ------------------------------------------------


@dataclass
class SolverState:
    """Mutable per-run state: iterates, RNG stream, averages, oracle counters."""

    x: np.ndarray
    z: np.ndarray
    rng: np.random.Generator
    k: int = 1
    sum_plain: np.ndarray = None
    sum_weighted: np.ndarray = None
    weight_sum: float = 0.0
    n_obj_queries: int = 0
    n_constr_grad_queries: int = 0
    n_constr_val_queries: int = 0

    def __post_init__(self):
        if self.sum_plain is None:
            self.sum_plain = np.zeros_like(self.x)
        if self.sum_weighted is None:
            self.sum_weighted = np.zeros_like(self.x)

    def ergodic_plain(self):
        """Running mean of the k - 1 post-update iterates so far."""
        if self.k == 1:
            return self.x.copy()
        return self.sum_plain / (self.k - 1)

    def ergodic_weighted(self):
        """Running alpha_k-weighted mean of the post-update iterates."""
        if self.weight_sum == 0.0:
            return self.x.copy()
        return self.sum_weighted / self.weight_sum


def init_state(inst, seed) -> SolverState:
    """Fresh state at the instance's start point with zero duals."""
    return SolverState(
        x=inst.start_point(),
        z=np.zeros(inst.m),
        rng=np.random.default_rng(seed),
    )


def project_box(x, lo, hi):
    """Componentwise clamp of x into [lo, hi]; the nearest box point."""
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if x.shape != lo.shape or x.shape != hi.shape:
        raise DimensionError(
            f"point and bounds differ in shape: {x.shape}, {lo.shape}, {hi.shape}"
        )
    return np.minimum(np.maximum(x, lo), hi)


def pdsg_step(state: SolverState, inst, alpha_k, rho_k, beta_k) -> SolverState:
    """One primal-dual iteration; mutates and returns ``state``.

    Draw order is fixed: constraint index i_k, then the objective sample
    xi_k, then the dual index j_k.  Exactly one stochastic-objective query,
    one constraint value+subgradient query and one constraint value query.
    """
    rng = state.rng
    m = inst.m

    i_k = int(rng.integers(m))
    xi_k = int(rng.integers(inst.N))
    g0 = inst.stoch_objective_grad(xi_k, state.x)
    state.n_obj_queries += 1
    fval, grad = inst.constraint(i_k, state.x)
    state.n_constr_grad_queries += 1

    d = primal_subgradient(g0, fval, grad, state.z[i_k], beta_k)
    x_new = project_box(state.x - alpha_k * d, inst.box_lo, inst.box_hi)

    j_k = int(rng.integers(m))
    fj = inst.constraint_value(j_k, x_new)
    state.n_constr_val_queries += 1

    zj = state.z[j_k]
    zj_new = zj + rho_k * max(-zj / beta_k, fj)
    if rho_k <= beta_k and zj_new < 0.0:
        # exact arithmetic keeps z >= 0 here; repair last-ulp rounding only
        zj_new = 0.0

    if not np.isfinite(x_new).all() or not math.isfinite(zj_new) or abs(zj_new) > _Z_BLOWUP:
        raise DivergenceError(
            f"divergence at iteration {state.k}", iteration=state.k, state=state
        )

    state.z[j_k] = zj_new
    state.x = x_new
    state.sum_plain += x_new
    state.sum_weighted += alpha_k * x_new
    state.weight_sum += alpha_k
    state.k += 1
    return state


# index triples drawn per rng call; a block also ends at every recording tick
_DRAW_BLOCK = 4096


def _advance(state, x, weight_sum, steps, queries):
    """Write back the loop's iterate, weight sum and counters into ``state``."""
    state.x = x
    state.weight_sum = weight_sum
    state.k += steps
    state.n_obj_queries += queries
    state.n_constr_grad_queries += queries
    state.n_constr_val_queries += queries


def _policy(z_max):
    """A row's dual rule ``(mirror, cap, limit)``: pdsg's unbounded dual with
    its ``_Z_BLOWUP`` test, or mirror-prox's box [0, z_max] with none.  The
    kernels clip the new coordinate to [0, cap] and diverge unless it is
    ``<= limit``.  The clip keeps -0.0 and NaN, as ``pdsg_step``'s repair and
    ``mirror_prox_step``'s ``min(max(v, 0.0), z_max)`` do, so both are
    reproduced bit for bit, the finiteness and magnitude tests included."""
    if z_max is None:
        return False, math.inf, _Z_BLOWUP
    return True, z_max, math.inf


def _iterate(rows, inst, K, on_tick=None, cadence=None):
    """Advance R runs on ``inst`` by K iterations each: the one run loop.

    ``rows`` holds one ``(state, alphas, rhos, z_max)`` per run; ``rhos[k-1]``
    is both the dual step and the penalty of iteration k.  With ``z_max``
    None a row equals K calls of ``pdsg_step``; with a dual box level, K calls
    of ``baselines.mirror_prox_step`` (dual update at the old iterate, clipped
    to [0, z_max], own divergence test); equal bit for bit in every field of
    the state, the generator included.  The loop owns the generators: it
    draws a row's index triples of a block with one ``rng.integers`` call
    over the tiled bounds, which draws what the scalar calls draw, and puts
    a row that stopped where its scalar draws would leave it.
    Returns one entry per row: None, or the ``DivergenceError`` its steps
    would have raised, with its state left as they leave it; the other rows
    keep running.  ``on_tick`` is called every ``cadence`` iterations (and at
    the end) with the indices of the live rows, after their states are
    written back.  A ``QuadraticInstance`` runs its blocks on the compiled
    kernel (``compiled.operands``), any other instance on ``_row_block``.
    """
    lo, hi = inst.box_lo, inst.box_hi
    for state, *_ in rows:
        if state.x.shape != lo.shape or state.x.shape != hi.shape:
            raise DimensionError(
                f"point and bounds differ in shape: {state.x.shape}, {lo.shape}, {hi.shape}"
            )
    bounds = np.tile([inst.m, inst.N, inst.m], min(K, _DRAW_BLOCK))
    every = cadence if cadence and on_tick is not None else K
    operands = compiled.operands(inst)
    oracles = (inst.stoch_objective_grad, inst.constraint, inst.constraint_value)
    errors = [None] * len(rows)
    live = list(range(len(rows)))
    done = 0
    while done < K and live:
        tick = min((done // every + 1) * every, K)
        end = min(tick, done + _DRAW_BLOCK)
        block = [rows[r] for r in live]
        before = [state.rng.bit_generator.state for state, *_ in block]
        draws = [state.rng.integers(bounds[: 3 * (end - done)]) for state, *_ in block]
        stopped = None if operands is None else _compiled_block(block, draws, operands, done, end)
        if stopped is None:
            stopped = _row_block(block, draws, oracles, lo, hi, done, end)
        for pos, t in stopped.items():
            state = block[pos][0]
            if t + 1 < end - done:
                state.rng.bit_generator.state = before[pos]
                state.rng.integers(bounds[: 3 * (t + 1)])
            msg = f"divergence at iteration {state.k}"
            errors[live[pos]] = DivergenceError(msg, iteration=state.k, state=state)
        live = [r for r in live if errors[r] is None]
        done = end
        if done == tick and on_tick is not None and live:
            on_tick(live)
    return errors


def _row_block(rows, draws, oracles, lo, hi, done, end):
    """Iterations done+1..end of each row in turn, on the per-row oracles;
    returns ``stopped``.  Row ``pos`` steps on the index triples
    ``draws[pos]``.

    A row that diverges stops at that iteration, left as its step calls
    leave it; the others run the whole block.  ``stopped`` maps a row's
    position to the block iteration (from 0) at which it stopped.
    """
    stoch_grad, constraint, constraint_value = oracles
    stopped = {}
    for pos, (state, alphas, rhos, z_max) in enumerate(rows):
        x, z, steps = state.x, state.z, end - done
        sum_plain, sum_weighted, weight_sum = state.sum_plain, state.sum_weighted, state.weight_sum
        mirror, cap, limit = _policy(z_max)
        triples = iter(draws[pos].tolist())
        block = zip(triples, triples, triples, alphas[done:end].tolist(), rhos[done:end].tolist())
        for t, (i, xi, j, a_k, r_k) in enumerate(block):
            g0 = stoch_grad(xi, x)
            fval, grad = constraint(i, x)
            mult = r_k * fval + z.item(i)
            d = g0 + mult * grad if (mult > 0.0 if mirror else not mult <= 0.0) else g0
            x_new = np.minimum(np.maximum(x - a_k * d, lo), hi)
            # a finite sum of squares means every entry is finite; an overflow
            # falls through to the entrywise test
            diverged = not math.isfinite(x_new @ x_new) and not np.isfinite(x_new).all()

            zj = z.item(j)
            fj = constraint_value(j, x if mirror else x_new)
            zj_new = zj + r_k * max(-zj / r_k, fj)
            zj_new = 0.0 if zj_new < 0.0 else cap if zj_new > cap else zj_new
            if diverged or not zj_new <= limit:
                stopped[pos] = steps = t
                break

            z[j] = zj_new
            x = x_new
            sum_plain += x_new
            sum_weighted += a_k * x_new
            weight_sum += a_k
        # a stopped row made its iteration's queries
        _advance(state, x, weight_sum, steps, steps + (pos in stopped))
    return stopped


def _compiled_block(rows, draws, operands, done, end):
    """``_row_block``'s iterations on the compiled kernel; returns
    ``stopped`` as ``_row_block`` does, or None when a row's dual or sums
    are not C-contiguous float64 arrays of the instance's shapes, overlap
    another's, or its steps do not cover the block.

    The kernel runs groups of rows on threads of their own
    (``compiled.split``), so no two rows may write the same memory.  Each
    state's dual and sums change in place, and it gets a new iterate.
    """
    block, n, p, m, *arrays = operands
    R = len(rows)
    states = [row[0] for row in rows]
    pointers, spans = [], []
    for name, shape in (("z", (m,)), ("sum_plain", (n,)), ("sum_weighted", (n,))):
        addresses = [compiled.address(getattr(state, name), shape) for state in states]
        if None in addresses:
            return None
        pointers.append((ctypes.c_void_p * R)(*addresses))
        spans += [(start, start + 8 * shape[0]) for start in addresses]
    spans.sort()
    if any(start < stop for (_, stop), (start, _) in zip(spans, spans[1:])):
        return None
    alphas, rhos = ([np.asarray(row[i][done:end], dtype=float) for row in rows] for i in (1, 2))
    if any(seq.shape != (end - done,) for seq in alphas + rhos):
        return None
    X = np.array([state.x for state in states], dtype=float)
    weights = np.array([state.weight_sum for state in states], dtype=float)
    stops = np.empty(R, np.int64)
    threads, order, counts = compiled.split(draws)
    inputs = (
        np.stack(draws),
        np.stack(alphas),
        np.stack(rhos),
        np.array([_policy(row[3]) for row in rows], dtype=float),
    )
    status = block(n, p, *arrays, end - done, *(arr.ctypes.data for arr in inputs),
                   X.ctypes.data, *pointers, weights.ctypes.data, stops.ctypes.data,
                   threads, order.ctypes.data, counts.ctypes.data)
    if status < 0:
        raise MemoryError("the compiled kernel could not allocate its work space")
    stopped = {}
    for pos, (state, steps, weight) in enumerate(zip(states, stops.tolist(), weights.tolist())):
        if steps < end - done:
            stopped[pos] = steps
        # a stopped row made its iteration's queries
        _advance(state, X[pos].copy(), weight, steps, steps + (pos in stopped))
    return stopped


def _run_row(inst, sched: ParamSchedule, z_max, K, seed, recorder, cadence):
    """One run as one row of ``_iterate``: ``run`` with ``z_max`` None,
    ``mirror_prox_run`` with its dual box level.  Returns (state, record) and
    raises the row's ``DivergenceError``."""
    state = init_state(inst, seed)
    on_tick = None if recorder is None else lambda live: recorder(state)
    row = (state, *sched.sequences(max(K, 1)), z_max)
    (exc,) = _iterate([row], inst, K, on_tick, cadence)
    if exc is not None:
        raise exc
    if recorder is None:
        return state, metrics.RunRecord(rows=[], meta={"seed": seed, "K": K})
    return state, recorder.record


def run(inst, sched: ParamSchedule, K, seed, recorder=None, cadence=None):
    """Run K iterations from the default start; returns (state, record).

    ``recorder`` is called with the state every ``cadence`` completed
    iterations (and at the end).  With no recorder the returned record is
    empty.  Deterministic given (inst, sched, K, seed), and equal bit for
    bit to K calls of ``pdsg_step`` with ``sched.steps(k)``.
    """
    if sched.K is not None and sched.K != K:
        raise ConfigError(f"schedule horizon K={sched.K} does not match run K={K}")
    return _run_row(inst, sched, None, K, seed, recorder, cadence)

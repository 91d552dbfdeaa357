"""Comparison methods: stochastic mirror-prox variant and full-batch reference.

The mirror-prox variant keeps the sampled primal update but differs from the
main solver in three ways: the penalty parameter is fixed for the run (the
dual step ``rho/sqrt(K)``), the dual coordinate update evaluates the
constraint at the *old* primal iterate, and the dual lives in the box
[0, z_max]^m.  This is the single-step form of
the method (the classical one takes two gradient steps per iteration and
averages); it keeps the same three-oracle-call budget per iteration as the
main solver.

The full-batch reference is the deterministic analogue: exact objective
gradient, the full averaged penalty subgradient, and a dense dual update.
It stands in for an external convex solver as the ground-truth oracle
(x*, z*, f0*) for measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .solver import _Z_BLOWUP, ParamSchedule, SolverState, _run_row, fixed_horizon, project_box


@dataclass(frozen=True)
class MirrorProxConfig:
    """Step sizes and dual box for the mirror-prox baseline.

    The steps of a K-iteration run are the fixed-horizon schedule of
    ``alpha`` and ``rho``: the constants ``alpha/sqrt(K)`` and
    ``rho/sqrt(K)``.  The fixed penalty is the dual step ``rho/sqrt(K)``, as
    in the main solver's ``beta_k = rho_k``.  The dual iterate is projected
    into [0, z_max]^m.
    """

    z_max: float = 10.0
    alpha: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.z_max, self.alpha, self.rho)):  # NaN fails too
            raise ConfigError("z_max, alpha and rho must be positive and finite, got "
                              f"{self.z_max}, {self.alpha}, {self.rho}")

    def schedule(self, K) -> ParamSchedule:
        """The fixed-horizon schedule of a K-iteration run (horizon 1 for K = 0)."""
        return fixed_horizon(self.alpha, self.rho, max(K, 1))

    def steps(self, K):
        """(alpha_k, rho_k, beta = rho_k) actually used for a K-iteration run."""
        return self.schedule(K).steps(1)


def zmax_from_reference(z_ref) -> float:
    """Dual box level max(10, 10 ||z_ref||_inf) from a reference dual vector."""
    z_ref = np.asarray(z_ref, dtype=float)
    return float(max(10.0, 10.0 * np.max(np.abs(z_ref), initial=0.0)))


def mirror_prox_step(state: SolverState, inst, alpha_k, rho_k, beta, z_max) -> SolverState:
    """One mirror-prox iteration; mutates and returns ``state``.

    Identical primal update and draw order as the main solver; the dual
    coordinate update uses the constraint value at the old iterate and is
    projected into [0, z_max].
    """
    rng = state.rng
    m = inst.m

    i_k = int(rng.integers(m))
    xi_k = int(rng.integers(inst.N))
    g0 = inst.stoch_objective_grad(xi_k, state.x)
    state.n_obj_queries += 1
    fval, grad = inst.constraint(i_k, state.x)
    state.n_constr_grad_queries += 1

    mult = beta * fval + state.z[i_k]
    d = g0 + mult * grad if mult > 0.0 else g0
    x_new = project_box(state.x - alpha_k * d, inst.box_lo, inst.box_hi)

    j_k = int(rng.integers(m))
    fj = inst.constraint_value(j_k, state.x)
    state.n_constr_val_queries += 1

    zj = state.z[j_k]
    zj_new = min(max(zj + rho_k * max(-zj / beta, fj), 0.0), z_max)

    if not np.isfinite(x_new).all():
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


def mirror_prox_run(inst, cfg: MirrorProxConfig, K, seed, recorder=None, cadence=None):
    """Run K mirror-prox iterations; same calling convention as solver.run.

    Equal bit for bit to K calls of ``mirror_prox_step`` with ``cfg.steps(K)``.
    """
    return _run_row(inst, cfg.schedule(K), cfg.z_max, K, seed, recorder, cadence)


# -- deterministic full-batch reference ---------------------------------------


@dataclass(frozen=True)
class ReferenceSolution:
    """Ground-truth output: the iterate the solve stops at, its duals, its
    objective and its diagnostics."""

    x: np.ndarray
    z: np.ndarray
    f0: float
    converged: bool
    iterations: int
    infeas: float
    step_norm: float


def full_batch_reference(inst, K=200_000, tol=1e-9) -> ReferenceSolution:
    """Deterministic primal-dual solve with exact gradients and dense duals.

    Per iteration: a projected gradient step on the augmented Lagrangian
    using the full averaged penalty subgradient, then the dense dual update
    ``z_j <- z_j + rho * max(-z_j/beta, f_j(x_new))`` for every coordinate,
    with beta = rho = 1; the primal step adapts to a local curvature bound
    of the augmented Lagrangian.  Stops once both the infeasibility and the
    primal step norm drop below ``tol``, or after K iterations, and returns
    the iterate it stops at, flagged non-converged if the tolerance was
    never reached.  ``converged`` is this stopping rule, not a KKT
    certificate: on the desk instance (seed 13, n=20, m=200) the converged
    output has a KKT residual of 1.72e-9 at tol 1e-9.

    Constraints come from ``inst.constraint_screen()``: a j left out of the
    screen has z_j = 0 and f_j(x) <= 0, so it adds exactly 0 to the
    multipliers, the subgradient, the dual update and the infeasibility.
    """
    x = inst.start_point()
    z = np.zeros(inst.m)
    m = inst.m

    L0 = inst.objective_curvature()
    qcurv = inst.constraint_curvatures()
    screen = inst.constraint_screen()
    idx, fvals, grads, grad_sq = screen(x, z > 0.0)

    converged = False
    k = 0
    step_norm = math.inf
    infeas = float(np.maximum(fvals, 0.0).sum()) / m

    for k in range(1, K + 1):
        mult = np.maximum(fvals + z[idx], 0.0)
        d = inst.objective_grad(x) + grads.T @ (mult / m)

        # curvature bound over all constraints, not just active ones, so the
        # step stays sane when the iterate sits inside the feasible region
        pen_curv = grad_sq / m + float(mult @ qcurv[idx]) / m
        alpha_k = 1.0 / (L0 + pen_curv + 1e-2)

        x_new = project_box(x - alpha_k * d, inst.box_lo, inst.box_hi)
        idx, fvals, grads, grad_sq = screen(x_new, z > 0.0)
        zi = z[idx]
        z[idx] = np.maximum(zi + np.maximum(-zi, fvals), 0.0)
        if not np.isfinite(x_new).all() or float(np.max(np.abs(z))) > _Z_BLOWUP:
            raise DivergenceError(f"reference diverged at iteration {k}", iteration=k)

        step_norm = float(np.linalg.norm(x_new - x))
        infeas = float(np.maximum(fvals, 0.0).sum()) / m
        x = x_new

        # step/alpha approximates the projected gradient, so converged output
        # meets the KKT contract and not just a small-step test
        if infeas <= tol and step_norm <= tol * min(1.0, alpha_k):
            converged = True
            break

    return ReferenceSolution(
        x=x,
        z=z,
        f0=float(inst.objective(x)),
        converged=converged,
        iterations=k,
        infeas=infeas,
        step_norm=step_norm,
    )

"""Scalar penalty primitives of the augmented Lagrangian.

The coupling penalty is a two-branch function of a constraint value ``u`` and
a multiplier ``v``: quadratic-in-``u`` while ``beta*u + v >= 0``, constant
negative quadratic in ``v`` otherwise.  The two branches meet continuously on
the switching surface ``beta*u + v = 0``.  Everything here is a pure function
of its arguments and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class PenaltyEval:
    """One evaluation of the penalty: value plus both partial subgradients.

    ``du`` is the outer factor of the u-subgradient, ``max(beta*u + v, 0)``;
    the caller chains it with the subgradient of whatever produced ``u``.
    ``dv`` is the partial derivative in ``v``, ``max(u, -v/beta)``.
    """

    value: float
    du: float
    dv: float


def penalty(u: float, v: float, beta: float) -> PenaltyEval:
    """Evaluate the two-branch penalty and both partials in a single pass.

    Returns ``u*v + (beta/2)*u**2`` on the branch ``beta*u + v >= 0`` and
    ``-v**2/(2*beta)`` on the other.  Ties on the switching surface go to the
    first branch; the value is identical there, so the tie only fixes which
    subgradient is reported.

    Raises
    ------
    ValueError
        If any input is non-finite or ``beta <= 0``.
    """
    if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(beta)):
        raise ValueError("penalty arguments must be finite")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    switch = beta * u + v
    if switch >= 0.0:
        return PenaltyEval(u * v + 0.5 * beta * u * u, switch, u)
    return PenaltyEval(-v * v / (2.0 * beta), 0.0, -v / beta)


def penalty_mean(fvals, z, beta: float) -> float:
    """Average penalty ``(1/m) sum_i penalty(fvals[i], z[i], beta).value``.

    This is the constraint part of the augmented Lagrangian.  It is
    nonpositive whenever all ``fvals <= 0`` and ``z >= 0``.
    """
    fvals = np.asarray(fvals, dtype=float)
    z = np.asarray(z, dtype=float)
    if fvals.shape != z.shape or fvals.ndim != 1 or fvals.size == 0:
        raise DimensionError(
            f"fvals and z must be equal-length vectors, got {fvals.shape} and {z.shape}"
        )
    if not (np.isfinite(fvals).all() and np.isfinite(z).all() and math.isfinite(beta)):
        raise ValueError("penalty_mean arguments must be finite")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    on_first = beta * fvals + z >= 0.0
    vals = np.where(
        on_first,
        fvals * z + 0.5 * beta * fvals * fvals,
        -z * z / (2.0 * beta),
    )
    return float(vals.mean())


def primal_subgradient(g0, fval: float, grad, z_i: float, beta: float):
    """Stochastic primal subgradient ``g0 + max(beta*fval + z_i, 0) * grad``.

    ``g0`` is an objective subgradient and ``(fval, grad)`` come from one
    sampled constraint; ``z_i`` is that constraint's dual coordinate.
    """
    g0 = np.asarray(g0, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if g0.shape != grad.shape:
        raise DimensionError(
            f"objective and constraint gradients differ in shape: {g0.shape} vs {grad.shape}"
        )
    mult = beta * fval + z_i
    if mult <= 0.0:
        return g0.copy()
    return g0 + mult * grad


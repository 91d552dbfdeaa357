"""Theoretical constants and bounds for the three step-size schedules.

Given problem constants (F, G, sigma, mu), the step scalars (alpha, rho), the
horizon K, and reference quantities (||x1 - x*||, ||z*||, ||1 + z*||), these
functions evaluate the dual-norm bounds E||z^k||^2 <= C/(1 - c*alpha*rho*G^2/m)
and the ergodic objective/infeasibility rate envelopes, exactly as the
guarantees state them (no simplification of the 1/K or 1/log^2(K+1) internal
terms).  All pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundInfeasibleError
from .solver import product_coef


@dataclass(frozen=True)
class BoundInputs:
    """Problem and run constants the bounds are built from.

    ``dist0`` is ||x1 - x*||; ``zstar_norm`` is ||z*||; ``ones_plus_zstar_norm``
    is the Euclidean norm of the all-ones vector plus z*.
    """

    alpha: float
    rho: float
    m: int
    F: float
    G: float
    sigma: float
    dist0: float
    zstar_norm: float
    ones_plus_zstar_norm: float
    mu: float = 0.0


def _denominator(kind, b: BoundInputs) -> float:
    denom = 1.0 - product_coef(kind) * b.alpha * b.rho * b.G * b.G / b.m
    if denom <= 0.0:
        raise BoundInfeasibleError(
            f"{kind}: alpha*rho = {b.alpha * b.rho:.6g} violates the product condition"
        )
    return denom


def dual_constant(kind, b: BoundInputs, K=None) -> float:
    """The additive constant C of the dual-norm bound for the given kind."""
    a, r = b.alpha, b.rho
    base_noise = 4.0 * b.G**2 + b.sigma**2
    fg = b.F * b.F * b.G * b.G
    if kind == "fixed_horizon":
        if K is None:
            raise ValueError("fixed_horizon constant requires K")
        return (
            2.0 * r / a * b.dist0**2
            + 4.0 * b.zstar_norm**2
            + 8.0 * a * r * base_noise
            + 32.0 * a * r**3 * fg / K
        )
    if kind == "anytime":
        return (
            2.0 * r / a * b.dist0**2
            + 4.0 * b.zstar_norm**2
            + 17.0 * a * r * base_noise
            + 39.0 * a * r**3 * fg
        )
    if kind == "strongly_convex":
        if K is None:
            raise ValueError("strongly_convex constant requires K")
        logk = math.log(K + 1.0)
        return (
            2.0 * r / logk * (2.0 / a - b.mu) * b.dist0**2
            + 4.0 * b.zstar_norm**2
            + 8.0 * a * r * base_noise
            + 32.0 * a * r**3 * fg / logk**2
        )
    raise ValueError(f"unknown kind {kind!r}")


def dual_bound(kind, b: BoundInputs, K=None) -> float:
    """Bound on E||z^k||^2 over the whole run for the given schedule kind."""
    return dual_constant(kind, b, K) / _denominator(kind, b)


@dataclass(frozen=True)
class RateEnvelope:
    """Right-hand sides of the convergence guarantees at horizon K.

    ``obj`` bounds E|f0(xbar) - f0*|, ``infeas`` bounds the mean constraint
    violation of xbar, and ``last_iterate`` (strongly convex only) bounds
    E||x^{K+1} - x*||^2.
    """

    obj: float
    infeas: float
    last_iterate: float | None = None


def rate_constant(kind, b: BoundInputs, K) -> float:
    """The phi constant entering the rate envelope for the given kind."""
    a, r = b.alpha, b.rho
    base_noise = 4.0 * b.G**2 + b.sigma**2
    fg = b.F * b.F * b.G * b.G
    C = dual_constant(kind, b, K)
    denom_m = b.m - product_coef(kind) * a * r * b.G * b.G
    if kind == "fixed_horizon":
        return (
            b.dist0**2 / (2.0 * a)
            + 2.0 * a * base_noise
            + 8.0 * a * (r * r * fg / K + b.G * b.G * C / denom_m)
        )
    if kind == "anytime":
        return (
            b.dist0**2 / (2.0 * a)
            + 5.0 * a * base_noise
            + 10.0 * a * r * r * fg
            + 17.0 * a * b.G * b.G * C / denom_m
        )
    if kind == "strongly_convex":
        logk = math.log(K + 1.0)
        return (
            (2.0 - a * b.mu) / (2.0 * a * logk) * b.dist0**2
            + 2.0 * a * base_noise
            + 8.0 * a * (r * r * fg / logk**2 + b.G * b.G * C / denom_m)
        )
    raise ValueError(f"unknown kind {kind!r}")


def rate_envelope(kind, b: BoundInputs, K) -> RateEnvelope:
    """Evaluate the guarantee right-hand sides for the kind at horizon K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    _denominator(kind, b)  # validity gate
    phi = rate_constant(kind, b, K)
    r = b.rho
    z2 = b.zstar_norm**2
    oz2 = b.ones_plus_zstar_norm**2
    last = None
    if kind == "fixed_horizon":
        pre = 1.0 / math.sqrt(K)
    elif kind == "anytime":
        pre = math.log(K + 1.0) / (2.0 * (math.sqrt(K + 2.0) - math.sqrt(2.0)))
    else:
        pre = math.log(K + 1.0) / K
        last = 2.0 * b.alpha * math.log(K + 1.0) / (K + 1.0) * (phi + z2 / (2.0 * r))
    return RateEnvelope(
        obj=pre * (2.0 * phi + 4.5 / r * z2),
        infeas=pre * (phi + oz2 / (2.0 * r)),
        last_iterate=last,
    )

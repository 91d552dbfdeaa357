"""Reference forms and the tolerance contract for faster evaluations.

The library evaluates several quantities in a faster form than the obvious
one: the objective from cached statistics (P, q, r), the constraint values of
a stack of points from one pass over Q, sigma from batched sample points, the
Hessian as one Gram product, the reference solve from a constraint screen.
The obvious per-sample and per-point forms live here, and tests hold the
library to them.

Tolerance contract.  A faster form that reorders floating-point arithmetic
must agree with its reference form elementwise,

    |fast - reference| <= MEASURE_RTOL * scale,

where ``scale`` is the reference expression evaluated on the absolute values
of every input (the running error bound of a sum of products is a multiple of
that).  The scale, not the value, is the yardstick, because a value can
cancel to near zero while each term stays large: the expanded objective
``(1/2) x'Px - q'x + r`` cancels exactly where the least-squares residual is
small.  ``MEASURE_RTOL`` is pinned at 1e-12, about 4500 unit roundoffs: each
form's error is a few times ``n * eps`` for the sums here, with n up to a few
hundred.  A faster form that keeps the arithmetic must be bit-equal instead.
"""

import math

import numpy as np

from pdsg.solver import _Z_BLOWUP, project_box

MEASURE_RTOL = 1e-12


def objective(inst, x):
    """f0(x) = (1/2N) sum_i ||H_i x - c_i||^2, one pass over H."""
    r = inst.data.H @ x - inst.data.c
    return float(0.5 * np.mean(np.sum(r * r, axis=1)))


def objective_scale(inst, x):
    r = np.abs(inst.data.H) @ np.abs(x) + np.abs(inst.data.c)
    return float(0.5 * np.mean(np.sum(r * r, axis=1)))


def objective_grad(inst, x):
    """(1/N) sum_i H_i'(H_i x - c_i), one einsum over H."""
    r = inst.data.H @ x - inst.data.c
    return np.einsum("ipn,ip->n", inst.data.H, r) / inst.N


def objective_grad_scale(inst, x):
    absH = np.abs(inst.data.H)
    r = absH @ np.abs(x) + np.abs(inst.data.c)
    return np.einsum("ipn,ip->n", absH, r) / inst.N


def constraint_values(inst, x):
    """f_j(x) = (1/2) x'Q_j x + a_j'x - b_j for every j."""
    Qx = inst.data.Q @ x
    return 0.5 * (Qx @ x) + inst.data.a @ x - inst.data.b


def constraint_values_scale(inst, x):
    d, ax = inst.data, np.abs(x)
    return 0.5 * ((np.abs(d.Q) @ ax) @ ax) + np.abs(d.a) @ ax + np.abs(d.b)


def constraint_grads(inst, x):
    """grad f_j(x) = Q_j x + a_j, stacked (m, n)."""
    return inst.data.Q @ x + inst.data.a


def constraint_grads_scale(inst, x):
    return np.abs(inst.data.Q) @ np.abs(x) + np.abs(inst.data.a)


def assert_within_contract(fast, reference, scale):
    """Elementwise |fast - reference| <= MEASURE_RTOL * scale."""
    fast, reference, scale = np.broadcast_arrays(
        np.asarray(fast, dtype=float), np.asarray(reference, dtype=float),
        np.asarray(scale, dtype=float),
    )
    assert np.isfinite(fast).all()
    err = np.abs(fast - reference)
    bad = err > MEASURE_RTOL * scale
    assert not bad.any(), (
        f"{int(bad.sum())} of {bad.size} entries outside the contract; worst "
        f"error/scale {float(np.max(err / np.where(scale > 0, scale, 1.0))):.3g}"
    )


def sigma_per_sample(inst, samples, rng_seed):
    """sigma as one full pass over the N samples per drawn point."""
    rng = np.random.default_rng(rng_seed)
    sigma = 0.0
    for _ in range(samples):
        x = rng.uniform(inst.box_lo, inst.box_hi)
        grads = np.einsum("ipn,ip->in", inst.data.H, inst.data.H @ x - inst.data.c)
        dev = grads - grads.mean(axis=0)
        sigma = max(sigma, math.sqrt(float(np.mean(np.sum(dev * dev, axis=1)))))
    return sigma


def hessian(inst):
    """(1/N) sum_i H_i'H_i as one einsum over H."""
    return np.einsum("ipn,ipq->nq", inst.data.H, inst.data.H) / inst.N


def full_batch_reference(inst, K=200_000, tol=1e-9):
    """``baselines.full_batch_reference`` unscreened, with per-point forms
    throughout: every constraint at every iterate, two passes over Q and one
    over H per iteration.  Returns ``(x, z, f0, iterations, converged)``."""
    x = inst.start_point()
    z = np.zeros(inst.m)
    m = inst.m
    L0 = inst.objective_curvature()
    qcurv = inst.constraint_curvatures()
    fvals, grads = constraint_values(inst, x), constraint_grads(inst, x)
    converged, k = False, 0
    for k in range(1, K + 1):
        mult = np.maximum(fvals + z, 0.0)
        d = objective_grad(inst, x) + grads.T @ (mult / m)
        pen_curv = float(np.sum(grads * grads)) / m + float(mult @ qcurv) / m
        alpha_k = 1.0 / (L0 + pen_curv + 1e-2)
        x_new = project_box(x - alpha_k * d, inst.box_lo, inst.box_hi)
        fvals_new = constraint_values(inst, x_new)
        grads_new = constraint_grads(inst, x_new)
        z = np.maximum(z + np.maximum(-z, fvals_new), 0.0)
        assert np.isfinite(x_new).all() and float(np.max(np.abs(z))) <= _Z_BLOWUP
        step_norm = float(np.linalg.norm(x_new - x))
        infeas = float(np.maximum(fvals_new, 0.0).mean())
        x, fvals, grads = x_new, fvals_new, grads_new
        if infeas <= tol and step_norm <= tol * min(1.0, alpha_k):
            converged = True
            break
    return x, z, objective(inst, x), k, converged

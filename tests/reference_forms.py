"""Reference forms and the tolerance contract for faster evaluations.

The library evaluates several quantities in a faster form than the obvious
one: the objective from cached statistics (P, q, r), the constraint values of
a stack of points from one pass over Q, sigma from batched sample points and
chunked passes over H, q and r from chunked passes over c and H, the norms
of a chunk by chunk, the Hessian as one Gram product, the reference solve
from a constraint screen, a random QCQP's Q from chunks of M and upper Gram
blocks, and a loaded file's check from two reductions and one comparison
per piece.  The obvious per-sample, per-point, one-pass, one-draw and
elementwise forms live here, and tests hold the library to them.  So do the
earlier forms of passes that now allocate less (the constraint pass, the
curvatures and the reference screen), which must stay bit-equal, and the
galloping search of the discarding scenario count, which is now one
bisection and must return the same N.

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

from pdsg import problems
from pdsg.errors import CapacityError
from pdsg.problems import QcqpData, QuadraticInstance, box_radius
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


def sigma_stacked(inst, samples, rng_seed):
    """sigma from the whole (N, n, samples) stack of per-sample gradients at
    once, as ``certify_constants`` computed it before its passes were chunked."""
    data = inst.data
    X = np.random.default_rng(rng_seed).uniform(
        inst.box_lo, inst.box_hi, size=(samples, inst.n)
    )
    resid = data.H @ X.T
    resid -= data.c[:, :, None]
    grads = data.H.transpose(0, 2, 1) @ resid
    grads -= grads.mean(axis=0)
    np.square(grads, out=grads)
    msd = grads.sum(axis=(0, 1)) / inst.N
    return math.sqrt(float(msd.max(initial=0.0)))


def linear_terms_stacked(inst):
    """q = (1/N) sum_i H_i'c_i from the whole (N, 1, n) stack of products, as
    ``linear_terms`` computed it before its pass was chunked."""
    c = inst.data.c
    return (c[:, None, :] @ inst.data.H).sum(axis=0)[0] / inst.N


def r_one_pass(inst):
    """r = (1/2) mean_i ||c_i||^2 from the whole (N, p) array of squares, as
    ``linear_terms`` computed it before its pass was chunked."""
    c = inst.data.c
    return float(0.5 * np.mean(np.sum(c * c, axis=1)))


def certified_bounds_one_pass(inst):
    """``(F, G)`` of ``certify_constants`` from the whole (m, n) array of
    squares of a for the norms ||a_j||, as computed before that pass was
    chunked."""
    R = box_radius(inst.box_lo, inst.box_hi)
    qnorm = np.linalg.norm(inst.data.Q, axis=(1, 2))
    anorm = np.linalg.norm(inst.data.a, axis=1)
    G = float(np.max(qnorm * R + anorm))
    F = float(np.max(0.5 * qnorm * R * R + anorm * R + np.abs(inst.data.b)))
    return F, G


def check_payload(path, arrays):
    """``problems._check_payload`` as it was before it tested finiteness by
    two reductions and symmetry by one comparison per piece: elementwise
    ``np.isfinite`` and a per-matrix symmetry flag on every piece.  Its
    message for non-finite data does not locate the value."""
    Q = arrays[2]
    for arr in arrays:
        rows = max(1, problems._CHUNK_BYTES // (arr.itemsize * (arr.size // len(arr))))
        for lo in range(0, len(arr), rows):
            piece = arr[lo : lo + rows]
            if not np.isfinite(piece).all():
                raise ValueError(f"{path}: instance data holds NaN or infinite values")
            if arr is Q:
                symmetric = (piece == piece.transpose(0, 2, 1)).all(axis=(1, 2))
                if not symmetric.all():
                    j = lo + int(np.argmin(symmetric))
                    raise ValueError(f"{path}: constraint matrix Q_{j} is not symmetric")


def constraint_values_and_grads(inst, x):
    """``QuadraticInstance.constraint_values_and_grads`` as it was before it
    formed the gradients in place: ``Q x + a`` as a second (m, n) array."""
    Qx = inst.data.Q @ x
    return 0.5 * (Qx @ x) + inst.data.a @ x - inst.data.b, Qx + inst.data.a


def constraint_curvatures(inst):
    """``QuadraticInstance.constraint_curvatures`` as it was before it took
    the norms from ``problems._row_squares``: ``np.linalg.norm`` of each
    chunk of at most _CHUNK_BYTES of Q."""
    Q, n = inst.data.Q, inst.n
    return np.concatenate(
        [np.linalg.norm(Q[rows], axis=(1, 2)) for rows in problems._chunks(inst.m, n, n)]
    )


def constraint_screen(inst):
    """``QuadraticInstance.constraint_screen`` as it was before its gather
    buffer was allocated per call: one buffer of at most _CHUNK_BYTES of Q,
    held for the screen's life, the candidates' gradients formed as a second
    array, and the anchors and curvatures from the forms above."""
    n, m, Q, a, b = inst.n, inst.m, inst.data.Q, inst.data.a, inst.data.b
    qn = constraint_curvatures(inst)
    S2, v, c0 = inst.gradient_statistics()
    slack = 4.0 * (n + 2) ** 2 * np.finfo(float).eps
    qs, ab = slack * qn, slack * np.abs(b)
    an = slack * np.sqrt(problems._row_squares(a))
    rows = max(1, problems._CHUNK_BYTES // (8 * n * n))
    Qs = np.empty((min(rows, m), n, n))
    xa = xa_norm = F = G = None  # the anchor, its norm and the full pass there
    limit = 0.0  # candidate count past which the screen re-anchors

    def candidates(x, keep):
        D = x - xa
        s = math.sqrt(float(x @ x)) + xa_norm
        upper = F + np.einsum("jn,n->j", G, D)
        upper += (0.5 * float(D @ D)) * qn + (qs * (s * s) + an * s + ab)
        return np.flatnonzero(keep | (upper >= 0.0))

    def evaluate(idx, x):
        Qx = np.empty((len(idx), n))
        for lo in range(0, len(idx), rows):
            part = idx[lo:lo + rows]
            np.matmul(Q.take(part, 0, Qs[: len(part)], "clip"), x, out=Qx[lo:lo + len(part)])
        ai = a[idx]
        return 0.5 * (Qx @ x) + ai @ x - b[idx], Qx + ai

    def screen(x, keep):
        nonlocal xa, xa_norm, F, G, limit
        grad_sq = max(float(x @ (S2 @ x)) + 2.0 * float(v @ x) + c0, 0.0)
        if xa is not None:
            idx = candidates(x, keep)
            if len(idx) <= limit:
                return (idx, *evaluate(idx, x), grad_sq)
        F, G = constraint_values_and_grads(inst, x)
        xa = x.copy()
        xa_norm = math.sqrt(float(xa @ xa))
        idx = candidates(x, keep)
        limit = min(len(idx) + problems._SCREEN_SHARE * m, 0.5 * m)
        return idx, F[idx], G[idx], grad_sq

    return screen


class EarlierPasses(QuadraticInstance):
    """A quadratic instance whose constraint pass, curvatures and screen are
    the earlier forms above."""

    def constraint_values_and_grads(self, x):
        return constraint_values_and_grads(self, x)

    def constraint_curvatures(self):
        return constraint_curvatures(self)

    def constraint_screen(self):
        return constraint_screen(self)


def hessian(inst):
    """(1/N) sum_i H_i'H_i as one einsum over H."""
    return np.einsum("ipn,ipq->nq", inst.data.H, inst.data.H) / inst.N


def random_qcqp_one_draw(n, p, N, m, seed):
    """random_qcqp as built before Q was built in chunks: all of M at once,
    and Q as one Gram product."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((N, p, n))
    c = rng.standard_normal((N, p))
    M = rng.standard_normal((m, n, n))
    Q = np.einsum("mik,mjk->mij", M, M) / n
    a = rng.standard_normal((m, n))
    b = rng.uniform(0.1, 1.1, m)
    box = 10.0 * np.ones(n)
    return QuadraticInstance(QcqpData(H, c, Q, a, b, -box, box))


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


def scenario_count_discarding(n, tau, eps, p=0):
    """``problems.scenario_count_discarding`` as a galloping search: doubling
    from p + n until the bound holds or ``_N_CAP`` fails it, then bisection
    between the last two points."""
    log_eps = math.log(eps)
    lo = p + n
    if problems._log_discard_lhs(lo, n, tau, p) <= log_eps:
        return lo
    hi = lo
    while True:
        lo = hi
        hi = min(2 * hi, problems._N_CAP)
        if problems._log_discard_lhs(hi, n, tau, p) <= log_eps:
            break
        if hi >= problems._N_CAP:
            raise CapacityError(f"no N <= {problems._N_CAP} satisfies the bound")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if problems._log_discard_lhs(mid, n, tau, p) <= log_eps:
            hi = mid
        else:
            lo = mid
    return hi

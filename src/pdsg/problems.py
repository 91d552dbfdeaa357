"""Problem instances, random generators, constant certification, and sizing.

An instance bundles the oracles the solvers consume: an exact and a
stochastic objective subgradient, and per-constraint value/subgradient
queries over a box domain.  The concrete family used throughout is the
quadratic one,

    f0(x) = (1/2N) sum_i ||H_i x - c_i||^2,
    f_j(x) = (1/2) x'Q_j x + a_j'x - b_j <= 0,   x in [lo, hi]^n,

which covers both the random QCQP benchmark (dense PSD ``Q_j``) and the
scenario-LP family (``Q_j = 0``, unit-Hessian objective).  Instances are
immutable after construction (a quadratic instance marks its arrays
read-only) and safe to share across concurrent runs.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError

_MAGIC = b"QCPDINST"
# the header of each container version, by version byte: magic, version
# byte, u64 dims (n, p, N, m), and from version 2 the instance digest (the
# SHA-256 of the version-1 serialization); the float64 arrays follow.
# save_instance writes version 2; load_instance reads both
_HEADERS = {1: struct.Struct("<8sB4Q"), 2: struct.Struct("<8sB4Q32s")}
# bytes of an (m, n, n) array handled at a time, so that a pass over Q
# allocates no temporary of Q's size
_CHUNK_BYTES = 1 << 20
# rows and columns of one block of a Gram product that ``random_qcqp`` forms
# (upper blocks only, then mirrored); fastest at n = 100 in a sweep over
# block sizes (notes/decisions.md), and a single block at n <= 20
_GRAM_BLOCK = 20
# bytes of the (rows, n, s) products one step of ``measure`` holds; small
# enough to come from the heap, so measuring a tick of many runs at once
# raises no peak
_MEASURE_BYTES = 1 << 16
# growth of a constraint screen's candidates since its anchor, as a share of
# m, past which it takes a new anchor (one full pass) rather than gather them
_SCREEN_SHARE = 0.125


def _chunks(m, n):
    """Row slices of an (m, n, n) float64 array, each of at most _CHUNK_BYTES
    (at least one row)."""
    rows = max(1, _CHUNK_BYTES // (8 * n * n))
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


class ProblemInstance:
    """Oracle interface: stochastic objective plus m constraint oracles on a box.

    The objective is an average over ``N`` samples (``N = 1`` for a
    deterministic objective).  The solvers draw a sample index uniformly from
    ``range(N)`` and pass it to ``stoch_objective_grad``.  Subclasses must
    provide the objective and constraint oracles; the base class supplies the
    box bookkeeping, the default start point, and slow generic full passes
    over the constraints.
    """

    def __init__(self, n, m, box_lo, box_hi, origin_feasible=False, N=1):
        self.n = int(n)
        self.m = int(m)
        self.N = int(N)
        if self.n < 1 or self.m < 1 or self.N < 1:
            raise ValueError(f"dimensions must be >= 1, got n={n}, m={m}, N={N}")
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)
        if self.box_lo.shape != (self.n,) or self.box_hi.shape != (self.n,):
            raise DimensionError("box bounds must be length-n vectors")
        if np.any(self.box_lo > self.box_hi):
            raise ValueError("box_lo must be <= box_hi componentwise")
        self.origin_feasible = bool(origin_feasible)

    # -- objective oracle ---------------------------------------------------

    def objective(self, x) -> float:
        """Exact objective value f0(x)."""
        raise NotImplementedError

    def objective_grad(self, x):
        """Exact full-batch objective subgradient at x."""
        raise NotImplementedError

    def stoch_objective_grad(self, i, x):
        """Objective subgradient of sample i at x; unbiased for i uniform on range(N)."""
        raise NotImplementedError

    def objective_curvature(self) -> float:
        """Upper bound on the objective Hessian 2-norm (0 if none known)."""
        return 0.0

    # -- constraint oracle --------------------------------------------------

    def constraint(self, j, x):
        """Value and subgradient ``(f_j(x), grad f_j(x))`` of constraint j."""
        raise NotImplementedError

    def constraint_value(self, j, x) -> float:
        return self.constraint(j, x)[0]

    def constraint_values(self, x):
        """All m constraint values at x (measurement use; O(m) pass)."""
        return self.constraint_values_and_grads(x)[0]

    def constraint_grads(self, x):
        """All m constraint subgradients at x, stacked (m, n)."""
        return self.constraint_values_and_grads(x)[1]

    def constraint_values_and_grads(self, x):
        """``(constraint_values(x), constraint_grads(x))`` from one pass:
        one ``constraint(j, x)`` call per constraint."""
        vals, grads = zip(*(self.constraint(j, x) for j in range(self.m)))
        return np.array(vals), np.stack(grads)

    def constraint_curvatures(self):
        """Per-constraint Hessian norm bounds (zeros when constraints are affine)."""
        return np.zeros(self.m)

    def constraint_screen(self):
        """A screen for full-batch solves: ``screen(x, keep)``.

        It returns ``(idx, fvals, grads, grad_sq)``: the values and the
        stacked subgradients at x of the constraints ``idx`` (an index
        array, or ``slice(None)`` for all m), and ``grad_sq``, the sum over
        all m constraints of the squared subgradient norms at x.  ``idx``
        holds every j with ``keep[j]`` set and every j whose value at x can
        be positive; a constraint left out has a value at most 0.  This
        generic form screens nothing: it returns every constraint from one
        ``constraint_values_and_grads`` pass.
        """

        def screen(x, keep):
            fvals, grads = self.constraint_values_and_grads(x)
            return slice(None), fvals, grads, float(np.sum(grads * grads))

        return screen

    # -- measurement --------------------------------------------------------

    def measure(self, X):
        """Objective and all constraint values at each row of X (s, n).

        Returns ``(f0, fvals)`` of shapes (s,) and (s, m).  This generic form
        makes the per-point calls; subclasses evaluate the stack at once.
        """
        f0 = np.array([self.objective(x) for x in X], dtype=float)
        fvals = np.array([self.constraint_values(x) for x in X], dtype=float)
        return f0, fvals.reshape(len(X), self.m)

    # -- stacked sampled oracles ---------------------------------------------

    def stacked_oracles(self, R):
        """The three sampled oracles of a run for a stack X (R, n) of points.

        Returns ``(stoch_objective_grads, constraints, constraint_values)``.
        Each takes an integer array of R indices, one per row of X:
        ``stoch_objective_grads(xis, X)`` is the (R, n) stack of
        ``stoch_objective_grad(xis[r], X[r])``; ``constraints(I, X)`` returns
        the list of values and the (R, n) stack of subgradients of
        ``constraint(I[r], X[r])``; ``constraint_values(J, X)`` is the list of
        ``constraint_value(J[r], X[r])``.  Every row is bit-equal to its
        per-row call.  A returned array may be a buffer that the next call
        of the same oracle overwrites.  This generic form makes the per-row
        calls; subclasses evaluate the stack at once.
        """

        def stoch_objective_grads(xis, X):
            return np.stack([self.stoch_objective_grad(i, x) for i, x in zip(xis.tolist(), X)])

        def constraints(I, X):
            vals, grads = zip(*map(self.constraint, I.tolist(), X))
            return list(vals), np.stack(grads)

        def constraint_values(J, X):
            return [self.constraint_value(j, x) for j, x in zip(J.tolist(), X)]

        return stoch_objective_grads, constraints, constraint_values

    # -- misc ---------------------------------------------------------------

    def start_point(self):
        """Default initial iterate: origin when certified feasible, else box center."""
        if self.origin_feasible:
            return np.zeros(self.n)
        return 0.5 * (self.box_lo + self.box_hi)


@dataclass(frozen=True)
class QcqpData:
    """Raw arrays of a quadratic instance.

    ``H`` is (N, p, n), ``c`` is (N, p), ``Q`` is (m, n, n) symmetric PSD,
    ``a`` is (m, n), ``b`` is (m,).
    """

    H: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray


@dataclass(frozen=True)
class TheoryConstants:
    """Certified oracle bounds: |f_j| <= F and ||grad f_j|| <= G on the box.

    ``sigma`` is an empirical stochastic-gradient deviation estimate (not a
    certified bound) and ``mu`` is the objective's strong-convexity modulus,
    exact only when ``mu_exact`` is set.
    """

    F: float
    G: float
    sigma: float
    mu: float
    mu_exact: bool = False


class QuadraticInstance(ProblemInstance):
    """Least-squares objective with quadratic inequality constraints on a box.

    The objective is evaluated from cached statistics, as the quadratic
    ``f0(x) = (1/2) x'Px - q'x + r`` with ``P = hessian()``,
    ``q = (1/N) sum_i H_i'c_i`` and ``r = (1/2) mean_i ||c_i||^2``, so the
    full-batch objective and its gradient cost O(n^2) and never read H.
    """

    def __init__(self, data: QcqpData):
        N, p, n = data.H.shape
        m = data.Q.shape[0]
        if data.c.shape != (N, p):
            raise DimensionError(f"c must be (N, p) = ({N}, {p}), got {data.c.shape}")
        if data.Q.shape != (m, n, n) or data.a.shape != (m, n) or data.b.shape != (m,):
            raise DimensionError("constraint arrays have inconsistent shapes")
        super().__init__(
            n, m, data.box_lo, data.box_hi,
            origin_feasible=bool(np.all(data.b > 0.0)), N=N,
        )
        self.data = data
        self.p = p
        # read-only, so the cached digest and the lazy caches cannot go stale
        for arr in (*_arrays(data), self.box_lo, self.box_hi):
            arr.flags.writeable = False
        self._hessian = None
        self._linear = None  # (q, r) of the expanded objective
        self._eigenvalues = None
        self._qnorms = None
        self._grad_stats = None  # (S2, v, c0) of the summed squared gradient norms
        self._digest = None

    # -- objective ----------------------------------------------------------

    def objective(self, x) -> float:
        return float(self._objective_values(np.asarray(x, dtype=float)[None])[0])

    def objective_grad(self, x):
        q, _ = self.linear_terms()
        return self.hessian() @ x - q

    def stoch_objective_grad(self, i, x):
        Hi = self.data.H[i]
        return Hi.T @ (Hi @ x - self.data.c[i])

    def hessian(self):
        """Exact objective Hessian (1/N) sum_i H_i'H_i (read-only, cached).

        One Gram product of the stacked rows of H (a single BLAS syrk call),
        so the result is exactly symmetric.
        """
        if self._hessian is None:
            A = self.data.H.reshape(self.N * self.p, self.n)
            self._hessian = (A.T @ A) / self.N
            self._hessian.flags.writeable = False
        return self._hessian

    def linear_terms(self):
        """``(q, r)`` of ``f0(x) = (1/2) x'Px - q'x + r`` (cached; q read-only).

        q is one pass over H as N small products c_i'H_i: one product over
        the stacked rows would wake the BLAS worker threads, which then spin
        beside the single-threaded run loop.  r is f0 at the origin.
        """
        if self._linear is None:
            c = self.data.c
            q = (c[:, None, :] @ self.data.H).sum(axis=0)[0] / self.N
            q.flags.writeable = False
            self._linear = (q, float(0.5 * np.mean(np.sum(c * c, axis=1))))
        return self._linear

    def _objective_values(self, X):
        """f0 at each row of X (s, n) from (P, q, r)."""
        q, r = self.linear_terms()
        return 0.5 * np.einsum("si,si->s", X @ self.hessian(), X) - X @ q + r

    def _hessian_eigenvalues(self):
        """Ascending eigenvalues of the Hessian (read-only, cached), or None
        when n > 512 and the Hessian is not factored."""
        if self._eigenvalues is None and self.n <= 512:
            self._eigenvalues = np.linalg.eigvalsh(self.hessian())
            self._eigenvalues.flags.writeable = False
        return self._eigenvalues

    def objective_curvature(self) -> float:
        eigs = self._hessian_eigenvalues()
        return float(np.linalg.norm(self.hessian(), "fro") if eigs is None else eigs[-1])

    # -- constraints ----------------------------------------------------------

    def constraint(self, j, x):
        Qx = self.data.Q[j] @ x
        val = 0.5 * float(x @ Qx) + float(self.data.a[j] @ x) - float(self.data.b[j])
        return val, Qx + self.data.a[j]

    def constraint_value(self, j, x) -> float:
        Qx = self.data.Q[j] @ x
        return 0.5 * float(x @ Qx) + float(self.data.a[j] @ x) - float(self.data.b[j])

    def constraint_values_and_grads(self, x):
        Qx = self.data.Q @ x
        return 0.5 * (Qx @ x) + self.data.a @ x - self.data.b, Qx + self.data.a

    def measure(self, X):
        """f0 from (P, q, r) and the constraint values from one pass over Q.

        ``Q @ X'`` is m small (n, n) x (n, s) products, taken a few
        constraints at a time so that no temporary exceeds _MEASURE_BYTES,
        however many points the stack holds.  Both contractions are einsums:
        as one product over all m rows, ``X @ a'`` is large enough to wake
        the BLAS worker threads, which then spin beside the single-threaded
        run loop.
        """
        X = np.asarray(X, dtype=float)
        Q, b = self.data.Q, self.data.b
        aX = np.einsum("jn,sn->sj", self.data.a, X)
        fvals = np.empty_like(aX)
        rows = max(1, _MEASURE_BYTES // (8 * self.n * max(1, len(X))))
        for lo in range(0, self.m, rows):
            part = slice(lo, lo + rows)
            xQx = np.einsum("jis,si->sj", np.matmul(Q[part], X.T), X)
            fvals[:, part] = 0.5 * xQx + aX[:, part] - b[part]
        return self._objective_values(X), fvals

    def stacked_oracles(self, R):
        """Stacked oracles from gathered slices and stacked ``np.matmul`` calls.

        Each call gathers the R sampled slices of H and c, or of Q and a, into
        buffers allocated here once, then evaluates all rows with stacked
        ``np.matmul`` calls.  numpy runs the same BLAS kernel on each slice of
        a stack as on a single product (gemv for a matrix times a point, dot
        for two points), so every row is bit-equal to the per-row oracle; an
        ``einsum`` contraction is not.  b is looked up per row from a list.
        The indices are not range-checked.
        """
        d, n, p = self.data, self.n, self.p
        H, c, Q, a = d.H, d.c, d.Q, d.a
        b = d.b.tolist()
        Hs, cs = np.empty((R, p, n)), np.empty((R, p))
        HsT, cs3 = Hs.transpose(0, 2, 1), cs[:, :, None]
        res, g = np.empty((R, p, 1)), np.empty((R, n, 1))
        Qs, As = np.empty((R, n, n)), np.empty((R, 1, n))
        As2 = As.reshape(R, n)
        Qx, xQx, ax = np.empty((R, n, 1)), np.empty((R, 1, 1)), np.empty((R, 1, 1))
        g2, Qx2, xQx1, ax1 = g.reshape(R, n), Qx.reshape(R, n), xQx.reshape(R), ax.reshape(R)
        grads = np.empty((R, n))

        def stoch_objective_grads(xis, X):
            H.take(xis, 0, Hs, "clip")
            c.take(xis, 0, cs, "clip")
            np.matmul(Hs, X[:, :, None], out=res)
            np.subtract(res, cs3, out=res)
            np.matmul(HsT, res, out=g)
            return g2

        def values(J, X):
            """f_j(x) per row, as a list of floats; Q_j x is left in Qx."""
            Q.take(J, 0, Qs, "clip")
            a.take(J, 0, As2, "clip")
            Xc = X[:, :, None]
            np.matmul(Qs, Xc, out=Qx)
            np.matmul(X[:, None, :], Qx, out=xQx)
            np.matmul(As, Xc, out=ax)
            return [0.5 * q + v - b[j]
                    for q, v, j in zip(xQx1.tolist(), ax1.tolist(), J.tolist())]

        def constraints(I, X):
            fvals = values(I, X)
            return fvals, np.add(Qx2, As2, out=grads)

        return stoch_objective_grads, constraints, values

    def constraint_curvatures(self):
        """Frobenius norms of the Q_j (read-only, cached), chunk by chunk."""
        if self._qnorms is None:
            Q = self.data.Q
            self._qnorms = np.concatenate(
                [np.linalg.norm(Q[rows], axis=(1, 2)) for rows in _chunks(self.m, self.n)]
            )
            self._qnorms.flags.writeable = False
        return self._qnorms

    def gradient_statistics(self):
        """``(S2, v, c0)`` with ``sum_j ||Q_j x + a_j||^2 = x'S2x + 2v'x + c0``.

        ``S2 = sum_j Q_j^2``, ``v = sum_j Q_j a_j`` and ``c0 = sum_j ||a_j||^2``
        (cached; S2 and v read-only).  Q is read once, chunk by chunk: the
        Q_j of a chunk, stacked as rows, give their sum of squares as one
        Gram product (exactly symmetric) and their sum of Q_j a_j as one
        product with the stacked a_j.
        """
        if self._grad_stats is None:
            n, Q, a = self.n, self.data.Q, self.data.a
            S2, v = np.zeros((n, n)), np.zeros(n)
            for rows in _chunks(self.m, n):
                A = Q[rows].reshape(-1, n)
                S2 += A.T @ A
                v += A.T @ a[rows].reshape(-1)
            S2.flags.writeable = v.flags.writeable = False
            self._grad_stats = (S2, v, float(np.einsum("jn,jn->", a, a)))
        return self._grad_stats

    def constraint_screen(self):
        """A screen that evaluates only the constraints that can be positive.

        A full pass at an anchor x_a gives ``F = f(x_a)`` and ``G = grad
        f(x_a)``.  Q_j is symmetric (``QcqpData``) and ``||Q_j||_2 <= q_j``,
        its Frobenius norm, so at ``x = x_a + D``

            f_j(x) <= F_j + G_j'D + (1/2) q_j ||D||^2.

        A constraint is evaluated when ``keep[j]`` is set or this bound plus
        the margin ``4 (n+2)^2 eps (q_j s^2 + ||a_j|| s + |b_j|)``,
        ``s = ||x|| + ||x_a||``, is >= 0; the margin covers the rounding of
        f_j at x and of the bound (``notes/decisions.md``).  The candidates
        are gathered and evaluated with the products of
        ``constraint_values_and_grads``, at most _CHUNK_BYTES of Q at a time.
        When they outgrow those at the anchor by _SCREEN_SHARE of m, or pass
        half of m, x becomes the new anchor: one full pass, which also serves
        the first call.  ``grad_sq`` comes from ``gradient_statistics()``.
        """
        n, m, Q, a, b = self.n, self.m, self.data.Q, self.data.a, self.data.b
        qn = self.constraint_curvatures()
        S2, v, c0 = self.gradient_statistics()
        slack = 4.0 * (n + 2) ** 2 * np.finfo(float).eps
        qs, an, ab = slack * qn, slack * np.linalg.norm(a, axis=1), slack * np.abs(b)
        rows = max(1, _CHUNK_BYTES // (8 * n * n))
        Qs = np.empty((min(rows, m), n, n))
        xa = F = G = None  # the anchor and the full pass there
        limit = 0.0  # candidate count past which the screen re-anchors

        def candidates(x, keep):
            D = x - xa
            s = math.sqrt(float(x @ x)) + math.sqrt(float(xa @ xa))
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
            nonlocal xa, F, G, limit
            grad_sq = max(float(x @ (S2 @ x)) + 2.0 * float(v @ x) + c0, 0.0)
            if xa is not None:
                idx = candidates(x, keep)
                if len(idx) <= limit:
                    return (idx, *evaluate(idx, x), grad_sq)
            F, G = self.constraint_values_and_grads(x)
            xa = x.copy()
            idx = candidates(x, keep)
            limit = min(len(idx) + _SCREEN_SHARE * m, 0.5 * m)
            return idx, F[idx], G[idx], grad_sq

        return screen


def random_qcqp(n, p, N, m, seed) -> QuadraticInstance:
    """Random QCQP benchmark instance on the box [-10, 10]^n.

    ``H_i``, ``c_i`` and ``a_j`` have i.i.d. standard normal entries;
    ``Q_j = M_j M_j'/n`` with ``M_j`` standard normal, PSD by construction
    and with O(1) 2-norm; ``b_j`` is uniform on [0.1, 1.1], which
    makes the origin strictly feasible.  Deterministic given the seed.

    ``M`` is drawn in 1 MiB chunks, and each ``Q_j`` is built from its
    upper-triangular blocks of ``_GRAM_BLOCK`` rows and columns, each
    mirrored into its transpose.  ``Q`` is exactly symmetric and bit-equal to
    the Gram product of one draw of all of ``M``.
    """
    n, p, N, m = int(n), int(p), int(N), int(m)
    if min(n, p, N, m) < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n} p={p} N={N} m={m}")
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((N, p, n))
    c = rng.standard_normal((N, p))
    # Q in chunks of M: successive draws continue one stream, and each Q_j
    # depends on M_j alone, so Q is bit-equal to the one-draw build while
    # only one chunk of M is alive.  Within a chunk, each entry of a block is
    # the same length-n einsum dot product of two contiguous rows of M as in
    # one call over the chunk, and rows i, j give the same sum in either
    # order, so the blocks I <= J and their mirrors are that call's bits.
    Q = np.empty((m, n, n))
    blocks = [slice(lo, min(lo + _GRAM_BLOCK, n)) for lo in range(0, n, _GRAM_BLOCK)]
    for rows in _chunks(m, n):
        M = rng.standard_normal((rows.stop - rows.start, n, n))
        Qc = Q[rows]
        for i, I in enumerate(blocks):
            for J in blocks[i:]:
                np.einsum("mik,mjk->mij", M[:, I], M[:, J], out=Qc[:, I, J])
                if J is not I:
                    Qc[:, J, I] = Qc[:, I, J].transpose(0, 2, 1)
        del M  # before the next draw, which would otherwise overlap it
    Q /= n
    a = rng.standard_normal((m, n))
    b = rng.uniform(0.1, 1.1, m)
    box = 10.0 * np.ones(n)
    return QuadraticInstance(QcqpData(H, c, Q, a, b, -box, box))


def random_scenario_lp(n, m, second_stage_dim, seed) -> QuadraticInstance:
    """Scenario family: affine constraints, strongly convex quadratic objective.

    The objective is (1/2N) sum_i ||x - c_i||^2 with ``N = second_stage_dim``
    scenario pieces around a common random target, so its Hessian is exactly
    the identity (modulus 1) and the stochastic oracle averages over the
    pieces.  Constraint rows have i.i.d. N(0, 1/n) entries and right-hand
    sides uniform on [0.1, 1.1], leaving the origin strictly feasible.
    """
    n, m, N = int(n), int(m), int(second_stage_dim)
    if min(n, m, N) < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n} m={m} N={N}")
    rng = np.random.default_rng(seed)
    # modest target and piece spread: some seeds are constrained at the
    # optimum, others leave it interior, so both regimes are available
    target = 0.1 * rng.standard_normal(n)
    c = target[None, :] + 0.3 * rng.standard_normal((N, n))
    H = np.broadcast_to(np.eye(n), (N, n, n)).copy()
    Q = np.zeros((m, n, n))
    a = rng.standard_normal((m, n)) / math.sqrt(n)
    b = rng.uniform(0.1, 1.1, m)
    box = 10.0 * np.ones(n)
    return QuadraticInstance(QcqpData(H, c, Q, a, b, -box, box))


def box_radius(box_lo, box_hi) -> float:
    """Euclidean radius of the box seen from the origin: sup of ||x|| over it."""
    corner = np.maximum(np.abs(box_lo), np.abs(box_hi))
    return float(np.linalg.norm(corner))


def certify_constants(inst: QuadraticInstance, samples=16, rng_seed=0) -> TheoryConstants:
    """Certified F, G bounds plus empirical sigma and the modulus mu.

    F and G come from the closed forms ``F_j = 0.5||Q_j|| R^2 + ||a_j|| R + |b_j|``
    and ``G_j = ||Q_j|| R + ||a_j||`` with R the box radius; ``||Q_j||`` is
    upper-bounded by the Frobenius norm.  sigma is the largest sample
    standard deviation of the stochastic gradient over ``samples`` uniform
    points of the box (an estimate, not a certificate; 0 when ``samples`` is
    0).  mu is the exact smallest Hessian eigenvalue on
    instances small enough to factor, else 0 with ``mu_exact=False``.

    The sample points are handled together: H is read twice for sigma
    (residuals, then per-sample gradients) and once for the Hessian.
    """
    if not isinstance(inst, QuadraticInstance):
        raise TypeError("certification requires a QuadraticInstance")
    samples = int(samples)
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    data = inst.data
    R = box_radius(inst.box_lo, inst.box_hi)
    qnorm = inst.constraint_curvatures()
    anorm = np.linalg.norm(data.a, axis=1)
    G = float(np.max(qnorm * R + anorm))
    F = float(np.max(0.5 * qnorm * R * R + anorm * R + np.abs(data.b)))

    # one draw gives the same points as `samples` successive draws
    X = np.random.default_rng(rng_seed).uniform(
        inst.box_lo, inst.box_hi, size=(samples, inst.n)
    )
    # residuals H_i x - c_i for every sample point: (N, p, S).  One small GEMM
    # per H_i, not one over the stacked rows: a GEMM that large wakes the
    # BLAS worker threads, which then spin beside the single-threaded run loop.
    resid = data.H @ X.T
    resid -= data.c[:, :, None]
    # per-sample gradients H_i'(H_i x - c_i): (N, n, S); deviation taken in place
    grads = data.H.transpose(0, 2, 1) @ resid
    grads -= grads.mean(axis=0)
    np.square(grads, out=grads)
    msd = grads.sum(axis=(0, 1)) / inst.N
    sigma = math.sqrt(float(msd.max(initial=0.0)))

    eigs = inst._hessian_eigenvalues()
    mu_exact = eigs is not None
    mu = max(float(eigs[0]), 0.0) if mu_exact else 0.0
    return TheoryConstants(F=F, G=G, sigma=sigma, mu=mu, mu_exact=mu_exact)


# -- scenario sizing ---------------------------------------------------------


def _log_binom(n, k) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_discard_lhs(N, n, tau, p) -> float:
    """Log of C(p+n-1, p) * sum_{i<=p+n-1} C(N,i) tau^i (1-tau)^(N-i)."""
    k = p + n - 1
    log_tau = math.log(tau)
    log_1mtau = math.log1p(-tau)
    terms = [
        _log_binom(N, i) + i * log_tau + (N - i) * log_1mtau for i in range(k + 1)
    ]
    top = max(terms)
    tail = math.log(sum(math.exp(t - top) for t in terms))
    return _log_binom(p + n - 1, p) + top + tail


_N_CAP = 10**9


def scenario_count_discarding(n, tau, eps, p=0) -> int:
    """Smallest sample count N making the discarding bound hold.

    Returns the least N >= p + n with
    ``C(p+n-1, p) * sum_{i=0}^{p+n-1} C(N,i) tau^i (1-tau)^(N-i) <= eps``.
    The left side is evaluated in log space (log-gamma binomials) and is
    nonincreasing in N, so a galloping search plus bisection finds the
    minimum.
    """
    n, p = int(n), int(p)
    if n < 1 or p < 0:
        raise ValueError(f"need n >= 1 and p >= 0, got n={n}, p={p}")
    if not (0.0 < tau < 1.0 and 0.0 < eps < 1.0):
        raise ValueError("tau and eps must lie in (0, 1)")
    log_eps = math.log(eps)
    lo = p + n
    if _log_discard_lhs(lo, n, tau, p) <= log_eps:
        return lo
    hi = lo
    while True:
        lo = hi
        hi = min(2 * hi, _N_CAP)
        if _log_discard_lhs(hi, n, tau, p) <= log_eps:
            break
        if hi >= _N_CAP:
            raise CapacityError(f"no N <= {_N_CAP} satisfies the bound")
    # invariant: lhs(lo) > eps >= lhs(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_discard_lhs(mid, n, tau, p) <= log_eps:
            hi = mid
        else:
            lo = mid
    return hi


def scenario_count_robust(n, tau, eps) -> int:
    """Sample count ``ceil(n/(tau*eps) - 1)`` for robust feasibility by sampling."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < tau < 1.0 and 0.0 < eps < 1.0):
        raise ValueError("tau and eps must lie in (0, 1)")
    val = n / (tau * eps) - 1.0
    if not math.isfinite(val):
        raise CapacityError("robust sampling bound overflows")
    # nudge by one ulp-scale unit so exact integers survive float division
    return max(1, math.ceil(val - 1e-9))


# -- serialization -----------------------------------------------------------


def _arrays(data: QcqpData):
    """The seven arrays in file order."""
    return (data.H, data.c, data.Q, data.a, data.b, data.box_lo, data.box_hi)


def _array_shapes(n, p, N, m):
    return ((N, p, n), (N, p), (m, n, n), (m, n), (m,), (n,), (n,))


def _instance_parts(inst: QuadraticInstance):
    """The version-1 serialization, part by part: the header bytes, then each
    array as contiguous little-endian float64 (no copy when it already is)."""
    yield _HEADERS[1].pack(_MAGIC, 1, inst.n, inst.p, inst.N, inst.m)
    for arr in _arrays(inst.data):
        yield np.ascontiguousarray(arr, dtype="<f8")


def save_instance(inst: QuadraticInstance, path) -> None:
    """Write the version-2 container; round-trips bit-exactly via load_instance.

    Each part is hashed as it is written, in one pass over the arrays; the
    header, digest included, is written last and the digest cached on the
    instance, so neither this instance nor the file loaded from it is hashed
    again.  Until then the header is zeros, so a save cut short leaves a
    file that load_instance refuses.
    """
    h = hashlib.sha256()
    parts = _instance_parts(inst)
    h.update(next(parts))
    header = _HEADERS[2]
    with open(path, "wb") as fh:
        fh.write(bytes(header.size))
        for part in parts:
            h.update(part)
            fh.write(part)
        fh.seek(0)
        fh.write(header.pack(_MAGIC, 2, inst.n, inst.p, inst.N, inst.m, h.digest()))
    inst._digest = h.hexdigest()


def instance_bytes(inst: QuadraticInstance) -> bytes:
    """Version-1 serialization: magic, version byte, u64 dims (n, p, N, m),
    f64 arrays.  ``instance_digest`` is its SHA-256."""
    return b"".join(_instance_parts(inst))


def load_instance(path) -> QuadraticInstance:
    """Read an instance container written by save_instance.

    The float payload is read once into one aligned array; the instance's
    arrays are read-only views of it.  A version-2 header's digest becomes
    the instance's, unchecked; a version-1 file is hashed when its digest is
    first asked for.  A header that disagrees with the file size, NaN or
    infinite data, and a Q_j that is not exactly symmetric raise ValueError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADERS[1].size)
        if head[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not an instance file (bad magic)")
        if len(head) < _HEADERS[1].size:
            raise ValueError(f"{path}: truncated header ({len(head)} of {_HEADERS[1].size} bytes)")
        header = _HEADERS.get(head[8])
        if header is None:
            raise ValueError(f"{path}: unsupported container version {head[8]}")
        head += fh.read(header.size - len(head))
        if len(head) < header.size:
            raise ValueError(f"{path}: truncated header ({len(head)} of {header.size} bytes)")
        _, _, n, p, N, m, *digest = header.unpack(head)
        if min(n, p, N, m) < 1:
            raise ValueError(f"{path}: dimensions must be >= 1, got n={n} p={p} N={N} m={m}")
        shapes = _array_shapes(n, p, N, m)
        # Python integers: huge header dimensions cannot overflow here
        sizes = [math.prod(shape) for shape in shapes]
        expected = header.size + 8 * sum(sizes)
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ValueError(
                f"{path}: header n={n} p={p} N={N} m={m} needs {expected} bytes, "
                f"file has {actual}"
            )
        payload = np.empty(sum(sizes), dtype="<f8")
        got = fh.readinto(payload)
        if got != payload.nbytes:
            raise ValueError(f"{path}: read {got} of {payload.nbytes} payload bytes")
    arrays, off = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(payload[off : off + size].reshape(shape))
        off += size
    _check_payload(path, arrays)
    inst = QuadraticInstance(QcqpData(*arrays))
    if digest:
        inst._digest = digest[0].hex()
    return inst


def _check_payload(path, arrays):
    """Raise ValueError unless every value is finite and every Q_j symmetric.

    One pass in pieces of at most _CHUNK_BYTES, so that each piece of Q is
    compared with its transpose while it is still in cache.
    """
    Q = arrays[2]
    for arr in arrays:
        rows = max(1, _CHUNK_BYTES // (arr.itemsize * (arr.size // len(arr))))
        for lo in range(0, len(arr), rows):
            piece = arr[lo : lo + rows]
            if not np.isfinite(piece).all():
                raise ValueError(f"{path}: instance data holds NaN or infinite values")
            if arr is Q:
                symmetric = (piece == piece.transpose(0, 2, 1)).all(axis=(1, 2))
                if not symmetric.all():
                    j = lo + int(np.argmin(symmetric))
                    raise ValueError(f"{path}: constraint matrix Q_{j} is not symmetric")


def instance_digest(inst: QuadraticInstance) -> str:
    """Content hash of the serialized instance (reference-cache key): the
    SHA-256 of ``instance_bytes(inst)``.

    Streamed part by part and computed once per instance, on first use; the
    instance's arrays are read-only, so the cached value cannot go stale.  An
    instance saved or loaded as version 2 already holds it (save_instance).
    """
    if inst._digest is None:
        h = hashlib.sha256()
        for part in _instance_parts(inst):
            h.update(part)
        inst._digest = h.hexdigest()
    return inst._digest

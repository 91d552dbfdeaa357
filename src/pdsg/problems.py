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

import contextlib
import hashlib
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError

_MAGIC = b"QCPDINST"
# the header of an instance file, container version 4: magic, version byte,
# u64 dims (n, p, N, m), the instance digest and seven zero bytes, so that
# the float64 arrays that follow start at byte 80, 8-byte aligned in a
# mapping; after the arrays comes the statistics section (_statistics_shapes)
_HEADER = struct.Struct("<8sB4Q32s7s")
_VERSION = 4
# the version-1 header (magic, version byte 1, the dims): the start of the
# digest's input (instance_bytes), kept so that every digest keeps its value
_DIGEST_HEADER = struct.Struct("<8sB4Q")
# bytes of an (m, n, n) array handled at a time, so that a pass over Q
# allocates no temporary of Q's size
_CHUNK_BYTES = 1 << 20
# rows and columns of one block of a Gram product that ``random_qcqp`` forms
# (upper blocks only, then mirrored); fastest at n = 100 in a sweep over
# block sizes (notes/decisions.md), and a single block at n <= 20
_GRAM_BLOCK = 20
# bytes of the (rows, n, s) products one step of ``measure`` holds, and of
# the squares ``_row_squares`` forms at a time; small enough to come from the
# heap, so measuring a tick of many runs at once raises no peak
_MEASURE_BYTES = 1 << 16
# growth of a constraint screen's candidates since its anchor, as a share of
# m, past which it takes a new anchor (one full pass) rather than gather them
_SCREEN_SHARE = 0.125


def _chunks(m, *shape):
    """Row slices of an (m, *shape) float64 array, each of at most
    _CHUNK_BYTES (at least one row)."""
    rows = max(1, _CHUNK_BYTES // (8 * math.prod(shape)))
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _row_squares(arr):
    """The sums of squares of the rows of an (m, ...) array, bit-equal to
    ``np.sum(arr * arr, axis=1)`` of an (m, k) array and to the sums under
    the square root of ``np.linalg.norm(arr, axis=(1, 2))`` of an (m, n, n)
    one: numpy reduces each row's squares as one contiguous run in all
    three.  The squares are formed _MEASURE_BYTES of rows at a time (at
    least one row) in one buffer: small enough to come from the heap and be
    reused, where a temporary of arr's size, or of _CHUNK_BYTES, freed below
    the top of the heap, stays resident and adds to every later peak."""
    m, k = len(arr), math.prod(arr.shape[1:])
    rows = max(1, _MEASURE_BYTES // (8 * k))
    out, buf = np.empty(m), np.empty((min(rows, m), *arr.shape[1:]))
    for lo in range(0, m, rows):
        part = arr[lo : lo + rows]
        squares = np.multiply(part, part, out=buf[: len(part)])
        np.add.reduce(squares.reshape(len(part), k), axis=1, out=out[lo : lo + len(part)])
    return out


def _leading_sum(N, shape, axes, rows, fill):
    """``np.add.reduce(stack, axis=tuple(range(axes)))`` of an (N, *shape)
    stack that is never formed whole: ``fill(part, out)`` forms the rows
    ``part``, a slice of at most ``rows`` of them, into ``out``.

    Bit-equal to the one-pass sum.  numpy reduces leading axes by adding
    their items (the trailing ``shape[axes - 1:]`` blocks) one by one, in
    order, to a running sum when an item holds more than one number, so each
    chunk is formed in a buffer right after the running sum and the two are
    reduced together.  A stack of single numbers numpy sums pairwise, in one
    call over all of it: then the whole stack (N numbers per entry of
    ``shape[:axes - 1]``) is formed and summed at once.
    """
    per, item = math.prod(shape[: axes - 1]), shape[axes - 1 :]
    gather = math.prod(item) == 1
    buf = np.zeros((N * per if gather else min(rows, N) * per + 1, *item))
    for lo in range(0, N, rows):
        part = slice(lo, min(lo + rows, N))
        # gathered in place, or right after the running sum buf[0]
        at, k = (lo * per if gather else 1), (part.stop - lo) * per
        fill(part, buf[at : at + k].reshape(-1, *shape))
        if not gather:
            buf[0] = np.add.reduce(buf[: 1 + k], axis=0)
    return np.add.reduce(buf, axis=0) if gather else buf[0]


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
    certified bound) and ``mu`` is the objective's exact strong-convexity
    modulus.
    """

    F: float
    G: float
    sigma: float
    mu: float


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
        beside the single-threaded run loop.  The products are formed and
        summed at most _CHUNK_BYTES of H at a time, in sample order
        (``_leading_sum``), bit-equal to summing all N at once.  r is f0 at
        the origin, (1/2) mean_i ||c_i||^2, with the squared norms taken a
        few rows of c at a time (``_row_squares``).
        """
        if self._linear is None:
            H, c, n = self.data.H, self.data.c, self.n

            def products(part, out):
                np.matmul(c[part, None, :], H[part], out=out)

            rows = max(1, _CHUNK_BYTES // (8 * self.p * n))
            q = _leading_sum(self.N, (1, n), 1, rows, products)[0] / self.N
            q.flags.writeable = False
            self._linear = (q, float(0.5 * np.mean(_row_squares(c))))
        return self._linear

    def _objective_values(self, X):
        """f0 at each row of X (s, n) from (P, q, r)."""
        q, r = self.linear_terms()
        return 0.5 * np.einsum("si,si->s", X @ self.hessian(), X) - X @ q + r

    def _hessian_eigenvalues(self):
        """Ascending eigenvalues of the Hessian (read-only, cached)."""
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.hessian())
            self._eigenvalues.flags.writeable = False
        return self._eigenvalues

    def objective_curvature(self) -> float:
        return float(self._hessian_eigenvalues()[-1])

    def statistics(self):
        """The quadratic statistics, in the order of a version-4 file's
        statistics section: ``P = hessian()``, ``(q, r) = linear_terms()``,
        the constraint curvatures and the Hessian eigenvalues.  Each is
        computed here unless already cached."""
        q, r = self.linear_terms()
        return {"P": self.hessian(), "q": q, "r": r,
                "curvatures": self.constraint_curvatures(),
                "eigenvalues": self._hessian_eigenvalues()}

    # -- constraints ----------------------------------------------------------

    def constraint(self, j, x):
        Qx = self.data.Q[j] @ x
        val = 0.5 * float(x @ Qx) + float(self.data.a[j] @ x) - float(self.data.b[j])
        return val, Qx + self.data.a[j]

    def constraint_value(self, j, x) -> float:
        Qx = self.data.Q[j] @ x
        return 0.5 * float(x @ Qx) + float(self.data.a[j] @ x) - float(self.data.b[j])

    def constraint_values_and_grads(self, x):
        """Both from one ``Q @ x``: the values first, then ``a`` added into
        ``Q x`` in place as the gradients, so the pass allocates the arrays
        it returns and (m,) temporaries."""
        Qx = self.data.Q @ x
        fvals = 0.5 * (Qx @ x) + self.data.a @ x - self.data.b
        Qx += self.data.a
        return fvals, Qx

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

    def constraint_curvatures(self):
        """Frobenius norms of the Q_j (read-only, cached): the square roots
        of their sums of squares (``_row_squares``), so the pass holds at
        most _MEASURE_BYTES of squares, or one Q_j's, besides the norms."""
        if self._qnorms is None:
            self._qnorms = np.sqrt(_row_squares(self.data.Q))
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
            for rows in _chunks(self.m, n, n):
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
        ``constraint_values_and_grads``, at most _CHUNK_BYTES of Q at a time,
        into a buffer allocated per call and sized to the candidates, so the
        screen holds nothing of Q between calls.  When they outgrow those at
        the anchor by _SCREEN_SHARE of m, or pass half of m, x becomes the
        new anchor: one full pass, which also serves the first call.
        ``grad_sq`` comes from ``gradient_statistics()``.
        """
        n, m, Q, a, b = self.n, self.m, self.data.Q, self.data.a, self.data.b
        qn = self.constraint_curvatures()
        S2, v, c0 = self.gradient_statistics()
        slack = 4.0 * (n + 2) ** 2 * np.finfo(float).eps
        qs, ab = slack * qn, slack * np.abs(b)
        an = slack * np.sqrt(_row_squares(a))
        rows = max(1, _CHUNK_BYTES // (8 * n * n))
        xa = xa_norm = F = G = None  # the anchor, its norm and the full pass there
        limit = 0.0  # candidate count past which the screen re-anchors

        def candidates(x, keep):
            D = x - xa
            s = math.sqrt(float(x @ x)) + xa_norm
            upper = F + np.einsum("jn,n->j", G, D)
            upper += (0.5 * float(D @ D)) * qn + (qs * (s * s) + an * s + ab)
            return np.flatnonzero(keep | (upper >= 0.0))

        def evaluate(idx, x):
            Qx, Qs = np.empty((len(idx), n)), np.empty((min(rows, len(idx)), n, n))
            for lo in range(0, len(idx), rows):
                part = idx[lo:lo + rows]
                np.matmul(Q.take(part, 0, Qs[: len(part)], "clip"), x, out=Qx[lo:lo + len(part)])
            ai = a[idx]
            fvals = 0.5 * (Qx @ x) + ai @ x - b[idx]
            Qx += ai
            return fvals, Qx

        def screen(x, keep):
            nonlocal xa, xa_norm, F, G, limit
            grad_sq = max(float(x @ (S2 @ x)) + 2.0 * float(v @ x) + c0, 0.0)
            if xa is not None:
                idx = candidates(x, keep)
                if len(idx) <= limit:
                    return (idx, *evaluate(idx, x), grad_sq)
            F, G = self.constraint_values_and_grads(x)
            xa = x.copy()
            xa_norm = math.sqrt(float(xa @ xa))
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
    for rows in _chunks(m, n, n):
        M = rng.standard_normal((rows.stop - rows.start, n, n))
        Qc = Q[rows]
        for i, I in enumerate(blocks):
            for J in blocks[i:]:
                np.einsum("mik,mjk->mij", M[:, I], M[:, J], out=Qc[:, I, J])
                if J is not I:
                    Qc[:, J, I] = Qc[:, I, J].transpose(0, 2, 1)
        Qc /= n  # while the chunk is still in cache
        del M  # before the next draw, which would otherwise overlap it
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
    points of the box (an estimate, not a certificate; 0, reading nothing of
    H, when ``samples`` is 0).  mu is the smallest Hessian eigenvalue,
    clipped at 0.

    The curvatures and the eigenvalues are the instance's cached statistics:
    loaded from a file, they read neither H nor Q, and otherwise
    each is computed once, on first use (the eigenvalues from ``hessian()``,
    one product over H).  sigma comes from two passes over H that handle the
    sample points together, at most _CHUNK_BYTES at a time (``_sigma``).
    """
    if not isinstance(inst, QuadraticInstance):
        raise TypeError("certification requires a QuadraticInstance")
    samples = int(samples)
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    data = inst.data
    R = box_radius(inst.box_lo, inst.box_hi)
    qnorm = inst.constraint_curvatures()
    anorm = np.sqrt(_row_squares(data.a))
    G = float(np.max(qnorm * R + anorm))
    F = float(np.max(0.5 * qnorm * R * R + anorm * R + np.abs(data.b)))

    sigma = 0.0
    if samples:
        # one draw gives the same points as `samples` successive draws
        X = np.random.default_rng(rng_seed).uniform(
            inst.box_lo, inst.box_hi, size=(samples, inst.n)
        )
        sigma = _sigma(inst, X)

    mu = max(float(inst._hessian_eigenvalues()[0]), 0.0)
    return TheoryConstants(F=F, G=G, sigma=sigma, mu=mu)


def _sigma(inst, X):
    """The largest sample standard deviation of the stochastic gradient over
    the points X (S, n), from two passes over H.

    The per-sample gradients H_i'(H_i x - c_i) at all S points, an (N, n, S)
    stack, are never held whole: the first pass sums them for their mean,
    the second sums their squared deviations from it, each chunk of samples
    formed and folded in order (``_leading_sum``), so sigma is bit-equal to
    the one-pass form.  A chunk reads at most _CHUNK_BYTES of H and forms at
    most that much of residuals and gradients.  The mean is not taken from
    ``hessian() x - q``, whose rounding differs from the samples' own mean:
    at N = 1 the deviation must be exactly 0.
    """
    N, n, p, S = inst.N, inst.n, inst.p, len(X)
    H, c, XT = inst.data.H, inst.data.c, X.T
    rows = max(1, _CHUNK_BYTES // (8 * max(p * n, (p + n) * S)))
    resid = np.empty((min(rows, N), p, S))

    def grads(part, out):
        # one small GEMM per H_i, not one over the stacked rows: a GEMM that
        # large wakes the BLAS worker threads, which then spin beside the
        # single-threaded run loop
        r = resid[: part.stop - part.start]
        np.matmul(H[part], XT, out=r)
        r -= c[part, :, None]
        np.matmul(H[part].transpose(0, 2, 1), r, out=out)

    mean = _leading_sum(N, (n, S), 1, rows, grads) / N

    def squared_deviations(part, out):
        grads(part, out)
        out -= mean
        np.square(out, out=out)

    msd = _leading_sum(N, (n, S), 2, rows, squared_deviations) / N
    return math.sqrt(float(msd.max(initial=0.0)))


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
    nonincreasing in N, so once ``_N_CAP`` passes, one bisection over
    [p + n, ``_N_CAP``] finds the minimum.
    """
    n, p = int(n), int(p)
    if n < 1 or p < 0:
        raise ValueError(f"need n >= 1 and p >= 0, got n={n}, p={p}")
    if not (0.0 < tau < 1.0 and 0.0 < eps < 1.0):
        raise ValueError("tau and eps must lie in (0, 1)")
    log_eps = math.log(eps)
    if _log_discard_lhs(_N_CAP, n, tau, p) > log_eps:
        raise CapacityError(f"no N <= {_N_CAP} satisfies the bound")
    # invariant: lo < p + n or lhs(lo) > eps, and lhs(hi) <= eps
    lo, hi = p + n - 1, _N_CAP
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


# each of the seven arrays' name and what one of its rows is, in file order:
# the words with which a refused file's message locates a bad value
_ROW_NAMES = (("H", "sample"), ("c", "sample"), ("Q", "constraint"), ("a", "constraint"),
              ("b", "constraint"), ("box_lo", "entry"), ("box_hi", "entry"))


def _array_shapes(n, p, N, m):
    return ((N, p, n), (N, p), (m, n, n), (m, n), (m,), (n,), (n,))


def _statistics_shapes(n, m):
    """The arrays of a version-4 statistics section, after the seven: P, q,
    r, the constraint curvatures and the Hessian eigenvalues
    (``QuadraticInstance.statistics``)."""
    return ((n, n), (n,), (), (m,), (n,))


def _instance_parts(inst: QuadraticInstance):
    """The version-1 serialization, part by part: the header bytes, then each
    array as contiguous little-endian float64 (no copy when it already is)."""
    yield _DIGEST_HEADER.pack(_MAGIC, 1, inst.n, inst.p, inst.N, inst.m)
    for arr in _arrays(inst.data):
        yield np.ascontiguousarray(arr, dtype="<f8")


@contextlib.contextmanager
def replacing(path, mode="wb"):
    """A new file, open for writing beside ``path``, that is renamed over
    ``path`` when the block ends; a block that raises removes it and leaves
    ``path`` as it was.  Readers never see a partial file, and a file that a
    loaded instance maps is replaced, never truncated: reading a page that
    was cut off under a mapping ends the process with SIGBUS."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_instance(inst: QuadraticInstance, path) -> None:
    """Write the version-4 container; round-trips bit-exactly via load_instance.

    After the arrays comes the statistics section, the values of
    ``inst.statistics()`` as little-endian float64: those already cached, and
    the others computed here.  Each part of the arrays is hashed as it is
    written, in one pass; the section is not hashed, so the digest stays the
    SHA-256 of ``instance_bytes``.  The header, digest included, is written
    last and the digest cached on the instance, so neither this instance nor
    the file loaded from it is hashed again.  Until then the header is zeros,
    so a file cut short is one that load_instance refuses.  The file is
    written beside ``path`` and renamed over it (``replacing``).
    """
    stats = inst.statistics().values()
    h = hashlib.sha256()
    parts = _instance_parts(inst)
    h.update(next(parts))
    with replacing(path) as fh:
        fh.write(bytes(_HEADER.size))
        for part in parts:
            h.update(part)
            fh.write(part)
        for value in stats:
            fh.write(np.ascontiguousarray(value, dtype="<f8"))
        fh.seek(0)
        fh.write(_HEADER.pack(_MAGIC, _VERSION, inst.n, inst.p, inst.N, inst.m, h.digest(), b""))
    inst._digest = h.hexdigest()


def instance_bytes(inst: QuadraticInstance) -> bytes:
    """Version-1 serialization: magic, version byte, u64 dims (n, p, N, m),
    f64 arrays.  ``instance_digest`` is its SHA-256."""
    return b"".join(_instance_parts(inst))


def load_instance(path) -> QuadraticInstance:
    """Read an instance file written by save_instance (container version 4).

    The file is mapped read-only, not read: the payload starts at byte 80,
    and the instance's arrays are read-only views of the mapping, so loading
    copies nothing.  The header's digest becomes the instance's, unchecked,
    and the statistics section the instance's lazy caches, checked but not
    recomputed (``_adopt_statistics``).  Any other version byte, a header
    cut short or that disagrees with the file size, non-zero padding, NaN or
    infinite data, a Q_j that is not exactly symmetric and statistics that
    fail their checks raise ValueError.  The data are checked in one pass of
    two reductions and one comparison per piece (``_check_payload``), which
    is most of the time a load takes; a refusal of non-finite data names the
    array and the first offending row.

    A mapped file must be replaced, not rewritten in place (``replacing``).
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not an instance file (bad magic)")
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header ({len(head)} of {_HEADER.size} bytes)")
        _, version, n, p, N, m, digest, pad = _HEADER.unpack(head)
        if version != _VERSION:
            raise ValueError(
                f"{path}: unsupported container version {version} (this library reads "
                f"version {_VERSION}); write the file again with `pdsg generate`: the same "
                "family, sizes and seed give the same instance and digest"
            )
        if any(pad):
            raise ValueError(f"{path}: non-zero padding in the header")
        if min(n, p, N, m) < 1:
            raise ValueError(f"{path}: dimensions must be >= 1, got n={n} p={p} N={N} m={m}")
        shapes = _array_shapes(n, p, N, m) + _statistics_shapes(n, m)
        # Python integers: huge header dimensions cannot overflow here
        sizes = [math.prod(shape) for shape in shapes]
        expected = _HEADER.size + 8 * sum(sizes)
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ValueError(
                f"{path}: header n={n} p={p} N={N} m={m} needs {expected} bytes, "
                f"file has {actual}"
            )
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    payload = np.frombuffer(mapping, "<f8", sum(sizes), _HEADER.size)
    arrays, off = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(payload[off : off + size].reshape(shape))
        off += size
    _check_payload(path, arrays[:7])
    inst = QuadraticInstance(QcqpData(*arrays[:7]))
    _adopt_statistics(path, inst, *arrays[7:])
    inst._digest = digest.hex()
    return inst


def _check_payload(path, arrays):
    """Raise ValueError unless every value is finite and every Q_j symmetric.

    One pass, array by array in file order, in pieces of at most
    _CHUNK_BYTES (``_chunks``); each piece is checked for finiteness and
    then, in Q, for symmetry while it is still in cache.  A piece is finite
    when its max and its min are: both reductions propagate NaN, and they
    form no temporary, where ``np.isfinite`` writes a boolean array and reads
    it again.  A piece of Q is compared with its transpose by one
    ``np.array_equal``, whose boolean temporary is an eighth of the piece.
    Only when a test fails are the per-row flags formed that locate the bad
    value: its array and first offending row, or the first asymmetric Q_j.
    """
    for (name, row), arr in zip(_ROW_NAMES, arrays):
        for part in _chunks(*arr.shape):
            piece = arr[part]
            if not (math.isfinite(piece.max()) and math.isfinite(piece.min())):
                finite = np.isfinite(piece.reshape(len(piece), -1)).all(axis=1)
                i = part.start + int(np.argmin(finite))
                raise ValueError(
                    f"{path}: instance data holds NaN or infinite values ({name}, {row} {i})"
                )
            if name == "Q" and not np.array_equal(piece, piece.transpose(0, 2, 1)):
                symmetric = (piece == piece.transpose(0, 2, 1)).all(axis=(1, 2))
                j = part.start + int(np.argmin(symmetric))
                raise ValueError(f"{path}: constraint matrix Q_{j} is not symmetric")


def _adopt_statistics(path, inst, P, q, r, curvatures, eigenvalues):
    """Make a version-4 statistics section the lazy caches of ``inst``.

    The values are checked, not recomputed: P must be finite and exactly
    symmetric, q and r finite, the curvatures finite and >= 0, and the
    eigenvalues finite and ascending.  Anything else raises ValueError.
    They are read-only views of the mapped file.
    """
    r = float(r)
    checks = {
        "P": np.isfinite(P).all() and (P == P.T).all(),
        "q": np.isfinite(q).all(),
        "r": math.isfinite(r),
        "curvatures": np.isfinite(curvatures).all() and (curvatures >= 0.0).all(),
        "eigenvalues": np.isfinite(eigenvalues).all() and (np.diff(eigenvalues) >= 0.0).all(),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise ValueError(f"{path}: invalid statistics in the version-4 section: {', '.join(bad)}")
    inst._hessian, inst._linear, inst._qnorms = P, (q, r), curvatures
    inst._eigenvalues = eigenvalues


def instance_digest(inst: QuadraticInstance) -> str:
    """Content hash of the serialized instance (reference-cache key): the
    SHA-256 of ``instance_bytes(inst)``.

    Streamed part by part and computed once per instance, on first use; the
    instance's arrays are read-only, so the cached value cannot go stale.  An
    instance saved or loaded already holds it.
    """
    if inst._digest is None:
        h = hashlib.sha256()
        for part in _instance_parts(inst):
            h.update(part)
        inst._digest = h.hexdigest()
    return inst._digest

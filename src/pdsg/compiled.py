"""The compiled run kernel: ``_kernel.c``, built on first use and loaded with ctypes.

``solver._iterate`` runs the blocks of a ``QuadraticInstance`` on it.  The
C loop makes every product with the cblas function that numpy's matmul
calls for the same operands, taken from the BLAS library numpy has loaded,
so each row is bit-equal to ``solver._row_block`` and the step functions.

The library is built once per source, flags and compiler with
``cc -O2 -shared -fPIC -ffp-contract=off`` and cached beside the source in
``__pycache__`` (in a per-process temporary directory where that folder is
not writable).  Before its first use it runs a few short blocks against
``pdsg_step`` and ``mirror_prox_step``.  Where the compiler fails, the BLAS
symbols are missing or a bit differs, ``load`` returns None and every run
takes the per-row kernel.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import threading
from hashlib import sha256
from types import SimpleNamespace

import numpy as np

from . import problems
from .errors import DivergenceError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# the cblas names of numpy's BLAS builds; a "64_" suffix marks 64-bit integers
_SYMBOLS = ("scipy_cblas_{}64_", "cblas_{}64_", "cblas_{}")
_ORACLES = ("stoch_objective_grad", "constraint", "constraint_value")

# the process's kernel, the bound pdsg_block (None before the first load,
# False once found unavailable), its build directory where __pycache__ is
# not writable, and the lock of the first load; held here so that the
# module's names stay as imported
_process = SimpleNamespace(kernel=None, tmpdir=None, lock=threading.RLock())


def load():
    """The kernel's ``pdsg_block`` function, or None where it is unavailable.

    The first call builds (or finds) the library, binds it to numpy's BLAS
    and runs the self-check on it; a call from another thread meanwhile
    waits for it.
    """
    with _process.lock:
        if _process.kernel is None:
            kernel = False
            try:
                kernel = _bound_and_checked() or False
            finally:  # also when the self-check raises
                _process.kernel = kernel
        return _process.kernel or None


def _bound_and_checked():
    """The built library's ``pdsg_block``, bound and self-checked, or None."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError:
        return None
    lib.pdsg_bind.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
    lib.pdsg_bind.restype = None
    if not _bind(lib):
        return None
    kernel = lib.pdsg_block
    kernel.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 7 \
        + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 10
    kernel.restype = ctypes.c_int64
    _process.kernel = kernel  # the self-check's runs take it
    return kernel if _self_check() else None


def _build():
    """The path of the built library; raises OSError when it cannot be built."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    with open(_SOURCE, "rb") as fh:
        key = sha256(fh.read())
    stat = os.stat(cc)
    key.update(repr((_FLAGS, os.path.realpath(cc), stat.st_size, stat.st_mtime_ns)).encode())
    name = f"_kernel.{key.hexdigest()}.so"
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    path = os.path.join(cache, name)
    if os.path.exists(path):
        return path
    try:
        os.makedirs(cache, exist_ok=True)
        writable = os.access(cache, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        _process.tmpdir = tempfile.TemporaryDirectory(prefix="pdsg-kernel-")
        path = os.path.join(_process.tmpdir.name, name)
    import subprocess  # only a build needs it

    with problems.replacing(path) as fh:
        built = subprocess.run([cc, *_FLAGS, "-o", fh.name, _SOURCE], capture_output=True)
        if built.returncode:
            raise OSError(f"{cc} failed: {built.stderr.decode(errors='replace')[-400:]}")
    return path


def _bind(lib) -> bool:
    """Point the kernel at numpy's dgemv and ddot; False when not found."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # a handle on numpy's extension resolves names through the BLAS it links
    blas = ctypes.CDLL(_multiarray_umath.__file__)
    for pattern in _SYMBOLS:
        gemv = getattr(blas, pattern.format("dgemv"), None)
        ddot = getattr(blas, pattern.format("ddot"), None)
        if gemv is not None and ddot is not None:
            pointer = ctypes.c_void_p
            lib.pdsg_bind(ctypes.cast(gemv, pointer), ctypes.cast(ddot, pointer),
                          pattern.endswith("64_"))
            return True
    return False


def _self_check() -> bool:
    """Short pdsg and mirror-prox runs on tiny instances, one row alone and
    two in one block, against their step functions: every state field and
    the generator bit for bit.  The shapes take each branch of every
    product's dispatch: n = 1, p = 1 and both above 1."""
    from . import baselines, solver

    K = 8
    # (step, z_max, seed) of a row, pdsg with no z_max; the steps reach the
    # box and the penalty branch within K
    rules = ((2.0, None, 0), (1.0, 1.0, 1), (0.5, None, 2))
    for n, p in ((1, 2), (2, 1), (3, 2)):
        inst = problems.random_qcqp(n, p, 3, 3, seed=n + 3 * p)
        rows = [(solver.init_state(inst, seed), *solver.fixed_horizon(step, step, K).sequences(K),
                 z_max) for step, z_max, seed in rules]
        if any(solver._iterate(rows[:1], inst, K) + solver._iterate(rows[1:], inst, K)):
            return False
        for (got, alphas, rhos, z_max), (_, _, seed) in zip(rows, rules):
            want = solver.init_state(inst, seed)
            a_k, r_k = float(alphas[0]), float(rhos[0])
            try:
                for _ in range(K):
                    if z_max is None:
                        solver.pdsg_step(want, inst, a_k, r_k, r_k)
                    else:
                        baselines.mirror_prox_step(want, inst, a_k, r_k, r_k, z_max)
            except DivergenceError:
                return False
            if _fields(got) != _fields(want):
                return False
    return True


def _fields(state):
    return (state.x.tobytes(), state.z.tobytes(), state.sum_plain.tobytes(),
            state.sum_weighted.tobytes(), state.weight_sum, state.k, state.n_obj_queries,
            state.n_constr_grad_queries, state.n_constr_val_queries,
            state.rng.bit_generator.state)


def address(arr, shape):
    """The data address of a C-contiguous float64 array of ``shape``, else None."""
    if arr.dtype != np.float64 or arr.shape != shape or not arr.flags.c_contiguous:
        return None
    return arr.ctypes.data


def operands(inst):
    """``(pdsg_block, n, p, m, H, c, Q, a, b, box_lo, box_hi)`` with the arrays
    as addresses, when ``inst`` runs on the compiled kernel: a
    ``QuadraticInstance`` with its own oracles (a subclass or an instance
    that replaces one runs per row) and C-contiguous float64 arrays, which
    are never copied.  None otherwise, or when the kernel is unavailable."""
    if not isinstance(inst, problems.QuadraticInstance):
        return None
    cls = problems.QuadraticInstance
    if any(getattr(type(inst), name) is not getattr(cls, name) or name in vars(inst)
           for name in _ORACLES):
        return None
    d, n, p, N, m = inst.data, inst.n, inst.p, inst.N, inst.m
    shapes = ((d.H, (N, p, n)), (d.c, (N, p)), (d.Q, (m, n, n)), (d.a, (m, n)),
              (d.b, (m,)), (inst.box_lo, (n,)), (inst.box_hi, (n,)))
    addresses = [address(arr, shape) for arr, shape in shapes]
    block = None if None in addresses else load()
    return None if block is None else (block, n, p, m, *addresses)

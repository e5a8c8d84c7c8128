"""Dense complex matrix primitives over stacks of matrices.

Everything downstream is built on the handful of operations here:
functions of Hermitian matrices (the PSD square root here, the Jordan
parts in ``decomp``), operator absolute values, singular spectra and the
positive-semidefinite (Loewner) order test, plus adjoints, block assembly
and Frobenius norms.  Every operation takes stacks of shape (k, n, n); one
matrix ``a`` is the stack ``a[None]``.  All functions are pure and treat
matrices as immutable complex128 values.

Each spectral quantity has one route, and the route of a matrix depends
on its bits alone.  A matrix equal to its adjoint bit for bit has as
singular values its absolute eigenvalues, from eigenvalues its caller
already holds where it has them; every other matrix, one Hermitian only
to within round-off included, takes the SVD.  Every |A| is
``V diag(s) V*`` from the SVD, so that order comparisons between absolute
values share one route.  Every f(H) is ``V f(w) V*`` from one ``eigh`` of
the Hermitian part of the operand; its callers build it Hermitian, so
nothing there is checked or raised.  A direct sum's spectrum is the union
of its blocks' spectra, so a direct sum is never assembled just to be
measured.  No singular value is taken from the Gram matrix ``A*A``: that
squares the condition number and loses half the digits of the small
singular values.  No LAPACK call sees a matrix that holds an infinity or
a NaN; its results are NaN.

Matrices entering the system from outside (files, generator specs) are
capped at ``MAX_DIM``; internally assembled block matrices may be up to
twice that size.  The entry points grade inside ``one_blas_thread``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

MAX_DIM = 64

# Matrix entries per operand stack a campaign or a search checks at once:
# bounds the memory of one kernel call (blocks of 2n x 2n entries and
# their temporaries).
CHUNK_ELEMENTS = 1 << 14

# Matrix entries per ``abs_ops`` call.  Sharing a call saves its fixed
# cost, most of a call at small n.  Past this size the group's SVD factors
# and temporaries outgrow a core's cache: on a Xeon with 2 MB of L2 per
# core, four 64 x 64 matrices took 9% longer in one call than in four,
# and four 32 x 32 matrices 6% less.
GROUP_ELEMENTS = CHUNK_ELEMENTS // 4

# An operand that a statement needs Hermitian may deviate from exact
# Hermitian symmetry by this much times ||M||_F; beyond it the statement
# rejects it rather than silently symmetrising it.
HERMITIAN_RTOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotHermitian(ValueError):
    """An input required to be Hermitian deviates beyond tolerance."""


class NoConvergence(RuntimeError):
    """The eigensolver or the SVD failed to converge."""


class InvalidMatrix(ValueError):
    """Entries do not form a finite square complex matrix of supported size."""


class ToleranceOverflow(ValueError):
    """A finite tolerance overflows at a finite scale."""


@dataclass(frozen=True)
class Tolerance:
    """Relative comparison tolerance.

    A quantity at scale ``s``, the size of the operands it is computed
    from, is compared against ``tol_rel * s``.  Every statement graded
    here is positively homogeneous, so this makes a verdict independent of
    the units of the inputs.  ``effective`` also takes an array of scales.
    """

    tol_rel: float = 1e-9

    def __post_init__(self):
        # Only numbers JSON writes and reads back: no bool, float32 or huge int.
        real = type(self.tol_rel) is not bool and isinstance(self.tol_rel, (int, float))
        if not (real and 0 <= self.tol_rel <= float(np.finfo(float).max)):
            raise ValueError(f"tol_rel must be a nonnegative finite number, got {self.tol_rel!r}")

    def effective(self, scale):
        """The tolerance at ``scale``.  Raises ToleranceOverflow where a
        finite scale gives an infinite tolerance; a non-finite scale is
        the kernel's overflow, which its callers report."""
        with np.errstate(over="ignore"):
            tol = self.tol_rel * scale
        if not np.isfinite(tol).all():
            bad = ~np.isfinite(tol) & np.isfinite(scale)
            if bad.any():
                at = float(np.broadcast_to(scale, bad.shape)[bad][0])
                raise ToleranceOverflow(
                    f"tolerance overflows: tol_rel * scale is not finite"
                    f" for tol_rel={self.tol_rel!r} at scale {at:.6g}"
                )
        return tol


DEFAULT_TOL = Tolerance()


def as_matrix(entries) -> np.ndarray:
    """Validate and copy ``entries`` into a square complex128 array.

    Raises InvalidMatrix for non-square / empty / oversized input or any
    non-finite entry.
    """
    try:
        m = np.array(entries, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"cannot interpret entries as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n < 1 or n > MAX_DIM:
        raise InvalidMatrix(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix has non-finite entries")
    return m


@functools.cache
def _openblas_thread_query():
    """The (get, set) thread-count functions of numpy's OpenBLAS, looked up
    through the library numpy's linear algebra links; None without one."""
    try:
        handle = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # no such extension, or not a shared library
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
            return get, set_
    return None


# Blocks in one_blas_thread now, and the thread count to restore after the last.
_pin = {"depth": 0, "threads": 1}
_pin_lock = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS, if any, on one thread, and
    restore the caller's count after it, also on an exception: the count
    can change the last bits of a result.  It is the process's, so nested
    blocks, and blocks in other threads meanwhile, share the outermost pin."""
    get, set_ = _openblas_thread_query() or (lambda: 1, None)
    with _pin_lock:
        if not _pin["depth"]:
            _pin["threads"] = get()
            if _pin["threads"] != 1:
                set_(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if not _pin["depth"] and _pin["threads"] != 1:
                set_(_pin["threads"])


# --- stacked kernels ---------------------------------------------------------
#
# The functions below take stacks of shape (k, n, n) and treat each slice
# on its own: every result slice is bitwise equal to the result for the
# stack of that matrix alone.  Stacked eigh/eigvalsh/svd/qr and matmul are,
# per slice, the same LAPACK/BLAS calls; reductions are not, so Frobenius norms
# go through ``_fro`` and zero-matrix short-circuits are applied per slice.
# Elementwise complex products can also round differently when stacking
# changes which numpy loop runs them (see ``randgen._conjugate_diag``);
# tests/test_golden.py pins the result.


def _adj(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (a view of a fresh conj)."""
    return x.conj().swapaxes(-1, -2)


def _herm(x: np.ndarray) -> np.ndarray:
    return (x + _adj(x)) / 2.0


def _zero_slices(x: np.ndarray) -> np.ndarray | None:
    """Mask of the all-zero slices of a stack, or None when there are
    none."""
    nonzero = np.logical_or.reduce(x, axis=(-2, -1))
    if np.count_nonzero(nonzero) == nonzero.size:
        return None
    return ~nonzero


# Below this norm a slice's squares may have left the normal range, so
# their sum may have lost the slice's smaller entries, or all of them.
_FRO_TINY = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


def _fro(x: np.ndarray) -> np.ndarray:
    """Per-slice Frobenius norms of a C-contiguous complex stack, bitwise
    equal to ``np.linalg.norm`` of each slice whose sum of squares is
    finite and whose norm is at least ``_FRO_TINY``.

    ``np.linalg.norm`` sums re*re and im*im with one strided BLAS dot each,
    over the slice in memory order; ``np.vecdot`` over the rows of the
    (k, n*n) view makes the same dot calls.  A stack of one, the case of
    ``check`` and of the search, takes the two dots directly, which costs
    less than the gufunc call.

    A slice of finite entries whose sum of squares overflows, while its
    norm may not, or whose norm is so small (below ``_FRO_TINY``) that its
    squares left the normal range, is recomputed as
    ``m * sqrt(sum |x/m|**2)`` with ``m`` its largest absolute entry.  The
    Python ``min`` and ``sum`` over the k norms tell whether any may need
    it, and a zero stack, whose norms are all 0, is told apart by one
    ``any``; for the small stacks of a check or a search step these cost a
    fraction of a numpy reduction, so the common path pays almost nothing
    for the rescue.
    """
    k = x.shape[0]
    flat = x.reshape(k, x.shape[-2] * x.shape[-1])
    re, im = flat.real, flat.imag
    if k == 1:
        re, im = re[0], im[0]
        out = np.sqrt(re.dot(re) + im.dot(im))[None]
    else:
        out = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    norms = out.tolist()
    if (min(norms, default=_FRO_TINY) < _FRO_TINY and flat.any()) or not math.isfinite(sum(norms)):
        redo = np.flatnonzero(~((out >= _FRO_TINY) & (out < np.inf)))
        for i, m in zip(redo.tolist(), np.abs(flat[redo]).max(axis=1).tolist()):
            if 0.0 < m < math.inf:
                out[i] = m * np.sqrt(np.sum(np.square(np.abs(x[i]) / m)))
    return out


def _require_hermitian(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The symmetrised stack; raises NotHermitian when any slice deviates
    from symmetry beyond round-off."""
    adj = _adj(x)
    defect = _fro(x - adj)
    bad = defect > HERMITIAN_RTOL * _fro(x)
    if np.count_nonzero(bad):
        raise NotHermitian(f"{name} is not Hermitian (defect {defect[bad.argmax()]:.3e})")
    return (x + adj) / 2.0


def _lapack(fn, x: np.ndarray, **kwargs):
    """``fn(x, **kwargs)``, a numpy.linalg decomposition, over the finite
    slices of a stack; every number of a slice that holds an infinity or a
    NaN is NaN.  Such a slice never reaches LAPACK: ``eigvalsh`` reads a
    NaN diagonal as a number, and LAPACK's argument checks print to the
    process's stdout."""
    if not np.isfinite(x).all():
        finite = np.isfinite(x).all(axis=(-2, -1))
        out = _lapack(fn, np.where(finite[:, None, None], x, 0.0), **kwargs)
        for part in out if isinstance(out, tuple) else (out,):
            part[~finite] = np.nan
        return out
    try:
        return fn(x, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (already symmetrised) Hermitian matrices,
    exactly 0 for a zero slice, which LAPACK gives as -0.0 for -0.0 entries."""
    eigs = _lapack(np.linalg.eigvalsh, h)
    zero = _zero_slices(h)
    if zero is not None:
        eigs[zero] = 0.0
    return eigs


def _apply(w: np.ndarray, v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V f(w) V*, re-symmetrised, for spectra ``fw`` of shape (k, n)."""
    out = (v * fw[:, None, :]) @ _adj(v)
    return (out + _adj(out)) / 2.0


def _hermitian_function(x: np.ndarray, f) -> np.ndarray:
    """f(H) = V f(w) V* of the Hermitian parts H = (X + X*)/2 of a stack,
    with ``f`` taking the ascending eigenvalues w, shape (k, n), to f(w).
    A zero slice has w = 0 and V = I."""
    h = _herm(x)
    w, v = _lapack(np.linalg.eigh, h)
    zero = _zero_slices(h)
    if zero is not None:
        w[zero] = 0.0
        v[zero] = np.eye(h.shape[-1], dtype=np.complex128)
    return _apply(w, v, f(w))


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """PSD square roots of the Hermitian parts of a stack, with every
    negative eigenvalue, round-off of a PSD operand, taken as 0."""
    return _hermitian_function(x, lambda w: np.sqrt(np.maximum(w, 0.0)))


def singular_values(x: np.ndarray, eigs: np.ndarray | None = None) -> np.ndarray:
    """Nonincreasing singular values per slice, shape (k, n).  A slice equal
    to its adjoint bit for bit (under ``==``, so a zero's sign does not
    count) has as singular values its absolute eigenvalues: ``eigs``, the
    ascending eigenvalues of the Hermitian parts (X + X*)/2 of the stack,
    where the caller holds them, else ``eigvalsh`` of the slice.  Every
    other slice, one Hermitian only to within round-off included, takes
    the SVD."""
    herm = (x == _adj(x)).all(axis=(-2, -1))
    count = np.count_nonzero(herm)
    if not count:
        return _lapack(np.linalg.svd, x, compute_uv=False)
    if count < herm.size:
        out = np.empty(x.shape[:-1])
        out[~herm] = _lapack(np.linalg.svd, x[~herm], compute_uv=False)
        out[herm] = singular_values(x[herm], None if eigs is None else eigs[herm])
        return out
    w = _eigvalsh(x) if eigs is None else eigs
    return np.sort(np.abs(w), axis=-1)[:, ::-1]


def direct_sum_spectrum(*spectra: np.ndarray) -> np.ndarray:
    """Singular values of the direct sum of blocks, from the blocks'
    nonincreasing singular values: their union, nonincreasing."""
    return np.sort(np.concatenate(spectra, axis=-1), axis=-1)[:, ::-1]


def abs_op(x: np.ndarray) -> np.ndarray:
    """Operator absolute values |A| = (A* A)^(1/2) = V diag(s) V*, from the
    SVD A = U diag(s) V*; defined for any square A."""
    _, s, vh = _lapack(np.linalg.svd, x, full_matrices=False)
    return _apply(s, _adj(vh), s)


def abs_ops(*stacks: np.ndarray) -> list[np.ndarray]:
    """``abs_op`` of each stack, all of one n, bitwise equal to ``abs_op``
    of that stack alone.  Neighbouring stacks share one ``abs_op`` call as
    long as it holds at most ``GROUP_ELEMENTS`` entries; a larger stack
    takes a call of its own."""
    out: list[np.ndarray] = []
    i = 0
    while i < len(stacks):
        j, size = i + 1, stacks[i].size
        while j < len(stacks) and size + stacks[j].size <= GROUP_ELEMENTS:
            size += stacks[j].size
            j += 1
        group = stacks[i:j]
        joined = abs_op(group[0] if len(group) == 1 else np.concatenate(group))
        start = 0
        for x in group:
            out.append(joined[start : start + len(x)])
            start += len(x)
        i = j
    return out


def _block2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
    out[..., :n, :n] = a
    out[..., :n, n:] = b
    out[..., n:, :n] = c
    out[..., n:, n:] = d
    return out


def loewner_leq(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, scale) of the order test X <= Y per slice, taken on
    the Hermitian parts of X and Y.

    ``eigenvalues``, shape (k, n), is the ascending spectrum of Y - X (all
    0 where Y - X is 0); the order holds where its first entry is at least
    minus the tolerance at ``scale``, the larger Frobenius norm of the two
    Hermitian parts.  The scale is that of the operands, not of Y - X,
    because the rounding in Y - X is relative to X and Y.
    """
    hx, hy = _herm(x), _herm(y)
    return _eigvalsh(hy - hx), np.maximum(_fro(hx), _fro(hy))

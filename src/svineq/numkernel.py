"""Dense complex matrix primitives over stacks of matrices.

Everything downstream is built on the handful of operations here:
Hermitian eigendecomposition, PSD square roots, operator absolute values,
singular spectra and the positive-semidefinite (Loewner) order test, plus
adjoints, block assembly and Frobenius norms.  Every operation takes
stacks of shape (k, n, n); one matrix ``a`` is the stack ``a[None]``.  All
functions are pure and treat matrices as immutable complex128 values.

Matrices entering the system from outside (files, generator specs) are
capped at ``MAX_DIM``; internally assembled block matrices may be up to
twice that size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 64

# Inputs to Hermitian-only operations may deviate from exact Hermitian
# symmetry by this much, relative to max(1, ||M||_F); beyond it they are
# rejected rather than silently symmetrised.
HERMITIAN_RTOL = 1e-12

# Eigenvalues of a nominally PSD matrix within this (relative) band below
# zero are clamped to zero; anything lower means the matrix is not PSD.
PSD_CLAMP_RTOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotHermitian(ValueError):
    """An input required to be Hermitian deviates beyond tolerance."""


class NotPSD(ValueError):
    """An input required to be PSD has a significantly negative eigenvalue."""


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""


class InvalidMatrix(ValueError):
    """Entries do not form a finite square complex matrix of supported size."""


@dataclass(frozen=True)
class Tolerance:
    """Scale-aware comparison tolerance.

    A quantity at scale ``s`` is compared against
    ``tol_abs + tol_rel * max(1, s)`` so that tiny and large problems are
    treated uniformly.  ``effective`` also takes an array of scales.
    """

    tol_abs: float = 1e-12
    tol_rel: float = 1e-9

    def __post_init__(self):
        if not (self.tol_abs >= 0 and self.tol_rel >= 0):
            raise ValueError("tolerances must be nonnegative finite numbers")

    def effective(self, scale):
        return self.tol_abs + self.tol_rel * np.maximum(1.0, scale)


DEFAULT_TOL = Tolerance()


def as_matrix(entries, max_dim: int = MAX_DIM) -> np.ndarray:
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
    if n < 1 or n > max_dim:
        raise InvalidMatrix(f"dimension {n} outside supported range 1..{max_dim}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix has non-finite entries")
    return m


# --- stacked kernels ---------------------------------------------------------
#
# The functions below take stacks of shape (k, n, n) and treat each slice
# on its own: every result slice is bitwise equal to the result for the
# stack of that matrix alone.  Stacked eigh/eigvalsh/qr and matmul are, per
# slice, the same LAPACK/BLAS calls; reductions are not, so Frobenius norms
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


def _fro(x: np.ndarray) -> np.ndarray:
    """Per-slice Frobenius norms of a complex stack, bitwise equal to
    ``np.linalg.norm`` of each slice.

    ``np.linalg.norm`` sums re*re and im*im with one strided BLAS dot each,
    over the slice in memory order; ``np.vecdot`` over the rows of a
    C-contiguous (k, n*n) view makes the same dot calls.  A stack of one,
    the case of ``check`` and of the search, takes the two dots directly,
    which costs less than the gufunc call.
    """
    if not x.flags.c_contiguous:
        return np.array([np.linalg.norm(s) for s in x])
    k = x.shape[0]
    flat = x.reshape(k, x.shape[-2] * x.shape[-1])
    re, im = flat.real, flat.imag
    if k == 1:
        re, im = re[0], im[0]
        return np.sqrt(re.dot(re) + im.dot(im))[None]
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _require_hermitian(x: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised stack and its per-slice norms; raises NotHermitian when
    any slice deviates from symmetry beyond round-off."""
    adj = _adj(x)
    norm = _fro(x)
    defect = _fro(x - adj)
    bad = defect > HERMITIAN_RTOL * np.maximum(1.0, norm)
    if np.count_nonzero(bad):
        raise NotHermitian(f"{name} is not Hermitian (defect {defect[bad.argmax()]:.3e})")
    return (x + adj) / 2.0, norm


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (already symmetrised) Hermitian matrices."""
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _min_eig(h: np.ndarray) -> np.ndarray:
    """Per-slice smallest eigenvalue; 0 for a zero slice."""
    w = _eigvalsh(h)[:, 0]
    zero = _zero_slices(h)
    if zero is not None:
        w[zero] = 0.0
    return w


def hermitian_eig(x: np.ndarray, name: str = "matrix"):
    """(eigenvalues, eigenvectors, norms) of a Hermitian stack.

    Eigenvalues are ascending and eigenvectors are columns.  Each slice may
    deviate from exact symmetry by round-off (it is symmetrised); larger
    defects raise NotHermitian.  A zero slice short-circuits to (zeros,
    identity).
    """
    h, norm = _require_hermitian(x, name)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    zero = _zero_slices(h)
    if zero is not None:
        w[zero] = 0.0
        v[zero] = np.eye(h.shape[-1], dtype=np.complex128)
    return w, v, norm


def _apply(w: np.ndarray, v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V f(w) V*, re-symmetrised, for spectra ``fw`` of shape (k, n)."""
    out = (v * fw[:, None, :]) @ _adj(v)
    return (out + _adj(out)) / 2.0


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Unique PSD square roots of a PSD stack.

    Eigenvalues in a small negative round-off band are clamped to zero;
    genuinely negative spectrum raises NotPSD.
    """
    w, v, norm = hermitian_eig(x)
    clamp = PSD_CLAMP_RTOL * np.maximum(1.0, norm)
    bad = w[:, 0] < -clamp
    if np.count_nonzero(bad):
        i = bad.argmax()
        raise NotPSD(f"matrix has eigenvalue {w[i, 0]:.6e} below -{clamp[i]:.3e}")
    return _apply(w, v, np.sqrt(np.maximum(w, 0.0)))


def abs_op(x: np.ndarray) -> np.ndarray:
    """Operator absolute values |A| = (A* A)^(1/2); defined for any square A."""
    return psd_sqrt(_adj(x) @ x)


def singular_values(x: np.ndarray) -> np.ndarray:
    """Nonincreasing singular values per slice, shape (k, n), from the
    spectrum of A* A; round-off negatives are clamped before the root."""
    gram = _adj(x) @ x
    w = _eigvalsh((gram + _adj(gram)) / 2.0)
    vals = np.sqrt(np.maximum(w[:, ::-1], 0.0))
    zero = _zero_slices(x)
    if zero is not None:
        vals[zero] = 0.0
    return vals


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na, nb = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-2] + (na + nb, na + nb), dtype=np.complex128)
    out[..., :na, :na] = a
    out[..., na:, na:] = b
    return out


def _block2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
    out[..., :n, :n] = a
    out[..., :n, n:] = b
    out[..., n:, :n] = c
    out[..., n:, n:] = d
    return out


def loewner_leq(x: np.ndarray, y: np.ndarray, tol: Tolerance):
    """(min_eig, tol_used) of the order test X <= Y per slice.

    Both operands must be Hermitian within round-off.  ``min_eig`` is the
    smallest eigenvalue of Y - X; the order holds where it is at least
    ``-tol_used``, the tolerance at the scale of ||Y - X||_F.
    """
    hx, _ = _require_hermitian(x, "left operand")
    hy, _ = _require_hermitian(y, "right operand")
    diff = hy - hx
    return _min_eig(diff), tol.effective(_fro(diff))

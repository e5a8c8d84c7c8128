"""Operator decompositions and class membership tests.

Two splittings are provided: the Hermitian/skew (real/imaginary part)
splitting A = A1 + i*A2 of an arbitrary square matrix, and the
positive/negative part splitting H = H+ - H- of a Hermitian matrix.
``classify`` reports membership in the Hermitian / PSD / normal /
hyponormal classes together with the graded residuals backing each flag,
so callers can state "hypothesis satisfied to defect eps" instead of a
bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    DEFAULT_TOL,
    Tolerance,
    _adj,
    _apply,
    _fro,
    _hermitian_eig,
    _min_eig,
    _square,
    abs_op,
    hermitian_eig,
)


@dataclass(frozen=True)
class CartesianPair:
    """Hermitian matrices a1, a2 with a1 + i*a2 equal to the source matrix."""

    a1: np.ndarray
    a2: np.ndarray

    def recombine(self) -> np.ndarray:
        return self.a1 + 1j * self.a2


def cartesian(a) -> CartesianPair:
    """Split A into Hermitian part (A+A*)/2 and skew part (A-A*)/(2i).

    Both parts are exactly Hermitian (they are re-symmetrised after the
    arithmetic), and a1 + i*a2 reproduces A up to round-off.
    """
    return CartesianPair(*_cartesian(_square(a)))


def _cartesian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and skew parts of a matrix or of a stack of matrices."""
    adj = _adj(x)
    a1 = (x + adj) / 2.0
    a1 = (a1 + _adj(a1)) / 2.0
    a2 = (x - adj) / 2j
    a2 = (a2 + _adj(a2)) / 2.0
    return a1, a2


@dataclass(frozen=True)
class JordanPair:
    """PSD matrices plus, minus with plus - minus equal to the source and
    plus @ minus = 0."""

    plus: np.ndarray
    minus: np.ndarray

    def recombine(self) -> np.ndarray:
        return self.plus - self.minus


def jordan(a) -> JordanPair:
    """Positive/negative part splitting of a Hermitian matrix.

    Computed from the eigendecomposition by clipping the spectrum, which
    makes plus @ minus vanish exactly in exact arithmetic (the parts live
    on orthogonal eigenspaces).  Raises NotHermitian for non-Hermitian
    input.
    """
    plus, minus = _jordan(_square(a)[None], "plus", "minus")
    return JordanPair(plus=plus[0], minus=minus[0])


def _jordan(x: np.ndarray, *halves: str) -> list[np.ndarray]:
    """The requested halves ("plus", "minus") of a Hermitian stack."""
    w, v, _ = _hermitian_eig(x)
    return [_apply(w, v, np.maximum(w if h == "plus" else -w, 0.0)) for h in halves]


def jordan_via_abs(a) -> JordanPair:
    """Positive/negative parts through the absolute value: (|A| +- A)/2.

    An independent route to the same pair as ``jordan``; kept separate so
    the two can be cross-checked against each other.
    """
    h = hermitian_eig(a).reconstruct()
    absa = abs_op(h)
    plus = (absa + h) / 2.0
    minus = (absa - h) / 2.0
    return JordanPair(
        plus=(plus + plus.conj().T) / 2.0,
        minus=(minus + minus.conj().T) / 2.0,
    )


def commutator_defect(x, y) -> float:
    """||xy - yx||_F for equally sized square matrices."""
    a = _square(x, "first operand")
    b = _square(y, "second operand")
    return float(_fro((a @ b - b @ a)[None])[0])


@dataclass(frozen=True)
class ClassFlags:
    """Operator class membership with the residuals behind each flag.

    - ``hermitian_defect``: ||A - A*||_F, compared at scale ||A||_F.
    - ``min_eigenvalue``: smallest eigenvalue of the Hermitian part of A
      (grades the PSD flag).
    - ``normality_defect``: ||A*A - AA*||_F, compared at scale ||A||_F^2.
    - ``hyponormal_defect``: smallest eigenvalue of A*A - AA* (negative
      values grade the failure of hyponormality).
    """

    hermitian: bool
    psd: bool
    normal: bool
    hyponormal: bool
    hermitian_defect: float
    min_eigenvalue: float
    normality_defect: float
    hyponormal_defect: float


def _hermitian_grade(x: np.ndarray, tol: Tolerance):
    """Per slice: ||A - A*||_F, the Hermitian flag, and the tolerance at
    ||A||_F that grades it."""
    defect = _fro(x - _adj(x))
    herm_tol = tol.effective(_fro(x))
    return defect, defect <= herm_tol, herm_tol


def _psd_grade(x: np.ndarray, tol: Tolerance):
    """Per slice: ||A - A*||_F, the smallest eigenvalue of the Hermitian
    part, and the Hermitian and PSD flags."""
    defect, hermitian, herm_tol = _hermitian_grade(x, tol)
    min_eig = _min_eig((x + _adj(x)) / 2.0)
    return defect, min_eig, hermitian, hermitian & (min_eig >= -herm_tol)


def _normality_grade(x: np.ndarray, tol: Tolerance):
    """Per slice: ||A*A - AA*||_F, the normal flag, the self-commutator
    A*A - AA* and the tolerance at ||A||_F^2 that grades it."""
    norm = _fro(x)
    adj = _adj(x)
    self_comm = adj @ x - x @ adj
    defect = _fro(self_comm)
    sq_tol = tol.effective(norm * norm)
    return defect, defect <= sq_tol, self_comm, sq_tol


def classify(a, tol: Tolerance = DEFAULT_TOL) -> ClassFlags:
    """Classify a square matrix into the operator classes used by the
    inequality checkers.

    Hermitian-ness and positivity are judged at the scale of ||A||_F;
    normality and hyponormality at ||A||_F^2, since the self-commutator
    is quadratic in A.  The flags are consistent by construction: PSD
    implies Hermitian, and normal implies hyponormal under the same
    tolerance.
    """
    x = _square(a)[None]
    herm_defect, min_eig, hermitian, psd = _psd_grade(x, tol)
    normality, normal, self_comm, sq_tol = _normality_grade(x, tol)
    hypo_min = float(_min_eig((self_comm + _adj(self_comm)) / 2.0)[0])
    hyponormal = hypo_min >= -sq_tol[0]
    return ClassFlags(
        hermitian=bool(hermitian[0]),
        psd=bool(psd[0]),
        normal=bool(normal[0]),
        hyponormal=bool(hyponormal),
        hermitian_defect=float(herm_defect[0]),
        min_eigenvalue=float(min_eig[0]),
        normality_defect=float(normality[0]),
        hyponormal_defect=hypo_min,
    )

"""Operator decompositions and graded class tests over stacks of matrices.

Two splittings are provided: the Hermitian/skew (real/imaginary part)
splitting A = A1 + i*A2 of an arbitrary square matrix, and the
positive/negative part splitting H = H+ - H- of a Hermitian matrix.  The
graders report membership in the Hermitian / PSD / normal classes together
with the residuals backing each flag, so a checker can state "hypothesis
satisfied to defect eps" instead of a bare boolean.
"""

from __future__ import annotations

import numpy as np

from .numkernel import Tolerance, _adj, _apply, _fro, _min_eig, hermitian_eig


def cartesian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts (A+A*)/2 and skew parts (A-A*)/(2i) of a stack.

    Both parts are exactly Hermitian (they are re-symmetrised after the
    arithmetic), and a1 + i*a2 reproduces A up to round-off.
    """
    adj = _adj(x)
    a1 = (x + adj) / 2.0
    a1 = (a1 + _adj(a1)) / 2.0
    a2 = (x - adj) / 2j
    a2 = (a2 + _adj(a2)) / 2.0
    return a1, a2


def jordan(x: np.ndarray, *halves: str) -> list[np.ndarray]:
    """The requested halves ("plus", "minus") of a Hermitian stack.

    Computed from the eigendecomposition by clipping the spectrum, which
    makes plus @ minus vanish exactly in exact arithmetic (the parts live
    on orthogonal eigenspaces).  Raises NotHermitian for non-Hermitian
    input.
    """
    w, v, _ = hermitian_eig(x)
    return [_apply(w, v, np.maximum(w if h == "plus" else -w, 0.0)) for h in halves]


# Hermitian-ness and positivity are judged at the scale of ||A||_F;
# normality at ||A||_F^2, since the self-commutator is quadratic in A.


def _hermitian_grade(x: np.ndarray, tol: Tolerance):
    """Per slice: ||A - A*||_F, the Hermitian flag, and the tolerance at
    ||A||_F that grades it."""
    defect = _fro(x - _adj(x))
    herm_tol = tol.effective(_fro(x))
    return defect, defect <= herm_tol, herm_tol


def _psd_grade(x: np.ndarray, tol: Tolerance):
    """Per slice: ||A - A*||_F, the smallest eigenvalue of the Hermitian
    part, and the Hermitian and PSD flags (PSD implies Hermitian)."""
    defect, hermitian, herm_tol = _hermitian_grade(x, tol)
    min_eig = _min_eig((x + _adj(x)) / 2.0)
    return defect, min_eig, hermitian, hermitian & (min_eig >= -herm_tol)


def _normality_grade(x: np.ndarray, tol: Tolerance):
    """Per slice: ||A*A - AA*||_F and the normal flag."""
    norm = _fro(x)
    adj = _adj(x)
    defect = _fro(adj @ x - x @ adj)
    return defect, defect <= tol.effective(norm * norm)

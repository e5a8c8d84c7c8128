"""Operator decompositions over stacks of matrices.

Two splittings are provided: the Hermitian/skew (real/imaginary part)
splitting A = A1 + i*A2 of an arbitrary square matrix, and the
positive/negative part splitting H = H+ - H- of a Hermitian matrix.
"""

from __future__ import annotations

import numpy as np

from .numkernel import _adj, _apply, hermitian_eig


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


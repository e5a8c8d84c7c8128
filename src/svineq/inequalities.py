"""Checker catalog for singular-value and operator-order inequalities.

Every checker compares one or two "sides" and returns an
:class:`InequalityReport` holding the complete per-index margin data, the
graded hypothesis residuals, and a three-way verdict:

- ``holds``: every margin is above ``-tol_used``;
- ``violated``: some margin is genuinely negative;
- ``hypothesis_violated``: the statement's hypotheses fail on this input
  (e.g. an operand that must be PSD is not), in which case the margins are
  still computed and reported — they are data, not errors.

Structural requirements (an operand that must be Hermitian for the
statement to even parse) raise ``NotHermitian`` instead of grading into a
verdict.

Two comparison kinds appear.  Spectrum sides compare singular values
zero-padded to a common length with ``margin_j = rhs_j - lhs_j``.  Order
sides test a Loewner inequality ``X <= Y``; their per-index entries are
the ascending eigenvalues of ``Y - X`` (so ``j = 1`` is the decisive one)
with ``lhs = 0``.

The effective tolerance of a report is
``tol_abs + tol_rel * max(1, scale)`` where ``scale`` is the largest
leading singular value (spectrum sides) or difference norm (order sides)
over all sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .decomp import _cartesian, _hermitian_grade, _jordan, _normality_grade, _psd_grade
from .numkernel import (
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidMatrix,
    Tolerance,
    _abs_op,
    _adj,
    _block2,
    _direct_sum,
    _eigvalsh,
    _fro,
    _herm,
    _loewner,
    _psd_sqrt,
    _require_hermitian,
    _singular_values,
    _zero_slices,
)

_INV_SQRT2 = 2.0 ** -0.5
_SQRT2 = math.sqrt(2.0)


class UnknownInequality(ValueError):
    """The requested inequality id is not in the catalog."""


class ArityMismatch(ValueError):
    """Wrong number of input matrices for the requested inequality."""


class Verdict(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    HYPOTHESIS_VIOLATED = "hypothesis_violated"


@dataclass(frozen=True)
class IndexMargin:
    """One per-index comparison: margin = rhs - lhs, negative means failure."""

    j: int
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class MarginSide:
    """One side of an inequality: a full margin list plus its scale.

    ``kind`` is "spectrum" for singular-value comparisons and "order" for
    Loewner comparisons.  ``scale`` feeds the report tolerance: the larger
    head value for spectra, the Frobenius norm of the difference for
    orders.
    """

    label: str
    kind: str
    entries: tuple[IndexMargin, ...]
    scale: float
    min_margin: float


@dataclass(frozen=True)
class InequalityReport:
    """Structured outcome of one inequality check."""

    ineq_id: str
    dims: tuple[int, ...]
    verdict: Verdict
    min_margin: float | None
    tol_used: float
    sides: tuple[MarginSide, ...]
    skipped: tuple[str, ...] = ()
    hypothesis_residuals: dict[str, float] = field(default_factory=dict)

    def side(self, label: str) -> MarginSide:
        for s in self.sides:
            if s.label == label:
                return s
        raise KeyError(label)


# --- stacked checker results --------------------------------------------------
#
# Every checker is one function over stacked operands of shape (k, n, n); it
# grades all k input sets at once and returns arrays.  A single ``check`` is
# the k = 1 case, campaigns pass whole chunks of trials, and a report object
# is built only for the trials a caller asks for.


def _first_min(values: np.ndarray) -> np.ndarray:
    """Row minima of a (k, m) array, taking the first of equal minima the
    way ``min`` over a sequence does (so 0.0 before -0.0 stays 0.0)."""
    return values[np.arange(values.shape[0]), values.argmin(axis=1)]


@dataclass(slots=True)
class SideBatch:
    """One side for k trials: (k, m) lhs/rhs/margin rows and (k,) scale and
    minimum margin.  ``present`` marks the trials that evaluated the side
    (None: all of them); absent rows hold NaN."""

    label: str
    kind: str
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    scale: np.ndarray
    min_margin: np.ndarray
    present: np.ndarray | None = None

    def margin_side(self, i: int) -> MarginSide:
        """The side of trial ``i`` as a report sees it."""
        entries = tuple(
            IndexMargin(j=j + 1, lhs=lhs, rhs=rhs, margin=margin)
            for j, (lhs, rhs, margin) in enumerate(
                zip(self.lhs[i].tolist(), self.rhs[i].tolist(), self.margin[i].tolist())
            )
        )
        return MarginSide(
            label=self.label,
            kind=self.kind,
            entries=entries,
            scale=float(self.scale[i]),
            min_margin=float(self.min_margin[i]),
        )

    def spread(self, present: np.ndarray) -> "SideBatch":
        """This side, computed for the trials ``present`` selects, spread
        back over all trials."""
        k = present.shape[0]

        def fill(a):
            out = np.full((k,) + a.shape[1:], np.nan)
            out[present] = a
            return out

        return SideBatch(
            self.label,
            self.kind,
            fill(self.lhs),
            fill(self.rhs),
            fill(self.margin),
            fill(self.scale),
            fill(self.min_margin),
            present,
        )


def _pad(values: np.ndarray, m: int) -> np.ndarray:
    if values.shape[1] == m:
        return values
    out = np.zeros((values.shape[0], m))
    out[:, : values.shape[1]] = values
    return out


def _spectrum_side(label: str, lhs: np.ndarray, rhs: np.ndarray) -> SideBatch:
    """Singular values compared index by index, zero-padded to one length."""
    m = max(lhs.shape[1], rhs.shape[1])
    lhs, rhs = _pad(lhs, m), _pad(rhs, m)
    margin = rhs - lhs
    scale = np.where(rhs[:, 0] > lhs[:, 0], rhs[:, 0], lhs[:, 0])
    return SideBatch(label, "spectrum", lhs, rhs, margin, scale, _first_min(margin))


def _order_side(label: str, x: np.ndarray, y: np.ndarray) -> SideBatch:
    """Loewner side X <= Y, graded by the ascending spectrum of Y - X."""
    diff = _herm(y) - _herm(x)
    eigs = _eigvalsh(diff)
    zero = _zero_slices(diff)
    if zero is not None:
        eigs[zero] = 0.0
    return SideBatch(
        label, "order", np.zeros_like(eigs), eigs, eigs, _fro(diff), eigs[:, 0].copy()
    )


@dataclass(slots=True)
class Graded:
    """What a checker core computes for k trials, before grading: its sides,
    per-trial hypothesis flags (None: no hypotheses) and residuals."""

    sides: tuple[SideBatch, ...]
    hypothesis_ok: np.ndarray | None = None
    residuals: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(slots=True)
class Checked:
    """Verdicts and margins of one checker over k trials.

    ``min_margin`` and ``tol_used`` are the report-level values; a trial is
    violated when its hypotheses hold and its minimum margin is below
    ``-tol_used``.
    """

    ineq_id: str
    dims: tuple[int, ...]
    graded: Graded
    min_margin: np.ndarray
    tol_used: np.ndarray
    violated: np.ndarray

    def __len__(self) -> int:
        return self.min_margin.shape[0]

    def verdict(self, i: int) -> Verdict:
        hyp = self.graded.hypothesis_ok
        if hyp is not None and not hyp[i]:
            return Verdict.HYPOTHESIS_VIOLATED
        return Verdict.VIOLATED if self.violated[i] else Verdict.HOLDS

    def report(self, i: int) -> InequalityReport:
        """The full report of trial ``i``."""
        sides = self.graded.sides
        present = [s.present is None or bool(s.present[i]) for s in sides]
        return InequalityReport(
            ineq_id=self.ineq_id,
            dims=self.dims,
            verdict=self.verdict(i),
            min_margin=float(self.min_margin[i]),
            tol_used=float(self.tol_used[i]),
            sides=tuple(s.margin_side(i) for s, p in zip(sides, present) if p),
            skipped=tuple(s.label for s, p in zip(sides, present) if not p),
            hypothesis_residuals={
                name: float(values[i]) for name, values in self.graded.residuals.items()
            },
        )


def _grade(ineq_id: str, dims: tuple[int, ...], graded: Graded, tol: Tolerance) -> Checked:
    # Sides are combined in order.  The minimum margin keeps the first of
    # equal values, as min over a sequence does (0.0 before -0.0 stays
    # 0.0); the scale only enters the tolerance through max(1, scale).  A
    # side absent from a trial holds NaN there, which fmax and the strict
    # comparison pass over.  The first side is never absent.
    first, *rest = graded.sides
    scale, min_margin = first.scale, first.min_margin
    for side in rest:
        scale = np.fmax(scale, side.scale)
        min_margin = np.where(side.min_margin < min_margin, side.min_margin, min_margin)
    tol_used = tol.effective(scale)
    violated = min_margin < -tol_used
    if graded.hypothesis_ok is not None:
        violated &= graded.hypothesis_ok
    return Checked(ineq_id, dims, graded, min_margin, tol_used, violated)


# --- checker cores ---------------------------------------------------------------
#
# Each core takes the stacked operands of k trials and a tolerance and
# returns a Graded; the statements are in the docstrings of the check_*
# functions below.  Structural requirements (an operand that must be
# Hermitian for the statement to parse) raise NotHermitian for the stack.


def _core_scalar(mats, tol) -> Graded:
    reals = []
    for m in mats:
        z = m[:, 0, 0]
        if np.any(np.abs(z.imag) > 1e-12 * np.maximum(1.0, np.abs(z))):
            raise ValueError("scalar-1.6 takes real scalars; imaginary part is not negligible")
        reals.append(z.real)
    a, b = reals
    mod = np.sqrt(a * a + b * b)[:, None]
    left = _spectrum_side("left", _INV_SQRT2 * np.abs(a + b)[:, None], mod)
    right = _spectrum_side("right", mod, (np.abs(a) + np.abs(b))[:, None])
    return Graded((left, right))


def _bk_side(a, b) -> SideBatch:
    lhs = _singular_values(a + b)
    rhs = _SQRT2 * _singular_values(a + 1j * b)
    return _spectrum_side("main", lhs, rhs)


def _core_bk_1_1(mats, tol) -> Graded:
    a, b = mats
    a_defect, a_min, _, a_psd = _psd_grade(a, tol)
    b_defect, b_min, _, b_psd = _psd_grade(b, tol)
    residuals = {
        "a_hermitian_defect": a_defect,
        "a_min_eigenvalue": a_min,
        "b_hermitian_defect": b_defect,
        "b_min_eigenvalue": b_min,
    }
    return Graded((_bk_side(a, b),), a_psd & b_psd, residuals)


def _core_bk_1_1_hermitian_b(mats, tol) -> Graded:
    a, b = mats
    a_defect, a_min, _, a_psd = _psd_grade(a, tol)
    b_defect, b_hermitian, _ = _hermitian_grade(b, tol)
    residuals = {
        "a_hermitian_defect": a_defect,
        "a_min_eigenvalue": a_min,
        "b_hermitian_defect": b_defect,
    }
    return Graded((_bk_side(a, b),), a_psd & b_hermitian, residuals)


def _psd_block(mats, tol):
    """[[A,B],[B*,C]] and its PSD grading."""
    a, b, c = mats
    block = _block2(a, b, _adj(b), c)
    defect, min_eig, _, psd = _psd_grade(block, tol)
    residuals = {"block_hermitian_defect": defect, "block_min_eigenvalue": min_eig}
    return block, psd, residuals


def _core_tao_1_2(mats, tol) -> Graded:
    block, psd, residuals = _psd_block(mats, tol)
    side = _spectrum_side("main", 2.0 * _singular_values(mats[1]), _singular_values(block))
    return Graded((side,), psd, residuals)


def _core_ak_1_3(mats, tol) -> Graded:
    a, b, c = mats
    _, psd, residuals = _psd_block(mats, tol)
    side = _spectrum_side("main", _singular_values(b), _singular_values(_direct_sum(a, c)))
    return Graded((side,), psd, residuals)


def _core_ak_1_4(mats, tol) -> Graded:
    a, b = mats
    a_defect, a_hermitian, _ = _hermitian_grade(a, tol)
    b_defect, b_min, _, b_psd = _psd_grade(b, tol)
    ha, hb = _herm(a), _herm(b)
    minus_eig, minus_tol = _loewner(ha, hb, tol)
    plus_eig, plus_tol = _loewner(-ha, hb, tol)
    residuals = {
        "a_hermitian_defect": a_defect,
        "b_hermitian_defect": b_defect,
        "b_min_eigenvalue": b_min,
        "min_eig_b_minus_a": minus_eig,
        "min_eig_b_plus_a": plus_eig,
    }
    hyp = a_hermitian & b_psd & (minus_eig >= -minus_tol) & (plus_eig >= -plus_tol)
    lhs = 2.0 * _singular_values(a)
    side = _spectrum_side("main", lhs, _singular_values(_direct_sum(b + a, b - a)))
    return Graded((side,), hyp, residuals)


def _thm_2_1_sides(a) -> tuple[SideBatch, SideBatch]:
    a1, a2 = _cartesian(a)
    mid = _singular_values(a)
    left = _spectrum_side("left", _INV_SQRT2 * _singular_values(a1 + a2), mid)
    right = _spectrum_side("right", mid, _singular_values(_abs_op(a1) + _abs_op(a2)))
    return left, right


def _core_thm_2_1(mats, tol) -> Graded:
    (a,) = mats
    defect, normal, *_ = _normality_grade(a, tol)
    return Graded(_thm_2_1_sides(a), normal, {"normality_defect": defect})


def _core_thm_2_1_nonnormal(mats, tol) -> Graded:
    (a,) = mats
    defect, *_ = _normality_grade(a, tol)
    return Graded(_thm_2_1_sides(a), None, {"normality_defect": defect})


def _core_thm_2_4(mats, tol) -> Graded:
    (a,) = mats
    defect, normal, *_ = _normality_grade(a, tol)
    a1, a2 = _cartesian(a)
    order_eig, order_tol = _loewner(-a2, a1, tol)
    (plus1,) = _jordan(a1, "plus")
    (plus2,) = _jordan(a2, "plus")
    rhs_mat = _direct_sum(2.0 * (plus1 + plus2), a1 + a2)
    side = _spectrum_side("main", _singular_values(a), _singular_values(rhs_mat))
    residuals = {"normality_defect": defect, "min_eig_a1_plus_a2": order_eig}
    return Graded((side,), normal & (order_eig >= -order_tol), residuals)


def _core_thm_2_5(half: str):
    """The thm-2.5 core for the positive ("plus") or negative ("minus") part."""

    def core(mats, tol) -> Graded:
        h, _ = _require_hermitian(mats[0], "A")
        (part,) = _jordan(h, half)
        absa = _abs_op(h)
        rest = (absa - h) / 2.0 if half == "plus" else (absa + h) / 2.0
        rhs = _singular_values(_direct_sum(absa, rest))
        return Graded((_spectrum_side("main", _singular_values(part), rhs),))

    return core


def _core_thm_2_7(mats, tol) -> Graded:
    (a,) = mats
    a1, a2 = _cartesian(a)
    s_sum = _singular_values(a1 + a2)
    t = _singular_values(a + 1j * _adj(a))
    left = _spectrum_side("left", _SQRT2 * s_sum, t)
    right = _spectrum_side("right", t, 2.0 * s_sum)
    return Graded((left, right))


def _adjoint(x):
    # A contiguous copy, like numkernel.adjoint: BLAS treats it differently
    # from a transposed view, and the last bits of the products show it.
    return np.ascontiguousarray(_adj(x))


def _core_thm_2_8(mats, tol) -> Graded:
    a, b = mats
    lhs = _singular_values(a @ b + b @ a)
    gram_right = _adjoint(a) @ a + _adjoint(b) @ b
    gram_left = a @ _adjoint(a) + b @ _adjoint(b)
    side = _spectrum_side("main", lhs, _singular_values(_direct_sum(gram_right, gram_left)))
    return Graded((side,))


def _core_cor_2_9(mats, tol) -> Graded:
    a, b = mats
    a_defect, a_normal, *_ = _normality_grade(a, tol)
    b_defect, b_normal, *_ = _normality_grade(b, tol)
    gram = a @ _adjoint(a) + b @ _adjoint(b)
    lhs = _singular_values(a @ b + b @ a)
    side = _spectrum_side("main", lhs, _singular_values(_direct_sum(gram, gram)))
    residuals = {"a_normality_defect": a_defect, "b_normality_defect": b_defect}
    return Graded((side,), a_normal & b_normal, residuals)


def _core_loewner_cartesian(mats, tol) -> Graded:
    (a,) = mats
    a1, a2 = _cartesian(a)
    absa = _abs_op(a)
    left = _order_side("left", _INV_SQRT2 * _abs_op(a1 + a2), absa)
    right = _order_side("right", absa, _abs_op(a1) + _abs_op(a2))
    return Graded((left, right))


def _core_proof_facts(gate_sqrt: bool):
    """The proof-facts core; with ``gate_sqrt`` the square-root side is
    evaluated only on the trials whose pair commutes."""

    def core(mats, tol) -> Graded:
        h1, _ = _require_hermitian(mats[0], "A1")
        h2, _ = _require_hermitian(mats[1], "A2")
        comm = _fro(h1 @ h2 - h2 @ h1)
        squares = h1 @ h1 + h2 @ h2
        s = h1 + h2
        square = _order_side("square", s @ s, 2.0 * squares)
        present = (comm <= tol.effective(_fro(h1) * _fro(h2))) | (not gate_sqrt)
        sel = np.flatnonzero(present)
        h1, h2, squares = h1[sel], h2[sel], squares[sel]
        sqrt = _order_side("sqrt", _psd_sqrt(_herm(squares)), _abs_op(h1) + _abs_op(h2))
        if sel.size < present.size:
            sqrt = sqrt.spread(present)
        return Graded((square, sqrt), None, {"commutator_defect": comm})

    return core


# --- catalog and uniform dispatch -------------------------------------------

# Generator classes whose outputs are always normal matrices; used to decide
# which (inequality, class) pairings are expected to hold.
NORMAL_OUTPUT_CLASSES = frozenset(
    {"hermitian", "psd", "unitary", "normal", "normal_order_constrained"}
)


@dataclass(frozen=True)
class CatalogEntry:
    """Dispatch record for one inequality id.

    ``core`` is the stacked checker: it takes one (k, n, n) stack per
    operand.  ``holds_for`` is the set of generator class tags for which a
    Violated verdict would indicate a bug (None means every class: the
    statement is a theorem whose hypotheses are graded by the checker
    itself).  ``split_cartesian`` marks checkers whose canonical two-matrix
    input is the Hermitian/skew splitting of a single generated matrix.
    """

    ineq_id: str
    arity: int
    canonical_class: str
    core: Callable[..., Graded]
    fixed_dim: int | None = None
    in_all: bool = True
    split_cartesian: bool = False
    holds_for: frozenset[str] | None = None

    def expected_to_hold(self, class_tag: str) -> bool:
        if self.holds_for is None:
            return True
        return class_tag in self.holds_for

    def run(self, mats: Sequence[np.ndarray], tol: Tolerance) -> Checked:
        """Grade k input sets at once; ``mats`` holds one (k, n, n) stack
        per operand."""
        dims = (mats[0].shape[-1],) * self.arity
        return _grade(self.ineq_id, dims, self.core(mats, tol), tol)


CATALOG: dict[str, CatalogEntry] = {}


def _register(*args, **kwargs) -> None:
    entry = CatalogEntry(*args, **kwargs)
    CATALOG[entry.ineq_id] = entry


_register("scalar-1.6", 2, "hermitian", _core_scalar, fixed_dim=1)
_register("bk-1.1", 2, "psd", _core_bk_1_1)
_register("tao-1.2", 3, "psd_block2", _core_tao_1_2)
_register("ak-1.3", 3, "psd_block2", _core_ak_1_3)
_register("ak-1.4", 2, "dominated_pair", _core_ak_1_4)
_register("thm-2.1", 1, "normal", _core_thm_2_1)
_register("thm-2.4", 1, "normal_order_constrained", _core_thm_2_4)
_register("thm-2.5-plus", 1, "hermitian", _core_thm_2_5("plus"))
_register("thm-2.5-minus", 1, "hermitian", _core_thm_2_5("minus"))
_register("thm-2.7", 1, "ginibre", _core_thm_2_7)
_register("thm-2.8", 2, "ginibre", _core_thm_2_8)
_register("cor-2.9", 2, "normal_pair_shared_basis", _core_cor_2_9)
_register(
    "loewner-cartesian", 1, "normal", _core_loewner_cartesian, holds_for=NORMAL_OUTPUT_CLASSES
)
_register("proof-facts-2.1", 2, "normal", _core_proof_facts(True), split_cartesian=True)
# Search/replay variants: statements known or suspected to be false in
# general.  Excluded from the "all" expansion.
_register(
    "bk-1.1-hermitian-B",
    2,
    "psd",
    _core_bk_1_1_hermitian_b,
    in_all=False,
    holds_for=frozenset({"psd"}),
)
_register(
    "thm-2.1-nonnormal",
    1,
    "ginibre",
    _core_thm_2_1_nonnormal,
    in_all=False,
    holds_for=NORMAL_OUTPUT_CLASSES,
)
_register(
    "loewner-cartesian-general",
    1,
    "ginibre",
    _core_loewner_cartesian,
    in_all=False,
    holds_for=NORMAL_OUTPUT_CLASSES,
)
_register(
    "proof-facts-2.1-general",
    2,
    "hermitian",
    _core_proof_facts(False),
    in_all=False,
    split_cartesian=True,
    holds_for=frozenset({"normal", "normal_order_constrained"}),
)


def catalog_ids(include_variants: bool = False) -> tuple[str, ...]:
    """Inequality ids in catalog order; variants are the search-only ids."""
    return tuple(
        e.ineq_id for e in CATALOG.values() if include_variants or e.in_all
    )


def catalog_entry(ineq_id: str) -> CatalogEntry:
    try:
        return CATALOG[ineq_id]
    except KeyError:
        raise UnknownInequality(f"unknown inequality id {ineq_id!r}") from None


def check(ineq_id: str, inputs: Sequence, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """Uniform dispatch: run the checker for ``ineq_id`` on ``inputs``.

    Validates arity, dimensions and finiteness before running the stacked
    checker on a stack of one; the report's id always equals the requested
    id.
    """
    entry = catalog_entry(ineq_id)
    mats = [np.asarray(m, dtype=np.complex128) for m in inputs]
    if len(mats) != entry.arity:
        raise ArityMismatch(
            f"{ineq_id} takes {entry.arity} input(s), got {len(mats)}"
        )
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"inputs must be square matrices, got shape {m.shape}")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise DimensionMismatch(
            f"all inputs must share one dimension, got {[m.shape[0] for m in mats]}"
        )
    if entry.fixed_dim is not None and n != entry.fixed_dim:
        raise DimensionMismatch(
            f"{ineq_id} requires {entry.fixed_dim}x{entry.fixed_dim} inputs"
        )
    if not all(np.isfinite(m).all() for m in mats):
        raise InvalidMatrix(f"{ineq_id}: inputs contain non-finite entries")
    # Contiguous operands, so that no result depends on the caller's layout.
    return entry.run([np.ascontiguousarray(m)[None] for m in mats], tol).report(0)


# --- one-matrix checkers: check() on a fixed id ------------------------------


def check_scalar_1_6(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """(1/sqrt2)|a+b| <= |a+ib| <= |a|+|b| for real scalars a, b."""
    return check("scalar-1.6", ([[float(a)]], [[float(b)]]), tol)


def check_bk_1_1(a, b, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """s_j(A+B) <= sqrt2 * s_j(A+iB) for PSD A, B."""
    return check("bk-1.1", (a, b), tol)


def check_bk_1_1_hermitian_b(a, b, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """The bk-1.1 comparison with B only required Hermitian, not PSD.

    This relaxed statement is false in general; it exists as a search and
    replay target for counterexamples.
    """
    return check("bk-1.1-hermitian-B", (a, b), tol)


def check_tao_1_2(a, b, c, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """2 s_j(B) <= s_j([[A,B],[B*,C]]) when the block matrix is PSD."""
    return check("tao-1.2", (a, b, c), tol)


def check_ak_1_3(a, b, c, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """s_j(B) <= s_j(A ⊕ C) when [[A,B],[B*,C]] is PSD."""
    return check("ak-1.3", (a, b, c), tol)


def check_ak_1_4(a, b, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """2 s_j(A) <= s_j((B+A) ⊕ (B-A)) for Hermitian A with ±A <= B."""
    return check("ak-1.4", (a, b), tol)


def check_thm_2_1(a, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """(1/sqrt2) s_j(A1+A2) <= s_j(A) <= s_j(|A1|+|A2|) for normal A."""
    return check("thm-2.1", (a,), tol)


def check_thm_2_1_nonnormal(a, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """The thm-2.1 comparison with the normality hypothesis dropped.

    Exists as a search/replay target: violations demonstrate that the
    hypothesis is essential.
    """
    return check("thm-2.1-nonnormal", (a,), tol)


def check_thm_2_4(a, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """s_j(A) <= s_j(2(A1⁺+A2⁺) ⊕ (A1+A2)) for normal A with -A2 <= A1."""
    return check("thm-2.4", (a,), tol)


def check_thm_2_5(a, side: str, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """s_j(A±) <= s_j(|A| ⊕ (|A|∓A)/2) for Hermitian A.

    ``side`` selects the positive ("plus") or negative ("minus") part.
    Raises NotHermitian for non-Hermitian input: the positive/negative
    splitting is undefined otherwise.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return check(f"thm-2.5-{side}", (a,), tol)


def check_thm_2_7(a, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """sqrt2 s_j(A1+A2) <= s_j(A+iA*) <= 2 s_j(A1+A2) for arbitrary A.

    The left comparison is an exact identity (A + iA* = (1+i)(A1+A2)), so
    its margins are round-off sized on every input.
    """
    return check("thm-2.7", (a,), tol)


def check_thm_2_8(a, b, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """s_j(AB+BA) <= s_j((A*A+B*B) ⊕ (AA*+BB*)) for arbitrary A, B."""
    return check("thm-2.8", (a, b), tol)


def check_cor_2_9(a, b, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """s_j(AB+BA) <= s_j((AA*+BB*) ⊕ (AA*+BB*)) for normal A, B."""
    return check("cor-2.9", (a, b), tol)


def check_loewner_cartesian(a, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """The matrix-order analogue of thm-2.1:
    (1/sqrt2)|A1+A2| <= |A| and |A| <= |A1|+|A2| in the Loewner order.

    Both can fail even though the singular-value versions hold for normal
    A; failures are reported as Violated verdicts, not errors, because
    they are the interesting output.
    """
    return check("loewner-cartesian", (a,), tol)


def check_loewner_cartesian_general(a, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """Identical comparison to loewner-cartesian under its search-target id."""
    return check("loewner-cartesian-general", (a,), tol)


def check_proof_facts_2_1(a1, a2, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """Two operator-order facts about a Hermitian pair:
    (A1+A2)^2 <= 2(A1^2+A2^2), always; and sqrt(A1^2+A2^2) <= |A1|+|A2|,
    checked only when the pair commutes (the side is skipped otherwise).
    """
    return check("proof-facts-2.1", (a1, a2), tol)


def check_proof_facts_2_1_general(a1, a2, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """Both proof-facts comparisons on an arbitrary Hermitian pair.

    The square-root comparison is evaluated even for non-commuting pairs;
    its general validity is treated as an open question to fuzz, so this
    id is never expected to hold a priori.
    """
    return check("proof-facts-2.1-general", (a1, a2), tol)

"""Checker catalog for singular-value and operator-order inequalities.

Every checker compares one or two "sides" and returns an
:class:`InequalityReport` holding the complete per-index margin data, the
graded hypothesis residuals, and a three-way verdict:

- ``holds``: every margin is above ``-tol_used``;
- ``violated``: some margin is genuinely negative;
- ``hypothesis_violated``: the statement's hypotheses fail on this input
  (e.g. an operand that must be PSD is not), in which case the margins are
  still computed and reported — they are data, not errors.

Hypotheses are named (``a_positive``, ``normal``, ``commute``, ...), each
with a per-trial flag and the residuals that back it.  A search-only
variant is its base statement without one of them: the dropped hypothesis
no longer gates the verdict, and its residuals are still reported.

Structural requirements (an operand that must be Hermitian for the
statement to even parse) raise ``NotHermitian`` instead of grading into a
verdict.

Two comparison kinds appear.  Spectrum sides compare singular values
zero-padded to a common length with ``margin_j = rhs_j - lhs_j``.  Order
sides test a Loewner inequality ``X <= Y``; their per-index entries are
the ascending eigenvalues of ``Y - X`` (so ``j = 1`` is the decisive one)
with ``lhs = 0``.

The effective tolerance of a report is ``tol_rel * scale``, where
``scale`` is the largest side scale: the larger leading singular value of
a spectrum side, the larger Frobenius norm of the two operands of an order
side.  Both scale with the inputs the way the margins do, so the verdict
does not depend on the units of the inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .decomp import cartesian, jordan
from .numkernel import (
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidMatrix,
    NoConvergence,
    Tolerance,
    ToleranceOverflow,
    _adj,
    _block2,
    _eigvalsh,
    _fro,
    _herm,
    _require_hermitian,
    _zero_slices,
    abs_op,
    direct_sum_spectrum,
    loewner_leq,
    one_blas_thread,
    psd_sqrt,
    singular_values,
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
    head value for spectra, the larger Frobenius norm of the two operands
    for orders.
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
    minimum margin.  ``requires`` names the hypothesis without which the
    side is not evaluated; ``present`` marks the trials that evaluated it
    (None: all of them), and nothing reads the rows of the others."""

    label: str
    kind: str
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    scale: np.ndarray
    min_margin: np.ndarray
    present: np.ndarray | None = None
    requires: str | None = None

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
    """Loewner side X <= Y: the ascending spectrum of Y - X, at the scale
    of X and Y (see ``loewner_leq``)."""
    eigs, scale = loewner_leq(x, y)
    return SideBatch(label, "order", np.zeros_like(eigs), eigs, eigs, scale, eigs[:, 0].copy())


def _order_hypothesis(name: str, residual: str, x, y, tol: Tolerance) -> tuple[dict, np.ndarray]:
    """Hypothesis ``name``: X <= Y, backed by ``residual``, the smallest
    eigenvalue of Y - X; and the ascending eigenvalues of Y - X."""
    eigs, scale = loewner_leq(x, y)
    min_eig = eigs[:, 0]
    return {name: (min_eig >= -tol.effective(scale), {residual: min_eig})}, eigs


# Hermitian-ness and positivity are graded at the scale of ||A||_F,
# normality at ||A||_F^2, since the self-commutator is quadratic in A.


def _hermitian(name: str, x: np.ndarray, tol: Tolerance) -> tuple[dict, np.ndarray]:
    """``{name}_hermitian`` of a stack, backed by ``{name}_hermitian_defect``
    (||A - A*||_F), and the tolerance at ||A||_F that grades it."""
    defect = _fro(x - _adj(x))
    herm_tol = tol.effective(_fro(x))
    hermitian = defect <= herm_tol
    return {f"{name}_hermitian": (hermitian, {f"{name}_hermitian_defect": defect})}, herm_tol


def _psd_hypotheses(name: str, x: np.ndarray, tol: Tolerance) -> tuple[dict, np.ndarray]:
    """``{name}_hermitian`` and ``{name}_positive`` (PSD, which implies
    Hermitian) of a stack, and the ascending eigenvalues of (A + A*)/2 (0
    for a zero slice); positivity is backed by ``{name}_min_eigenvalue``,
    the smallest of them."""
    hypotheses, herm_tol = _hermitian(name, x, tol)
    h = _herm(x)
    eigs = _eigvalsh(h)
    zero = _zero_slices(h)
    if zero is not None:
        eigs[zero] = 0.0
    min_eig = eigs[:, 0]
    psd = hypotheses[f"{name}_hermitian"][0] & (min_eig >= -herm_tol)
    hypotheses[f"{name}_positive"] = (psd, {f"{name}_min_eigenvalue": min_eig})
    return hypotheses, eigs


def _normal(prefix: str, x: np.ndarray, tol: Tolerance) -> dict:
    """``{prefix}normal`` of a stack, backed by ``{prefix}normality_defect``
    (||A*A - AA*||_F)."""
    norm = _fro(x)
    adj = _adj(x)
    defect = _fro(adj @ x - x @ adj)
    normal = defect <= tol.effective(norm * norm)
    return {f"{prefix}normal": (normal, {f"{prefix}normality_defect": defect})}


@dataclass(slots=True)
class Graded:
    """What a checker core computes for k trials, before grading: its sides
    and its named hypotheses, each a per-trial flag and the residuals that
    back it."""

    sides: tuple[SideBatch, ...]
    hypotheses: dict[str, tuple[np.ndarray, dict[str, np.ndarray]]] = field(
        default_factory=dict
    )


@dataclass(slots=True)
class Checked:
    """Verdicts and margins of one checker over k trials.

    ``hypothesis_ok`` is the verdict gate (None: no hypothesis gates it).
    ``min_margin`` and ``tol_used`` are the report-level values; a trial is
    violated when its hypotheses hold and its minimum margin is below
    ``-tol_used``.
    """

    ineq_id: str
    dims: tuple[int, ...]
    sides: tuple[SideBatch, ...]
    hypothesis_ok: np.ndarray | None
    residuals: dict[str, np.ndarray]
    min_margin: np.ndarray
    tol_used: np.ndarray
    violated: np.ndarray

    def __len__(self) -> int:
        return self.min_margin.shape[0]

    def finite(self) -> bool:
        """Whether every number a verdict or a count is read from is finite:
        minimum margins and tolerances, the minima of the sides each trial
        evaluated, and the hypothesis residuals."""
        values = [self.min_margin, self.tol_used, *self.residuals.values()]
        values += [s.min_margin if s.present is None else s.min_margin[s.present] for s in self.sides]
        return bool(np.isfinite(np.concatenate(values)).all())

    def verdict(self, i: int) -> Verdict:
        hyp = self.hypothesis_ok
        if hyp is not None and not hyp[i]:
            return Verdict.HYPOTHESIS_VIOLATED
        return Verdict.VIOLATED if self.violated[i] else Verdict.HOLDS

    def report(self, i: int) -> InequalityReport:
        """The full report of trial ``i``."""
        present = [s.present is None or bool(s.present[i]) for s in self.sides]
        return InequalityReport(
            ineq_id=self.ineq_id,
            dims=self.dims,
            verdict=self.verdict(i),
            min_margin=float(self.min_margin[i]),
            tol_used=float(self.tol_used[i]),
            sides=tuple(s.margin_side(i) for s, p in zip(self.sides, present) if p),
            skipped=tuple(s.label for s, p in zip(self.sides, present) if not p),
            hypothesis_residuals={
                name: float(values[i]) for name, values in self.residuals.items()
            },
        )


def _grade(ineq_id: str, dims: tuple[int, ...], graded: Graded, tol: Tolerance, drops) -> Checked:
    # Every hypothesis but the dropped ones is kept.  A kept hypothesis
    # that a side requires marks that side absent on the trials where it
    # fails; the others gate the verdict.  Residuals are reported for all
    # of them.
    kept = {name: flag for name, (flag, _) in graded.hypotheses.items() if name not in drops}
    sides = tuple(
        dataclasses.replace(s, present=kept[s.requires])
        if s.requires in kept and not kept[s.requires].all()
        else s
        for s in graded.sides
    )
    required = {s.requires for s in sides}
    gate = None
    for name, flag in kept.items():
        if name not in required:
            gate = flag if gate is None else gate & flag
    residuals = {k: v for _, backing in graded.hypotheses.values() for k, v in backing.items()}
    # Sides are combined in order, each over the trials that evaluated it
    # (the first side is never absent).  The minimum margin keeps the
    # first of equal values, as min over a sequence does (0.0 before -0.0
    # stays 0.0).
    first, *rest = sides
    scale, min_margin = first.scale, first.min_margin
    for side in rest:
        wider = np.fmax(scale, side.scale)
        lower = side.min_margin < min_margin
        if side.present is not None:
            wider = np.where(side.present, wider, scale)
            lower &= side.present
        scale = wider
        min_margin = np.where(lower, side.min_margin, min_margin)
    tol_used = tol.effective(scale)
    violated = min_margin < -tol_used
    if gate is not None:
        violated &= gate
    return Checked(ineq_id, dims, sides, gate, residuals, min_margin, tol_used, violated)


# --- checker cores ---------------------------------------------------------------
#
# Each core takes the stacked operands of k trials and a tolerance and
# returns a Graded; its docstring states the inequality.  Structural
# requirements (an operand that must be Hermitian for the statement to
# parse) raise NotHermitian for the stack.


def _core_scalar(mats, tol) -> Graded:
    """scalar-1.6: (1/sqrt2)|a+b| <= |a+ib| <= |a|+|b| for real scalars a, b."""
    # A 1x1 matrix is Hermitian exactly when it is real.  The reals come
    # from the inputs: the symmetrised (z + z*)/2 overflows near 1e308.
    for m, name in zip(mats, "ab"):
        _require_hermitian(m, name)
    a, b = (m[:, 0, 0].real for m in mats)
    # |a+ib| is the singular value of the 1x1 matrix [a+ib], from the same
    # kernel call as thm-2.1's s_1(A), so the two routes agree bit for bit.
    z = np.empty((a.shape[0], 1, 1), dtype=np.complex128)
    z.real[:, 0, 0], z.imag[:, 0, 0] = a, b
    mod = singular_values(z)
    left = _spectrum_side("left", _INV_SQRT2 * np.abs(a + b)[:, None], mod)
    right = _spectrum_side("right", mod, (np.abs(a) + np.abs(b))[:, None])
    return Graded((left, right))


def _core_bk_1_1(mats, tol) -> Graded:
    """bk-1.1: s_j(A+B) <= sqrt2 s_j(A+iB) for PSD A, B."""
    a, b = mats
    side = _spectrum_side("main", singular_values(a + b), _SQRT2 * singular_values(a + 1j * b))
    hypotheses = {**_psd_hypotheses("a", a, tol)[0], **_psd_hypotheses("b", b, tol)[0]}
    return Graded((side,), hypotheses)


def _psd_block(mats, tol):
    """[[A,B],[B*,C]], its hypotheses ``block_hermitian``, ``block_positive``
    and the ascending eigenvalues of its Hermitian part."""
    a, b, c = mats
    block = _block2(a, b, _adj(b), c)
    return block, *_psd_hypotheses("block", block, tol)


def _core_tao_1_2(mats, tol) -> Graded:
    """tao-1.2: 2 s_j(B) <= s_j([[A,B],[B*,C]]) when the block matrix is PSD."""
    block, hypotheses, eigs = _psd_block(mats, tol)
    side = _spectrum_side("main", 2.0 * singular_values(mats[1]), singular_values(block, eigs))
    return Graded((side,), hypotheses)


def _core_ak_1_3(mats, tol) -> Graded:
    """ak-1.3: s_j(B) <= s_j(A ⊕ C) when [[A,B],[B*,C]] is PSD."""
    a, b, c = mats
    _, hypotheses, _ = _psd_block(mats, tol)
    rhs = direct_sum_spectrum(singular_values(a), singular_values(c))
    side = _spectrum_side("main", singular_values(b), rhs)
    return Graded((side,), hypotheses)


def _core_ak_1_4(mats, tol) -> Graded:
    """ak-1.4: 2 s_j(A) <= s_j((B+A) ⊕ (B-A)) for Hermitian A with ±A <= B."""
    a, b = mats
    a_hermitian, _ = _hermitian("a", a, tol)
    ha, hb = _herm(a), _herm(b)
    le, minus_eigs = _order_hypothesis("a_le_b", "min_eig_b_minus_a", ha, hb, tol)
    ge, plus_eigs = _order_hypothesis("minus_a_le_b", "min_eig_b_plus_a", -ha, hb, tol)
    hypotheses = {**a_hermitian, **_psd_hypotheses("b", b, tol)[0], **le, **ge}
    lhs = 2.0 * singular_values(a)
    # The order hypotheses hold the eigenvalues of Hb ± Ha, which is B ± A
    # where A and B equal their adjoints bit for bit (else up to rounding).
    rhs = direct_sum_spectrum(singular_values(b + a, plus_eigs), singular_values(b - a, minus_eigs))
    side = _spectrum_side("main", lhs, rhs)
    return Graded((side,), hypotheses)


def _core_thm_2_1(mats, tol) -> Graded:
    """thm-2.1: (1/sqrt2) s_j(A1+A2) <= s_j(A) <= s_j(|A1|+|A2|) for normal A."""
    (a,) = mats
    a1, a2 = cartesian(a)
    mid = singular_values(a)
    left = _spectrum_side("left", _INV_SQRT2 * singular_values(a1 + a2), mid)
    abs_sum = abs_op(a1) + abs_op(a2)
    right = _spectrum_side("right", mid, singular_values(abs_sum))
    return Graded((left, right), _normal("", a, tol))


def _core_thm_2_4(mats, tol) -> Graded:
    """thm-2.4: s_j(A) <= s_j(2(A1⁺+A2⁺) ⊕ (A1+A2)) for normal A with -A2 <= A1."""
    (a,) = mats
    a1, a2 = cartesian(a)
    (plus1,) = jordan(a1, "plus")
    (plus2,) = jordan(a2, "plus")
    # The order hypothesis holds the eigenvalues of A1 + A2.
    order, w = _order_hypothesis("minus_a2_le_a1", "min_eig_a1_plus_a2", -a2, a1, tol)
    rhs = direct_sum_spectrum(singular_values(2.0 * (plus1 + plus2)), singular_values(a1 + a2, w))
    side = _spectrum_side("main", singular_values(a), rhs)
    return Graded((side,), {**_normal("", a, tol), **order})


def _core_thm_2_5(half: str):
    """thm-2.5-plus/-minus: s_j(A±) <= s_j(|A| ⊕ (|A|∓A)/2) for Hermitian A."""

    # Every spectrum is a function of the ascending eigenvalues w of A: A⁺
    # and A⁻ have max(±w, 0), |A| has |w|, and (|A| ∓ A)/2 is A∓.
    def core(mats, tol) -> Graded:
        h, _ = _require_hermitian(mats[0], "A")
        w = _eigvalsh(h)  # ascending, so -w descends
        plus, minus = np.where(w > 0, w, 0.0)[:, ::-1], np.where(w < 0, -w, 0.0)
        part, rest = (plus, minus) if half == "plus" else (minus, plus)
        rhs = direct_sum_spectrum(np.sort(np.abs(w), axis=-1)[:, ::-1], rest)
        return Graded((_spectrum_side("main", part, rhs),))

    return core


def _core_thm_2_7(mats, tol) -> Graded:
    """thm-2.7: sqrt2 s_j(A1+A2) <= s_j(A+iA*) <= 2 s_j(A1+A2) for any A."""
    (a,) = mats
    a1, a2 = cartesian(a)
    s_sum = singular_values(a1 + a2)
    t = singular_values(a + 1j * _adj(a))
    left = _spectrum_side("left", _SQRT2 * s_sum, t)
    right = _spectrum_side("right", t, 2.0 * s_sum)
    return Graded((left, right))


def _adjoint(x):
    # A contiguous copy: BLAS treats it differently from a transposed view,
    # and the last bits of the products show it.
    return np.ascontiguousarray(_adj(x))


def _core_thm_2_8(mats, tol) -> Graded:
    """thm-2.8: s_j(AB+BA) <= s_j((A*A+B*B) ⊕ (AA*+BB*)) for any A, B."""
    a, b = mats
    lhs = singular_values(a @ b + b @ a)
    gram_right = _herm(_adjoint(a) @ a + _adjoint(b) @ b)
    gram_left = _herm(a @ _adjoint(a) + b @ _adjoint(b))
    rhs = direct_sum_spectrum(singular_values(gram_right), singular_values(gram_left))
    side = _spectrum_side("main", lhs, rhs)
    return Graded((side,))


def _core_cor_2_9(mats, tol) -> Graded:
    """cor-2.9: s_j(AB+BA) <= s_j((AA*+BB*) ⊕ (AA*+BB*)) for normal A, B."""
    a, b = mats
    s_gram = singular_values(_herm(a @ _adjoint(a) + b @ _adjoint(b)))
    lhs = singular_values(a @ b + b @ a)
    side = _spectrum_side("main", lhs, direct_sum_spectrum(s_gram, s_gram))
    return Graded((side,), {**_normal("a_", a, tol), **_normal("b_", b, tol)})


def _core_loewner_cartesian(mats, tol) -> Graded:
    """loewner-cartesian: (1/sqrt2)|A1+A2| <= |A| <= |A1|+|A2| in the Loewner order."""
    (a,) = mats
    a1, a2 = cartesian(a)
    # Every |.| takes the same route as |A|: for Hermitian A, A1 is A bit
    # for bit and A2 is 0, so the right side's |A1|+|A2|-|A| is exactly 0.
    absa = abs_op(a)
    left = _order_side("left", _INV_SQRT2 * abs_op(a1 + a2), absa)
    right = _order_side("right", absa, abs_op(a1) + abs_op(a2))
    return Graded((left, right))


def _core_proof_facts(mats, tol) -> Graded:
    """proof-facts-2.1: (A1+A2)^2 <= 2(A1^2+A2^2) for Hermitian A1, A2, and
    sqrt(A1^2+A2^2) <= |A1|+|A2| when they also commute."""
    h1, _ = _require_hermitian(mats[0], "A1")
    h2, _ = _require_hermitian(mats[1], "A2")
    comm = _fro(h1 @ h2 - h2 @ h1)
    squares = h1 @ h1 + h2 @ h2
    s = h1 + h2
    square = _order_side("square", s @ s, 2.0 * squares)
    sqrt = _order_side("sqrt", psd_sqrt(_herm(squares)), abs_op(h1) + abs_op(h2))
    sqrt.requires = "commute"
    commute = comm <= tol.effective(_fro(h1) * _fro(h2))
    return Graded((square, sqrt), {"commute": (commute, {"commutator_defect": comm})})


# --- catalog and uniform dispatch -------------------------------------------

# Generator classes whose outputs are always normal matrices; used to decide
# which (inequality, class) pairings are expected to hold.
NORMAL_OUTPUT_CLASSES = frozenset(
    {"hermitian", "psd", "unitary", "normal", "normal_order_constrained"}
)

# Classes whose single output a split_cartesian checker splits into its
# Hermitian/skew parts: the commuting Hermitian pairs proof-facts-2.1 is
# about.
SPLITTABLE_CLASSES = frozenset({"normal", "normal_order_constrained"})


@dataclass(frozen=True)
class CatalogEntry:
    """Dispatch record for one inequality id.

    ``core`` is the stacked checker: it takes one (k, n, n) stack per
    operand.  ``holds_for`` is the set of generator class tags for which a
    Violated verdict would indicate a bug (None means every class: the
    statement is a theorem whose hypotheses are graded by the checker
    itself).  ``split_cartesian`` marks checkers whose canonical two-matrix
    input is the Hermitian/skew splitting of a single generated matrix.
    ``drops`` is None for a catalog statement; a search-only variant,
    left out of "all", is its base statement without the hypotheses
    ``drops`` names (none for a variant that only changes the class).
    ``search_dims`` are the default dimensions of a variant that
    counterexample searches target (None: not a search target).
    """

    ineq_id: str
    arity: int
    canonical_class: str
    core: Callable[..., Graded]
    fixed_dim: int | None = None
    split_cartesian: bool = False
    holds_for: frozenset[str] | None = None
    drops: frozenset[str] | None = None
    search_dims: tuple[int, ...] | None = None

    def expected_to_hold(self, class_tag: str) -> bool:
        if self.holds_for is None:
            return True
        return class_tag in self.holds_for

    @functools.cached_property
    def hypotheses(self) -> tuple[str, ...]:
        """The hypotheses this entry keeps, in the order its core grades
        them (read from the core's grading of identity matrices)."""
        probe = np.eye(self.fixed_dim or 1, dtype=np.complex128)[None]
        names = self.core([probe] * self.arity, DEFAULT_TOL).hypotheses
        return tuple(name for name in names if name not in (self.drops or ()))

    def run(self, mats: Sequence[np.ndarray], tol: Tolerance) -> Checked:
        """Grade k input sets at once; ``mats`` holds one (k, n, n) stack
        per operand."""
        dims = (mats[0].shape[-1],) * self.arity
        return _grade(self.ineq_id, dims, self.core(mats, tol), tol, self.drops or ())


CATALOG: dict[str, CatalogEntry] = {}


def _register(*args, **kwargs) -> None:
    entry = CatalogEntry(*args, **kwargs)
    CATALOG[entry.ineq_id] = entry


def _variant(ineq_id, base_id, drops, canonical_class, holds_for, search_dims=None) -> None:
    """Register ``base_id`` without its hypothesis ``drops`` (None: with
    every hypothesis) as the search-only variant ``ineq_id``, searched at
    ``search_dims`` by default."""
    base = CATALOG[base_id]
    dropped = frozenset(() if drops is None else (drops,))
    if not dropped <= set(base.hypotheses):
        raise ValueError(f"{ineq_id}: {base_id} has no hypothesis {drops!r}")
    CATALOG[ineq_id] = dataclasses.replace(
        base,
        ineq_id=ineq_id,
        canonical_class=canonical_class,
        holds_for=holds_for,
        drops=dropped,
        search_dims=search_dims,
    )


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
_register("proof-facts-2.1", 2, "normal", _core_proof_facts, split_cartesian=True)
# Search-only variants: statements known or suspected to be false in
# general.
_variant("bk-1.1-hermitian-B", "bk-1.1", "b_positive", "psd", frozenset({"psd"}), (2, 3))
_variant("thm-2.1-nonnormal", "thm-2.1", "normal", "ginibre", NORMAL_OUTPUT_CLASSES, (2, 3))
_variant(
    "loewner-cartesian-general", "loewner-cartesian", None, "ginibre", NORMAL_OUTPUT_CLASSES, (2,)
)
_variant("proof-facts-2.1-general", "proof-facts-2.1", "commute", "hermitian", SPLITTABLE_CLASSES)


def catalog_ids(include_variants: bool = False) -> tuple[str, ...]:
    """Inequality ids in catalog order; variants are the search-only ids."""
    return tuple(
        e.ineq_id for e in CATALOG.values() if include_variants or e.drops is None
    )


def catalog_entry(ineq_id: str) -> CatalogEntry:
    try:
        return CATALOG[ineq_id]
    except KeyError:
        raise UnknownInequality(f"unknown inequality id {ineq_id!r}") from None


@one_blas_thread()
def check(ineq_id: str, inputs: Sequence, tol: Tolerance = DEFAULT_TOL) -> InequalityReport:
    """Uniform dispatch: run the checker for ``ineq_id`` on ``inputs``.

    Validates the tolerance's type, arity, dimensions (n x n, n >= 1) and
    finiteness before running the stacked checker on a stack of one; the
    report's id always equals the requested id.  Raises InvalidMatrix when
    finite inputs overflow the kernel, so that no verdict is graded from a
    NaN or an infinity (the overflow is reported by that error alone, not
    by RuntimeWarnings), ToleranceOverflow when only the tolerance does,
    and NoConvergence when the eigensolver gives up; each error names
    ``ineq_id``.
    """
    entry = catalog_entry(ineq_id)
    if not isinstance(tol, Tolerance):
        raise TypeError(f"tol must be a Tolerance, got {tol!r}")
    mats = [np.asarray(m, dtype=np.complex128) for m in inputs]
    if len(mats) != entry.arity:
        raise ArityMismatch(
            f"{ineq_id} takes {entry.arity} input(s), got {len(mats)}"
        )
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DimensionMismatch(
                f"inputs must be non-empty square matrices, got shape {m.shape}"
            )
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
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            checked = entry.run([np.ascontiguousarray(m)[None] for m in mats], tol)
    except ToleranceOverflow as exc:
        raise ToleranceOverflow(f"{ineq_id}: {exc}") from None
    except NoConvergence as exc:
        raise NoConvergence(f"{ineq_id}: {exc}") from None
    if not checked.finite():
        raise InvalidMatrix(
            f"{ineq_id}: inputs overflow the kernel (non-finite margins or residuals)"
        )
    return checked.report(0)

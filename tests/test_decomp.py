"""Hermitian/skew and positive/negative splittings, plus class grading."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svineq.decomp import jordan
from svineq.fixtures import EX_2_2, EX_2_2_A1, EX_2_2_A2
from svineq.inequalities import _normal, _psd_hypotheses, check
from svineq.numkernel import DEFAULT_TOL, abs_op

from conftest import (
    PAULI_X,
    PAULI_Z,
    SHIFT_2,
    cartesian_parts,
    draw,
    frobenius_norm,
    hermitian_defect,
    mat,
)


def halves(h):
    """(plus, minus) of one Hermitian matrix."""
    return jordan(h[None])[0], jordan(-h[None])[0]


def jordan_via_abs(h):
    """Positive/negative parts through the absolute value, (|H| +- H)/2.

    An independent route to the pair ``jordan`` computes by clipping the
    spectrum, so the two can be cross-checked against each other.
    """
    w, v = np.linalg.eigh(h)
    h = (v * w) @ v.conj().T
    absh = abs_op(h[None])[0]
    plus = (absh + h) / 2.0
    minus = (absh - h) / 2.0
    return (plus + plus.conj().T) / 2.0, (minus + minus.conj().T) / 2.0


def commutator_defect(x, y) -> float:
    """||xy - yx||_F of a Hermitian pair, as the proof-facts checker grades it."""
    return check("proof-facts-2.1", (x, y)).hypothesis_residuals["commutator_defect"]


def classify(a, tol=DEFAULT_TOL):
    """The class flags of one matrix and the residuals behind them, from the
    hypothesis builders the checkers use."""
    x = np.asarray(a, dtype=np.complex128)[None]
    hypotheses = {**_psd_hypotheses("a", x, tol)[0], **_normal("a_", x, tol)}
    flags = {name: bool(flag[0]) for name, (flag, _) in hypotheses.items()}
    residuals = {k: float(v[0]) for _, backing in hypotheses.values() for k, v in backing.items()}
    return SimpleNamespace(
        hermitian=flags["a_hermitian"],
        psd=flags["a_positive"],
        normal=flags["a_normal"],
        hermitian_defect=residuals["a_hermitian_defect"],
        min_eigenvalue=residuals["a_min_eigenvalue"],
        normality_defect=residuals["a_normality_defect"],
    )

seeds = st.integers(min_value=0, max_value=2**64 - 1)
dims = st.sampled_from([1, 2, 3, 5, 8])


# --- Hermitian/skew splitting --------------------------------------------------


@given(seed=seeds, n=dims)
def test_cartesian_parts_are_hermitian_and_recombine(seed, n):
    (g,) = draw("ginibre", n, seed)
    a1, a2 = cartesian_parts(g)
    assert hermitian_defect(a1) == 0.0
    assert hermitian_defect(a2) == 0.0
    err = frobenius_norm(a1 + 1j * a2 - g)
    assert err <= 1e-14 * max(1.0, frobenius_norm(g))


def test_cartesian_of_embedded_fixture_is_exact():
    a1, a2 = cartesian_parts(EX_2_2)
    assert np.array_equal(a1, EX_2_2_A1)
    assert np.array_equal(a2, EX_2_2_A2)
    assert np.array_equal(a1 + 1j * a2, EX_2_2)


def test_cartesian_of_hermitian_matrix_has_zero_skew_part():
    h = mat([[1, 2], [2, 5]])
    a1, a2 = cartesian_parts(h)
    assert np.array_equal(a1, h)
    assert not a2.any()


# --- positive/negative splitting ------------------------------------------------


def test_jordan_of_diagonal():
    plus, minus = halves(mat([[3, 0], [0, -4]]))
    assert plus == pytest.approx(mat([[3, 0], [0, 0]]), abs=1e-13)
    assert minus == pytest.approx(mat([[0, 0], [0, 4]]), abs=1e-13)


@given(seed=seeds, n=dims)
def test_jordan_recombines_and_parts_annihilate(seed, n):
    (h,) = draw("hermitian", n, seed)
    plus, minus = halves(h)
    norm = max(1.0, frobenius_norm(h))
    assert frobenius_norm(plus - minus - h) <= 1e-12 * norm
    # both parts PSD
    for part in (plus, minus):
        eigs = np.linalg.eigvalsh(part)
        assert eigs.min() >= -1e-12 * norm
    # complementary supports
    assert frobenius_norm(plus @ minus) <= 1e-10 * norm * norm


@given(seed=seeds, n=dims)
def test_jordan_via_abs_agrees_with_spectral_route(seed, n):
    # Two independently coded routes to the same splitting; they must agree
    # but are kept separate so each can catch bugs in the other.
    (h,) = draw("hermitian", n, seed)
    (a_plus, a_minus), (b_plus, b_minus) = halves(h), jordan_via_abs(h)
    norm = max(1.0, frobenius_norm(h))
    assert frobenius_norm(a_plus - b_plus) <= 1e-10 * norm
    assert frobenius_norm(a_minus - b_minus) <= 1e-10 * norm


# --- commutators and class grading -------------------------------------------------


def test_commutator_defect_values():
    assert commutator_defect(mat([[1, 0], [0, 2]]), mat([[3, 0], [0, 4]])) == 0.0
    assert commutator_defect(PAULI_X, PAULI_Z) == pytest.approx(2.0 * math.sqrt(2.0))


def test_classify_identity():
    flags = classify(np.eye(3), DEFAULT_TOL)
    assert flags.hermitian and flags.psd and flags.normal
    assert flags.hermitian_defect == 0.0
    assert flags.normality_defect == 0.0
    assert flags.min_eigenvalue == pytest.approx(1.0)


def test_classify_shift_matrix():
    flags = classify(SHIFT_2, DEFAULT_TOL)
    assert not flags.hermitian
    assert not flags.psd
    assert not flags.normal
    assert flags.normality_defect == pytest.approx(math.sqrt(2.0))


def test_classify_indefinite_hermitian():
    flags = classify(mat([[1, 0], [0, -1]]), DEFAULT_TOL)
    assert flags.hermitian and flags.normal and not flags.psd
    assert flags.min_eigenvalue == pytest.approx(-1.0)


@given(seed=seeds, n=dims)
def test_classify_flag_implications(seed, n):
    for class_tag in ("ginibre", "hermitian", "psd", "unitary", "normal"):
        (m,) = draw(class_tag, n, seed)
        flags = classify(m, DEFAULT_TOL)
        if flags.psd:
            assert flags.hermitian
        if flags.hermitian:
            assert flags.normal


@given(seed=seeds, n=dims)
def test_classify_recognizes_generated_classes(seed, n):
    (h,) = draw("hermitian", n, seed)
    assert classify(h, DEFAULT_TOL).hermitian
    (p,) = draw("psd", n, seed)
    assert classify(p, DEFAULT_TOL).psd
    (u,) = draw("unitary", n, seed)
    assert classify(u, DEFAULT_TOL).normal
    (a,) = draw("normal", n, seed)
    assert classify(a, DEFAULT_TOL).normal

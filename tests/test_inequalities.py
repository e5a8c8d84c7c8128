"""Checker catalog: frozen examples per inequality plus cross-cutting properties.

Expected values in the frozen examples come from closed-form evaluation of
small diagonal or otherwise hand-solvable inputs (each noted inline), not
from running the checker and copying its output.
"""

import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svineq import inequalities, numkernel
from svineq.fixtures import EX_2_2, EX_2_3
from svineq.fuzzer import _drawer
from svineq.inequalities import (
    ArityMismatch,
    UnknownInequality,
    Verdict,
    catalog_entry,
    catalog_ids,
    check,
)
from svineq.numkernel import (
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidMatrix,
    NoConvergence,
    NotHermitian,
    Tolerance,
)
from svineq.randgen import prng_stream
from svineq.serialize import loads_strict, witness_from_document

from conftest import PAULI_X, SHIFT_2, cartesian_parts, direct_sum, draw, frobenius_norm, mat

INV_SQRT2 = 2.0 ** -0.5
SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

seeds = st.integers(min_value=0, max_value=2**64 - 1)
dims = st.sampled_from([1, 2, 3, 5, 8])
# Scalars kept away from the under/overflow fringe so squaring is exact-safe.
safe_reals = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-80, max_value=1e80),
    st.floats(min_value=-1e80, max_value=-1e-80),
)


def margins(report, label):
    return report.side(label).margin


def lhs_values(report, label):
    return report.side(label).lhs


def rhs_values(report, label):
    return report.side(label).rhs


def assert_report_consistent(report):
    """Structural invariants every report must satisfy."""
    assert report.sides
    assert report.min_margin == min(s.min_margin for s in report.sides)
    for side in report.sides:
        assert len(side.lhs) == len(side.rhs) == len(side.margin)
        assert side.min_margin == min(side.margin)
        assert side.margin == tuple(r - l for l, r in zip(side.lhs, side.rhs))


# --- scalar-1.6 -----------------------------------------------------------------


def test_scalar_1_6_basic():
    rep = check("scalar-1.6", ([[1.0]], [[0.0]]))
    assert rep.verdict is Verdict.HOLDS
    assert rhs_values(rep, "left") == (1.0,)  # |a+ib| = 1
    assert margins(rep, "left") == (1.0 - INV_SQRT2,)
    assert margins(rep, "right") == (0.0,)
    assert_report_consistent(rep)


def test_scalar_1_6_symmetric_equality_is_exact():
    rep = check("scalar-1.6", ([[1.0]], [[1.0]]))
    assert rep.verdict is Verdict.HOLDS
    # |1+i| = sqrt(2) = 2/sqrt(2): exact float equality on the left
    assert margins(rep, "left") == (0.0,)


def test_scalar_1_6_pythagorean():
    rep = check("scalar-1.6", ([[3.0]], [[-4.0]]))
    assert rep.verdict is Verdict.HOLDS
    assert rhs_values(rep, "left") == (5.0,)  # |3-4i| = 5 exactly
    assert lhs_values(rep, "left") == (INV_SQRT2,)
    assert rhs_values(rep, "right") == (7.0,)


def test_scalar_1_6_rejects_non_finite():
    with pytest.raises(ValueError):
        check("scalar-1.6", ([[math.nan]], [[0.0]]))


# --- bk-1.1 -----------------------------------------------------------------------


def test_bk_1_1_identity_equality():
    rep = check("bk-1.1", (np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    # s(2I) = {2,2}; sqrt2 * s((1+i)I) = {2,2} up to round-off
    for m in margins(rep, "main"):
        assert abs(m) <= 1e-12


def test_bk_1_1_orthogonal_diagonals():
    rep = check("bk-1.1", (mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((1.0, 1.0), abs=1e-14)
    assert rhs_values(rep, "main") == pytest.approx((SQRT2, SQRT2), abs=1e-14)


def test_bk_1_1_zero_inputs():
    rep = check("bk-1.1", (np.zeros((2, 2)), np.zeros((2, 2))))
    assert rep.verdict is Verdict.HOLDS
    assert margins(rep, "main") == (0.0, 0.0)


def test_bk_1_1_grades_non_psd_input():
    rep = check("bk-1.1", (mat([[1, 0], [0, -1]]), np.eye(2)))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["a_min_eigenvalue"] == pytest.approx(-1.0)
    # margins are still computed for diagnostics
    assert rep.sides


def test_bk_1_1_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check("bk-1.1", (np.eye(2), np.eye(3)))


@given(seed=seeds, n=dims)
def test_bk_1_1_holds_on_psd_pairs(seed, n):
    (a,) = draw("psd", n, seed)
    (b,) = draw("psd", n, seed, index=1)
    assert check("bk-1.1", (a, b)).verdict is Verdict.HOLDS


def test_bk_1_1_hermitian_b_variant_reports_violations():
    # Relaxing B to merely Hermitian breaks the comparison; a scaled Pauli
    # example: A = I, B = t*X has s(A+B) vs sqrt2*s(A+itX) crossing.
    a = np.eye(2)
    b = 10.0 * PAULI_X
    rep = check("bk-1.1-hermitian-B", (a, b))
    assert rep.ineq_id == "bk-1.1-hermitian-B"
    assert rep.verdict in (Verdict.HOLDS, Verdict.VIOLATED)
    assert "b_hermitian_defect" in rep.hypothesis_residuals


# --- tao-1.2 and ak-1.3 (block PSD forms) ----------------------------------------


def test_tao_1_2_identity_equality():
    rep = check("tao-1.2", (np.eye(2), np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)


def test_tao_1_2_zero_center():
    rep = check("tao-1.2", (np.eye(2), np.zeros((2, 2)), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == (0.0, 0.0, 0.0, 0.0)
    assert rhs_values(rep, "main") == pytest.approx((1, 1, 1, 1), abs=1e-13)


def test_tao_1_2_half_block():
    # Block [[I,B],[B,I]] with B = diag(1, 1/2) splits into 2x2 blocks with
    # eigenvalues 1±1 and 1±1/2: spectrum {2, 3/2, 1/2, 0}.
    rep = check("tao-1.2", (np.eye(2), mat([[1, 0], [0, 0.5]]), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert rhs_values(rep, "main") == pytest.approx((2.0, 1.5, 0.5, 0.0), abs=1e-12)
    assert lhs_values(rep, "main") == pytest.approx((2.0, 1.0, 0.0, 0.0), abs=1e-12)


def test_tao_1_2_grades_non_psd_block():
    rep = check("tao-1.2", (np.eye(2), 2.0 * np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["block_min_eigenvalue"] == pytest.approx(-1.0)


def test_ak_1_3_identity():
    rep = check("ak-1.3", (np.eye(2), np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((1, 1, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((1, 1, 1, 1), abs=1e-13)


def test_ak_1_3_zero_center_holds():
    rep = check("ak-1.3", (np.eye(2), np.zeros((2, 2)), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert margins(rep, "main") == pytest.approx((1, 1, 1, 1), abs=1e-13)


def test_ak_1_3_random_block_matches_definition():
    a, b, c = draw("psd_block2", 3, seed=5)
    rep = check("ak-1.3", (a, b, c))
    assert rep.verdict is Verdict.HOLDS
    # oracle: compare the two spectra directly per the definition
    oracle_lhs = np.linalg.svd(b, compute_uv=False)
    oracle_rhs = np.linalg.svd(direct_sum(a, c), compute_uv=False)
    assert lhs_values(rep, "main")[:3] == pytest.approx(tuple(oracle_lhs), abs=1e-10)
    assert rhs_values(rep, "main") == pytest.approx(tuple(oracle_rhs), abs=1e-10)


@given(seed=seeds, n=dims)
def test_block_psd_forms_hold_on_generated_blocks(seed, n):
    a, b, c = draw("psd_block2", n, seed)
    assert check("tao-1.2", (a, b, c)).verdict is Verdict.HOLDS
    assert check("ak-1.3", (a, b, c)).verdict is Verdict.HOLDS


# --- ak-1.4 ------------------------------------------------------------------------


def test_ak_1_4_diagonal_equality():
    rep = check("ak-1.4", (mat([[1, 0], [0, -1]]), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)


def test_ak_1_4_zero_a():
    (p,) = draw("psd", 3, seed=11)
    rep = check("ak-1.4", (np.zeros((3, 3)), p))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == (0.0,) * 6


def test_ak_1_4_pauli_equality():
    # B±A = I±X have eigenvalues {0,2}: both direct summands contribute {2,0}.
    rep = check("ak-1.4", (PAULI_X, np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)


def test_ak_1_4_grades_broken_domination():
    rep = check("ak-1.4", (mat([[2]]), mat([[1]])))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["min_eig_b_minus_a"] == pytest.approx(-1.0)


@given(seed=seeds, n=dims)
def test_ak_1_4_holds_on_dominated_pairs(seed, n):
    a, b = draw("dominated_pair", n, seed)
    assert check("ak-1.4", (a, b)).verdict is Verdict.HOLDS


# --- thm-2.1 -------------------------------------------------------------------------


def test_thm_2_1_diagonal_normal():
    rep = check("thm-2.1", (mat([[3j, 0], [0, 4]]),))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "left") == pytest.approx(
        (4 * INV_SQRT2, 3 * INV_SQRT2), abs=1e-14
    )
    assert rhs_values(rep, "left") == pytest.approx((4.0, 3.0), abs=1e-14)
    # right side is an equality for this input
    assert margins(rep, "right") == pytest.approx((0.0, 0.0), abs=1e-13)


def test_thm_2_1_golden_ratio_fixture():
    rep = check("thm-2.1", (EX_2_3,))
    assert rep.verdict is Verdict.HOLDS
    mid = rhs_values(rep, "left")
    assert mid == pytest.approx((1.9021130325903073, 1.1755705045849463), abs=1e-12)
    # |a1|+I has closed-form eigenvalues phi+1 and 1/phi+1
    assert rhs_values(rep, "right") == pytest.approx(
        (PHI + 1.0, 1.0 / PHI + 1.0), abs=1e-12
    )


def test_thm_2_1_zero_matrix():
    rep = check("thm-2.1", (np.zeros((2, 2)),))
    assert rep.verdict is Verdict.HOLDS
    assert margins(rep, "left") == (0.0, 0.0)
    assert margins(rep, "right") == (0.0, 0.0)


def test_thm_2_1_grades_non_normal_input():
    rep = check("thm-2.1", (EX_2_2,))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["normality_defect"] == pytest.approx(
        8.0 * SQRT2, abs=1e-12
    )
    # diagnostics still present
    assert {s.label for s in rep.sides} == {"left", "right"}


@given(seed=seeds, n=dims)
def test_thm_2_1_dominance_on_normal_inputs(seed, n):
    # both margin lists stay above -tol for every generated normal matrix
    (a,) = draw("normal", n, seed)
    rep = check("thm-2.1", (a,))
    assert rep.verdict is Verdict.HOLDS
    assert rep.min_margin >= -rep.tol_used


def test_thm_2_1_nonnormal_variant_grades_nothing():
    rep = check("thm-2.1-nonnormal", (EX_2_2,))
    assert rep.ineq_id == "thm-2.1-nonnormal"
    # no hypothesis gate: verdict reflects the margins alone
    assert rep.verdict in (Verdict.HOLDS, Verdict.VIOLATED)


# --- thm-2.4 --------------------------------------------------------------------------


def test_thm_2_4_commuting_diagonal():
    # a1 = diag(1,-1), a2 = diag(-1,2): lhs = {sqrt5, sqrt2};
    # rhs = s(diag(2,4) ⊕ diag(0,1)) = {4,2,1,0}.
    a = mat([[1 - 1j, 0], [0, -1 + 2j]])
    rep = check("thm-2.4", (a,))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx(
        (math.sqrt(5.0), SQRT2, 0.0, 0.0), abs=1e-13
    )
    assert rhs_values(rep, "main") == pytest.approx((4.0, 2.0, 1.0, 0.0), abs=1e-13)


def test_thm_2_4_psd_hermitian_input():
    rep = check("thm-2.4", (mat([[1, 0], [0, 2]]),))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((2, 1, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((4, 2, 2, 1), abs=1e-13)


def test_thm_2_4_zero_matrix():
    rep = check("thm-2.4", (np.zeros((2, 2)),))
    assert rep.verdict is Verdict.HOLDS
    assert rep.min_margin == 0.0


def test_thm_2_4_grades_order_failure():
    # normal (diagonal) but -a2 <= a1 fails: a1 = 0, a2 = -1
    rep = check("thm-2.4", (mat([[-1j]]),))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["min_eig_a1_plus_a2"] == pytest.approx(-1.0)


def test_thm_2_4_grades_non_normal():
    rep = check("thm-2.4", (SHIFT_2 + np.eye(2),))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["normality_defect"] > 0


@given(seed=seeds, n=dims)
def test_thm_2_4_holds_on_constrained_class(seed, n):
    (a,) = draw("normal_order_constrained", n, seed)
    assert check("thm-2.4", (a,)).verdict is Verdict.HOLDS


# --- thm-2.5 ---------------------------------------------------------------------------


def test_thm_2_5_plus_diagonal():
    rep = check("thm-2.5-plus", (mat([[3, 0], [0, -4]]),))
    assert rep.ineq_id == "thm-2.5-plus"
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((3, 0, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((4, 4, 3, 0), abs=1e-13)


def test_thm_2_5_minus_diagonal():
    rep = check("thm-2.5-minus", (mat([[3, 0], [0, -4]]),))
    assert rep.ineq_id == "thm-2.5-minus"
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((4, 0, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((4, 3, 3, 0), abs=1e-13)


def test_thm_2_5_minus_of_psd_has_zero_lhs():
    (p,) = draw("psd", 3, seed=3)
    rep = check("thm-2.5-minus", (p,))
    assert rep.verdict is Verdict.HOLDS
    assert max(abs(v) for v in lhs_values(rep, "main")) <= 1e-10 * max(
        1.0, frobenius_norm(p)
    )


def test_thm_2_5_raises_for_non_hermitian():
    for side in ("plus", "minus"):
        with pytest.raises(NotHermitian):
            check(f"thm-2.5-{side}", (SHIFT_2,))


def test_thm_2_5_rejects_bad_side():
    with pytest.raises(ValueError):
        check("thm-2.5-both", (np.eye(2),))


@given(seed=seeds, n=dims, side=st.sampled_from(["plus", "minus"]))
def test_thm_2_5_holds_on_hermitian(seed, n, side):
    (h,) = draw("hermitian", n, seed)
    assert check(f"thm-2.5-{side}", (h,)).verdict is Verdict.HOLDS


# --- thm-2.7 ----------------------------------------------------------------------------


def test_thm_2_7_shift_matrix():
    rep = check("thm-2.7", (SHIFT_2,))
    assert rep.verdict is Verdict.HOLDS
    # s(A+iA*) = {1,1}; sqrt2*s(a1+a2) = {1,1}: left equality
    assert max(abs(m) for m in margins(rep, "left")) <= 1e-12
    assert margins(rep, "right") == pytest.approx((SQRT2 - 1.0,) * 2, abs=1e-12)


def test_thm_2_7_hermitian_left_equality():
    (h,) = draw("hermitian", 4, seed=9)
    rep = check("thm-2.7", (h,))
    assert rep.verdict is Verdict.HOLDS
    assert max(abs(m) for m in margins(rep, "left")) <= rep.tol_used


def test_thm_2_7_zero():
    rep = check("thm-2.7", (np.zeros((3, 3)),))
    assert rep.verdict is Verdict.HOLDS
    assert rep.min_margin == 0.0


@given(seed=seeds, n=dims, class_tag=st.sampled_from(["ginibre", "hermitian", "normal"]))
def test_thm_2_7_sharpness_invariant(seed, n, class_tag):
    # the left comparison is an exact identity: margins are round-off sized
    # on every input, of any class
    (a,) = draw(class_tag, n, seed)
    rep = check("thm-2.7", (a,))
    assert rep.verdict is Verdict.HOLDS
    assert max(abs(m) for m in margins(rep, "left")) <= rep.tol_used


# --- thm-2.8 and cor-2.9 -----------------------------------------------------------------


def test_thm_2_8_identity():
    rep = check("thm-2.8", (np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((2, 2, 2, 2), abs=1e-13)


def test_thm_2_8_shift_pair_partial_equality():
    rep = check("thm-2.8", (SHIFT_2, SHIFT_2.conj().T))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((1, 1, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((1, 1, 1, 1), abs=1e-13)


def test_thm_2_8_zero_lhs():
    (g,) = draw("ginibre", 3, seed=2)
    rep = check("thm-2.8", (np.zeros((3, 3)), g))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == (0.0,) * 6


def test_thm_2_8_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check("thm-2.8", (np.eye(2), np.eye(3)))


@given(seed=seeds, n=dims)
def test_thm_2_8_holds_on_arbitrary_pairs(seed, n):
    (a,) = draw("ginibre", n, seed)
    (b,) = draw("ginibre", n, seed, index=1)
    assert check("thm-2.8", (a, b)).verdict is Verdict.HOLDS


def test_cor_2_9_diagonal():
    rep = check("cor-2.9", (mat([[1j, 0], [0, 2]]), mat([[1, 0], [0, -1j]])))
    assert rep.verdict is Verdict.HOLDS
    # AB+BA = diag(2i, -4i); AA*+BB* = diag(2, 5)
    assert lhs_values(rep, "main") == pytest.approx((4, 2, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((5, 5, 2, 2), abs=1e-13)


def test_cor_2_9_identity():
    rep = check("cor-2.9", (np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert lhs_values(rep, "main") == pytest.approx((2, 2, 0, 0), abs=1e-13)
    assert rhs_values(rep, "main") == pytest.approx((2, 2, 2, 2), abs=1e-13)


def test_cor_2_9_unitary_invariance_reduces_to_diagonal():
    # conjugating a diagonal pair by one unitary must not change the spectra
    a_diag = np.diag([1j, 2.0, -1.0 + 0.5j])
    b_diag = np.diag([0.5, -2j, 1.0 + 1j])
    (u,) = draw("unitary", 3, seed=21)
    rep_diag = check("cor-2.9", (a_diag, b_diag))
    rep_conj = check("cor-2.9", (u @ a_diag @ u.conj().T, u @ b_diag @ u.conj().T))
    assert rep_diag.verdict is rep_conj.verdict is Verdict.HOLDS
    assert lhs_values(rep_conj, "main") == pytest.approx(
        lhs_values(rep_diag, "main"), abs=1e-10
    )
    assert rhs_values(rep_conj, "main") == pytest.approx(
        rhs_values(rep_diag, "main"), abs=1e-10
    )


def test_cor_2_9_grades_non_normal():
    rep = check("cor-2.9", (SHIFT_2, np.eye(2)))
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["a_normality_defect"] == pytest.approx(SQRT2)


@given(seed=seeds, n=dims)
def test_cor_2_9_holds_on_shared_basis_pairs(seed, n):
    a, b = draw("normal_pair_shared_basis", n, seed)
    assert check("cor-2.9", (a, b)).verdict is Verdict.HOLDS


# --- loewner-cartesian --------------------------------------------------------------------


def test_loewner_cartesian_fixture_violates_both_sides():
    rep = check("loewner-cartesian", (EX_2_2,))
    assert rep.verdict is Verdict.VIOLATED
    assert rep.side("left").min_margin < -1e-6 or rep.side("right").min_margin < -1e-6
    # with the skew-part reading, the left comparison actually holds here;
    # the right one fails decisively
    assert rep.side("right").min_margin < -1e-6


def test_loewner_cartesian_hermitian_right_equality():
    h = mat([[1, 2], [2, 5]])
    rep = check("loewner-cartesian", (h,))
    assert rep.verdict is Verdict.HOLDS
    assert rep.side("right").min_margin == 0.0  # |A1|+|A2| - |A| is exactly zero


def test_loewner_cartesian_diagonal_normal_holds():
    rep = check("loewner-cartesian", (np.diag([1 + 1j, -2j, 3.0]),))
    assert rep.verdict is Verdict.HOLDS


@given(seed=seeds, n=dims)
def test_loewner_cartesian_holds_on_normal(seed, n):
    (a,) = draw("normal", n, seed)
    assert check("loewner-cartesian", (a,)).verdict is Verdict.HOLDS


def test_loewner_cartesian_general_same_comparison_different_id():
    a, b = check("loewner-cartesian", (EX_2_2,)), check("loewner-cartesian-general", (EX_2_2,))
    assert b.ineq_id == "loewner-cartesian-general"
    assert a.min_margin == b.min_margin
    assert a.verdict is b.verdict


# --- proof-facts-2.1 ------------------------------------------------------------------------


def test_proof_facts_identity_pair():
    rep = check("proof-facts-2.1", (np.eye(2), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert {s.label for s in rep.sides} == {"square", "sqrt"}
    assert rep.skipped == ()
    assert rep.side("square").min_margin == pytest.approx(0.0, abs=1e-13)
    assert rep.side("sqrt").min_margin == pytest.approx(2.0 - SQRT2, abs=1e-12)


def test_proof_facts_diagonal_pair():
    rep = check("proof-facts-2.1", (mat([[1, 0], [0, -1]]), np.eye(2)))
    assert rep.verdict is Verdict.HOLDS
    assert rep.side("sqrt").min_margin == pytest.approx(2.0 - SQRT2, abs=1e-12)


def test_proof_facts_skips_sqrt_side_for_non_commuting():
    a1, a2 = PAULI_X, mat([[1, 0], [0, -1]])
    assert frobenius_norm(a1 @ a2 - a2 @ a1) > 1.0
    rep = check("proof-facts-2.1", (a1, a2))
    assert rep.skipped == ("sqrt",)
    assert [s.label for s in rep.sides] == ["square"]
    assert rep.verdict is Verdict.HOLDS  # the square fact is universal


def test_proof_facts_general_never_skips():
    a1, a2 = PAULI_X, mat([[1, 0], [0, -1]])
    rep = check("proof-facts-2.1-general", (a1, a2))
    assert rep.skipped == ()
    assert {s.label for s in rep.sides} == {"square", "sqrt"}


def test_proof_facts_raises_for_non_hermitian():
    with pytest.raises(NotHermitian):
        check("proof-facts-2.1", (SHIFT_2, np.eye(2)))


@given(seed=seeds, n=dims)
def test_proof_facts_holds_on_commuting_pairs(seed, n):
    # commuting Hermitian pairs come from the Hermitian/skew parts of a
    # generated normal matrix
    (a,) = draw("normal", n, seed)
    rep = check("proof-facts-2.1", cartesian_parts(a))
    assert rep.verdict is Verdict.HOLDS
    assert rep.skipped == ()  # both facts checked: the pair commutes


@given(seed=seeds, n=dims)
def test_proof_facts_square_fact_universal(seed, n):
    (h1,) = draw("hermitian", n, seed)
    (h2,) = draw("hermitian", n, seed, index=1)
    rep = check("proof-facts-2.1", (h1, h2))
    assert rep.side("square").min_margin >= -rep.tol_used


# --- dispatch ---------------------------------------------------------------------------------


def test_check_dispatch_thm_2_1():
    rep = check("thm-2.1", [EX_2_3])
    assert rep.ineq_id == "thm-2.1"
    assert rep.verdict is Verdict.HOLDS


def test_check_dispatch_scalar_via_1x1():
    rep = check("scalar-1.6", [mat([[3]]), mat([[-4]])])
    assert rep.verdict is Verdict.HOLDS
    assert rhs_values(rep, "left") == (5.0,)


def test_check_dispatch_arity_mismatch():
    with pytest.raises(ArityMismatch):
        check("thm-2.8", [np.eye(2)])


def test_check_dispatch_unknown_id():
    with pytest.raises(UnknownInequality):
        check("nope", [np.eye(2)])


def test_check_dispatch_fixed_dim():
    with pytest.raises(DimensionMismatch):
        check("scalar-1.6", [np.eye(2), np.eye(2)])


@pytest.mark.parametrize("ineq_id", catalog_ids(include_variants=True))
def test_check_rejects_empty_inputs(ineq_id):
    # A 0x0 operand used to raise IndexError from the spectrum sides.
    arity = catalog_entry(ineq_id).arity
    with pytest.raises(DimensionMismatch, match="non-empty square"):
        check(ineq_id, [np.zeros((0, 0))] * arity)


def test_check_rejects_a_tolerance_that_is_not_a_tolerance():
    with pytest.raises(TypeError, match="tol must be a Tolerance, got 1e-09"):
        check("thm-2.7", [np.eye(2)], tol=1e-9)


def test_check_names_the_inequality_when_the_eigensolver_gives_up(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence, match=r"^thm-2\.5-plus: Eigenvalues did not converge$"):
        check("thm-2.5-plus", [mat([[1, 0], [0, -2]])])


def test_report_side_of_an_unknown_label_is_a_key_error():
    rep = check("thm-2.1", [mat([[1, 0], [0, -2]])])
    assert rep.side("right") is rep.sides[1]
    with pytest.raises(KeyError, match="nope"):
        rep.side("nope")


def test_check_dispatch_rejects_imaginary_scalar():
    with pytest.raises(ValueError):
        check("scalar-1.6", [mat([[1j]]), mat([[1]])])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_rejects_non_finite_entries(bad):
    # A NaN used to grade as holds with min_margin nan.
    a = mat([[1, 2], [3, 4]])
    a[1, 0] = bad
    with pytest.raises(InvalidMatrix):
        check("thm-2.7", [a])
    with pytest.raises(InvalidMatrix):
        check("thm-2.8", [np.eye(2), a])
    with pytest.raises(InvalidMatrix):
        check("thm-2.7", [np.full((2, 2), bad)])


@pytest.mark.parametrize(
    "ineq_id, inputs",
    [
        ("thm-2.8", lambda: [draw("ginibre", 2, seed=0, index=i)[0] * 1e155 for i in range(2)]),
        ("scalar-1.6", lambda: ([[1e308]], [[1e308]])),
    ],
)
def test_check_rejects_kernel_overflow(ineq_id, inputs):
    # Finite inputs whose margins overflow used to grade as holds, with
    # min_margin nan or -inf: thm-2.8's products AB + BA overflow, and so
    # does scalar-1.6's a + b.
    with pytest.raises(InvalidMatrix, match=f"^{ineq_id}: inputs overflow the kernel"):
        check(ineq_id, inputs())



# B*B and BB* of this finite B hold a NaN on the diagonal: conj(z)·z has the
# real part inf and the imaginary part inf - inf.  eigvalsh reads a NaN
# diagonal as a number, so thm-2.8 used to grade holds (margin 0.0) on
# (0, B) and violated on (diag(1e-300, 0), B).
NAN_GRAM_B = mat([[0, 1e200 * (1 + 1j)], [0, 0]])


@pytest.mark.parametrize("a", [np.zeros((2, 2)), np.diag([1e-300, 0.0])])
def test_check_rejects_a_gram_with_a_nan_diagonal(a, capfd):
    with pytest.raises(InvalidMatrix, match="^thm-2.8: inputs overflow the kernel"):
        check("thm-2.8", [a, NAN_GRAM_B])
    assert capfd.readouterr().out == ""

# Finite inputs that the kernel can grade although some intermediate sum of
# squares overflows.  thm-2.7 takes singular values of A itself, never of a
# product.  The others take Frobenius norms of residuals near 1e200 (the
# normality defect, or the commutator of the shared-basis pair), whose
# squares overflow; those used to raise InvalidMatrix.
LARGE_INPUTS = {
    "thm-2.7": lambda: [draw("ginibre", 2, seed=0)[0] * 1e155],
    "thm-2.1": lambda: draw("normal", 3, seed=0, scale=1e100),
    "thm-2.4": lambda: draw("normal_order_constrained", 3, seed=0, scale=1e100),
    "cor-2.9": lambda: draw("normal_pair_shared_basis", 3, seed=0, scale=1e100),
    "proof-facts-2.1": lambda: cartesian_parts(draw("normal", 3, seed=0, scale=1e100)[0]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ineq_id", LARGE_INPUTS)
def test_check_grades_large_finite_input(ineq_id):
    rep = check(ineq_id, LARGE_INPUTS[ineq_id]())
    assert rep.verdict is Verdict.HOLDS
    assert math.isfinite(rep.min_margin) and math.isfinite(rep.tol_used)


@pytest.mark.parametrize("ineq_id", catalog_ids(include_variants=True))
def test_stacked_checker_matches_single_checks(ineq_id):
    # Every slice of a stacked run reports exactly what check() reports
    # for that input set alone.
    entry = catalog_entry(ineq_id)
    n = entry.fixed_dim or 3
    stream = prng_stream(21, np.arange(40, 45, dtype=np.uint64))
    mats = _drawer(entry, entry.canonical_class)(n, stream, 1.0)
    checked = entry.run(mats, DEFAULT_TOL)
    assert len(checked) == 5
    for i in range(5):
        assert checked.report(i) == check(ineq_id, [m[i] for m in mats])


# The kernel calls of one stacked run on canonical draws (n = 3, k = 4):
# (np.linalg.eigvalsh, np.linalg.eigh, np.linalg.svd, numkernel.abs_op).
# The svd count includes the one inside each abs_op.  tao-1.2, ak-1.4,
# thm-2.4 and thm-2.5 reuse the eigenvalues their hypotheses or cores
# already hold for a bitwise-Hermitian spectrum; thm-2.1,
# loewner-cartesian and proof-facts-2.1 take every |.| in one grouped call.
KERNEL_CALLS = {
    "scalar-1.6": (0, 0, 1, 0),
    "bk-1.1": (3, 0, 1, 0),
    "tao-1.2": (1, 0, 1, 0),
    "ak-1.3": (3, 0, 1, 0),
    "ak-1.4": (4, 0, 0, 0),
    "thm-2.1": (2, 0, 2, 1),
    "thm-2.4": (2, 2, 1, 0),
    "thm-2.5-plus": (1, 0, 0, 0),
    "thm-2.5-minus": (1, 0, 0, 0),
    "thm-2.7": (1, 0, 1, 0),
    "thm-2.8": (2, 0, 1, 0),
    "cor-2.9": (1, 0, 1, 0),
    "loewner-cartesian": (2, 0, 1, 1),
    "proof-facts-2.1": (2, 1, 1, 1),
    "bk-1.1-hermitian-B": (3, 0, 1, 0),
    "thm-2.1-nonnormal": (2, 0, 2, 1),
    "loewner-cartesian-general": (2, 0, 1, 1),
    "proof-facts-2.1-general": (2, 1, 1, 1),
}


def test_kernel_calls_of_one_run_are_pinned(monkeypatch):
    assert list(KERNEL_CALLS) == list(catalog_ids(include_variants=True))
    counts = {}

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(numkernel, "abs_op", counting("abs_op", numkernel.abs_op))
    got = {}
    for ineq_id in KERNEL_CALLS:
        entry = catalog_entry(ineq_id)
        stream = prng_stream(7, np.arange(4, dtype=np.uint64))
        mats = _drawer(entry, entry.canonical_class)(entry.fixed_dim or 3, stream, 1.0)
        counts.update(eigvalsh=0, eigh=0, svd=0, abs_op=0)
        entry.run(mats, DEFAULT_TOL)
        got[ineq_id] = (counts["eigvalsh"], counts["eigh"], counts["svd"], counts["abs_op"])
    assert got == KERNEL_CALLS


def test_every_catalog_entry_pickles():
    for ineq_id in catalog_ids(include_variants=True):
        entry = catalog_entry(ineq_id)
        back = pickle.loads(pickle.dumps(entry))
        mats = _drawer(entry, entry.canonical_class)(entry.fixed_dim or 3, prng_stream(3, [0]), 1.0)
        assert back.run(mats, DEFAULT_TOL).report(0) == entry.run(mats, DEFAULT_TOL).report(0)


def test_a_skipped_side_never_sets_the_report_scale():
    # One proof-facts-2.1 stack that interleaves commuting pairs (the split
    # parts of normal draws) with non-commuting Hermitian pairs, at a scale
    # where the sqrt side (degree 1) outweighs the square side (degree 2).
    entry = catalog_entry("proof-facts-2.1")
    rows = np.arange(6, dtype=np.uint64)
    commuting = _drawer(entry, "normal")(3, prng_stream(4, rows), 0.01)
    general = _drawer(entry, "hermitian")(3, prng_stream(5, rows), 0.01)
    mats = [np.stack(pair, axis=1).reshape(-1, 3, 3) for pair in zip(commuting, general)]
    checked = entry.run(mats, DEFAULT_TOL)
    for i in range(len(checked)):
        inputs = [m[i] for m in mats]
        rep = checked.report(i)
        assert rep == check("proof-facts-2.1", inputs)
        if i % 2 == 0:
            assert rep.skipped == ()
            continue
        assert rep.skipped == ("sqrt",)
        square_scale = rep.side("square").scale
        assert check("proof-facts-2.1-general", inputs).side("sqrt").scale > square_scale
        assert rep.tol_used == DEFAULT_TOL.effective(square_scale)


# Each search-only variant: its base statement and the hypothesis it drops.
VARIANTS = {
    "bk-1.1-hermitian-B": ("bk-1.1", "b_positive"),
    "thm-2.1-nonnormal": ("thm-2.1", "normal"),
    "loewner-cartesian-general": ("loewner-cartesian", None),
    "proof-facts-2.1-general": ("proof-facts-2.1", "commute"),
}


def test_variants_are_the_ids_left_out_of_all():
    assert set(VARIANTS) == set(catalog_ids(include_variants=True)) - set(catalog_ids())


@pytest.mark.parametrize("variant_id", list(VARIANTS))
def test_variant_is_its_base_minus_one_hypothesis(variant_id):
    base_id, dropped = VARIANTS[variant_id]
    variant, base = catalog_entry(variant_id), catalog_entry(base_id)
    stream = prng_stream(8, np.arange(12, dtype=np.uint64))
    mats = _drawer(variant, variant.canonical_class)(3, stream, 1.0)
    graded = base.core(mats, DEFAULT_TOL)
    want, got = base.run(mats, DEFAULT_TOL), variant.run(mats, DEFAULT_TOL)
    # Sides: the variant evaluates a side that requires the dropped
    # hypothesis on every trial, and is otherwise bit-identical to the base
    # on the trials the base evaluates.
    assert [s.label for s in got.sides] == [s.label for s in want.sides]
    for g, w in zip(got.sides, want.sides):
        if dropped is not None and g.requires == dropped:
            assert g.present is None
        else:
            assert np.array_equal(g.present, w.present)
        rows = slice(None) if w.present is None else w.present
        for attr in ("lhs", "rhs", "margin"):
            assert np.array_equal(getattr(g, attr)[rows], getattr(w, attr)[rows])
    # Gate: the base's flags, except the dropped one and those that only
    # decide whether a side is evaluated.
    side_only = {s.requires for s in graded.sides}
    flags = [
        flag
        for name, (flag, _) in graded.hypotheses.items()
        if name != dropped and name not in side_only
    ]
    gate = np.ones(len(got), dtype=bool) if got.hypothesis_ok is None else got.hypothesis_ok
    assert np.array_equal(gate, np.logical_and.reduce(flags + [np.ones(len(got), dtype=bool)]))
    # Residuals: all of the base's, the dropped hypothesis's included.
    assert list(got.residuals) == list(want.residuals)
    for name, values in want.residuals.items():
        assert np.array_equal(got.residuals[name], values)


def test_variant_with_an_unknown_hypothesis_fails_to_register():
    with pytest.raises(ValueError, match="bk-1.1 has no hypothesis 'b_psd'"):
        inequalities._variant("bk-1.1-no-b-psd", "bk-1.1", "b_psd", "psd", None)
    assert "bk-1.1-no-b-psd" not in inequalities.CATALOG


@pytest.mark.parametrize("ineq_id", catalog_ids(include_variants=True))
def test_entry_hypotheses_are_those_its_core_grades(ineq_id):
    # The names an entry reads from a 1x1 probe are the ones its core
    # grades on its canonical class, less the dropped ones.
    entry = catalog_entry(ineq_id)
    stream = prng_stream(9, np.arange(3, dtype=np.uint64))
    mats = _drawer(entry, entry.canonical_class)(entry.fixed_dim or 3, stream, 1.0)
    names = entry.core(mats, DEFAULT_TOL).hypotheses
    assert entry.hypotheses == tuple(n for n in names if n not in (entry.drops or ()))


def test_catalog_listing():
    core = catalog_ids()
    assert "thm-2.1" in core and "bk-1.1-hermitian-B" not in core
    everything = catalog_ids(include_variants=True)
    assert set(core) < set(everything)
    entry = catalog_entry("thm-2.4")
    assert entry.arity == 1
    assert entry.canonical_class == "normal_order_constrained"


def test_report_ids_match_catalog():
    for ineq_id in catalog_ids(include_variants=True):
        entry = catalog_entry(ineq_id)
        n = entry.fixed_dim or 2
        class_tag = entry.canonical_class
        if entry.split_cartesian:
            (m,) = draw("normal", n, seed=13)
            inputs = list(cartesian_parts(m))
        else:
            inputs = list(draw(class_tag, n, seed=13))
            while len(inputs) < entry.arity:
                inputs.extend(draw(class_tag, n, seed=14, index=len(inputs)))
        rep = check(ineq_id, inputs[: entry.arity])
        assert rep.ineq_id == ineq_id
        assert_report_consistent(rep)


# --- cross-cutting invariants ------------------------------------------------------------------


@given(a=safe_reals, b=safe_reals)
def test_scalar_consistency_with_1x1_matrices(a, b):
    # 1x1 matrix route and the scalar route agree bit-for-bit
    scalar = check("scalar-1.6", ([[a]], [[b]]))
    matrix = check("thm-2.1", (mat([[complex(a, b)]]),))
    for label in ("left", "right"):
        assert margins(scalar, label) == margins(matrix, label)
        assert lhs_values(scalar, label) == lhs_values(matrix, label)
        assert rhs_values(scalar, label) == rhs_values(matrix, label)


@given(seed=seeds, n=st.sampled_from([1, 2, 3, 5]))
def test_padding_soundness(seed, n):
    # embedding both inputs in a larger zero block never changes the verdict
    (a,) = draw("psd", n, seed)
    (b,) = draw("psd", n, seed, index=1)
    plain = check("bk-1.1", (a, b))
    z = np.zeros((2, 2))
    padded = check("bk-1.1", (direct_sum(a, z), direct_sum(b, z)))
    assert plain.verdict is padded.verdict
    # appended indices contribute exact 0-vs-0 comparisons
    assert padded.min_margin == pytest.approx(min(plain.min_margin, 0.0), abs=1e-9)


@given(seed=seeds, n=dims, c=st.sampled_from([0.25, 0.5, 2.0, 8.0]))
def test_scale_covariance_degree_one(seed, n, c):
    (a,) = draw("normal", n, seed)
    base = check("thm-2.1", (a,))
    scaled = check("thm-2.1", (c * a,))
    assert base.verdict is scaled.verdict
    for label in ("left", "right"):
        for x, y in zip(lhs_values(base, label), lhs_values(scaled, label)):
            assert y == pytest.approx(c * x, rel=1e-9, abs=1e-12)
        for x, y in zip(rhs_values(base, label), rhs_values(scaled, label)):
            assert y == pytest.approx(c * x, rel=1e-9, abs=1e-12)


@given(seed=seeds, n=dims, c=st.sampled_from([0.5, 2.0, 4.0]))
def test_scale_covariance_degree_two(seed, n, c):
    (a,) = draw("ginibre", n, seed)
    (b,) = draw("ginibre", n, seed, index=1)
    base = check("thm-2.8", (a, b))
    scaled = check("thm-2.8", (c * a, c * b))
    assert base.verdict is scaled.verdict
    c2 = c * c
    for x, y in zip(lhs_values(base, "main"), lhs_values(scaled, "main")):
        assert y == pytest.approx(c2 * x, rel=1e-9, abs=1e-12)
    for x, y in zip(rhs_values(base, "main"), rhs_values(scaled, "main")):
        assert y == pytest.approx(c2 * x, rel=1e-9, abs=1e-12)


# --- scale invariance ---------------------------------------------------------------
#
# Every catalog statement is positively homogeneous, so scaling all inputs
# by c > 0 must not change its outcome.  Scaling by an exact power of two
# scales every margin, scale and residual exactly, away from overflow and
# subnormals, so the outcome at 2^k must be the outcome at 1 bit for bit.

SEARCH_WITNESSES = {
    path.stem: witness_from_document(loads_strict(path.read_text()))
    for path in sorted((Path(__file__).parent / "golden").glob("search-*.json"))
}


def outcome(ineq_id, inputs):
    """(verdict, skipped sides) of a check with finite margins, or the class
    of the error the check raises."""
    try:
        rep = check(ineq_id, inputs)
    except (ValueError, NoConvergence) as exc:
        return type(exc)
    assert all(math.isfinite(m) for side in rep.sides for m in side.margin)
    return rep.verdict, rep.skipped


def drawn_inputs(ineq_id, class_tag, n, seed):
    """One input set for ``ineq_id``, drawn as a campaign draws it."""
    entry = catalog_entry(ineq_id)
    class_tag = class_tag or entry.canonical_class
    stream = prng_stream(seed, np.zeros(1, dtype=np.uint64))
    return [m[0] for m in _drawer(entry, class_tag)(entry.fixed_dim or n, stream, 1.0)]


scale_cases = st.one_of(
    st.sampled_from([(w.ineq_id, w.inputs) for w in SEARCH_WITNESSES.values()]),
    st.builds(
        lambda ineq_id, class_tag, n, seed: (ineq_id, drawn_inputs(ineq_id, class_tag, n, seed)),
        st.sampled_from(catalog_ids()),
        st.sampled_from([None, "ginibre", "hermitian"]),
        st.sampled_from([1, 2, 3, 8]),
        seeds,
    ),
)


@given(case=scale_cases, k=st.integers(min_value=-200, max_value=200))
def test_outcome_is_invariant_under_power_of_two_scaling(case, k):
    # Canonical-class draws of every core id, Ginibre and Hermitian draws
    # (hypothesis violations, skipped sides, structural rejections), and
    # the witnesses the searches found.
    ineq_id, inputs = case
    c = 2.0**k
    assert outcome(ineq_id, [c * m for m in inputs]) == outcome(ineq_id, inputs)


@pytest.mark.parametrize("k", [-300, -500, -531])
def test_underflowing_normality_defect_still_grades_the_hypothesis(k):
    # x is not normal; below about 2^-260 the squares of its normality
    # defect underflow, and the defect must not read 0.  (At 2^-600 the
    # products A*A and AA* underflow themselves: not graded here.)
    x = mat([[1, 2j], [0.5, -1 + 1j]])
    rep = check("thm-2.1", [2.0**k * x])
    assert rep.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_residuals["normality_defect"] > 0


def test_scaled_down_witness_is_still_violated():
    # Margin -0.239 at unit scale: a counterexample at every scale.
    w = SEARCH_WITNESSES["search-thm-2.1-nonnormal"]
    rep = check(w.ineq_id, [2.0**-40 * m for m in w.inputs])
    assert rep.verdict is Verdict.VIOLATED
    assert rep.min_margin == 2.0**-40 * check(w.ineq_id, w.inputs).min_margin


@given(seed=seeds)
def test_commuting_pair_at_large_scale_holds(seed):
    # (A1 + A2)^2 <= 2(A1^2 + A2^2) has gap (A1 - A2)^2, at round-off here.
    # The rounding in Y - X is relative to X and Y, not to ||Y - X||_F.
    (a,) = draw("hermitian", 4, seed)
    a = 2.0**30 * a
    assert check("proof-facts-2.1", (a, (1 + 1e-12) * a)).verdict is Verdict.HOLDS


def test_scaled_down_non_hermitian_input_is_rejected():
    # The Hermitian test is relative to ||A||_F at every scale.
    with pytest.raises(NotHermitian):
        check("thm-2.5-plus", (2.0**-50 * SHIFT_2,))


def test_scaled_down_imaginary_scalar_is_rejected():
    with pytest.raises(NotHermitian, match="^a is not Hermitian"):
        check("scalar-1.6", [mat([[(1 + 0.5j) * 2.0**-50]]), mat([[2.0**-50]])])


@given(
    seed=seeds,
    n=dims,
    t1=st.sampled_from([1e-12, 1e-10, 1e-8]),
    t2=st.sampled_from([1e-8, 1e-6, 1e-2]),
)
def test_verdict_monotone_in_tolerance(seed, n, t1, t2):
    # Holds at a tight tolerance implies Holds at any looser one.
    lo, hi = Tolerance(tol_rel=t1), Tolerance(tol_rel=max(t1, t2))
    (g,) = draw("ginibre", n, seed)
    tight = check("loewner-cartesian-general", (g,), lo)
    loose = check("loewner-cartesian-general", (g,), hi)
    if tight.verdict is Verdict.HOLDS:
        assert loose.verdict is Verdict.HOLDS


def _planted(checked, path: tuple, row: int, value: float):
    """A copy of ``checked`` with ``value`` at ``row`` of the array ``path``
    names: ("min_margin",), ("tol_used",), ("residual", name) or ("side", i)."""
    copies = {"min_margin": checked.min_margin.copy(), "tol_used": checked.tol_used.copy()}
    residuals = dict(checked.residuals)
    sides = list(checked.sides)
    if path[0] == "residual":
        residuals[path[1]] = target = residuals[path[1]].copy()
    elif path[0] == "side":
        target = sides[path[1]].min_margin.copy()
        sides[path[1]] = dataclasses.replace(sides[path[1]], min_margin=target)
    else:
        target = copies[path[0]]
    target[row] = value
    return dataclasses.replace(checked, residuals=residuals, sides=tuple(sides), **copies)


@pytest.mark.parametrize("ineq_id", catalog_ids(include_variants=True))
def test_one_non_finite_value_makes_checked_not_finite(ineq_id):
    entry = catalog_entry(ineq_id)
    n = entry.fixed_dim or 3
    stream = prng_stream(0, np.arange(3, dtype=np.uint64))
    mats = _drawer(entry, entry.canonical_class)(n, stream, 1.0)
    checked = entry.run(mats, DEFAULT_TOL)
    assert checked.finite()
    paths = [("min_margin",), ("tol_used",), *(("residual", k) for k in checked.residuals)]
    paths += [("side", i) for i in range(len(checked.sides))]
    for path in paths:
        present = checked.sides[path[1]].present if path[0] == "side" else None
        row = 2 if present is None else int(np.flatnonzero(present)[-1])
        for value in (np.nan, np.inf, -np.inf):
            assert not _planted(checked, path, row, value).finite(), (path, value)


def test_checked_finite_reads_only_the_rows_a_side_evaluated():
    # Trials 0-3 are non-commuting Hermitian pairs, which skip the sqrt
    # side; trials 4 and 5 commute and evaluate it.
    entry = catalog_entry("proof-facts-2.1")
    draws = _drawer(entry, "hermitian")(3, prng_stream(0, np.arange(4, dtype=np.uint64)), 1.0)
    diag = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    checked = entry.run([np.concatenate([m, [diag, diag]]) for m in draws], DEFAULT_TOL)
    sqrt = [s.label for s in checked.sides].index("sqrt")
    assert checked.sides[sqrt].present.tolist() == [False] * 4 + [True] * 2
    assert _planted(checked, ("side", sqrt), 0, np.nan).finite()
    assert not _planted(checked, ("side", sqrt), 5, np.nan).finite()


# --- scale invariance (ROADMAP item 1) ------------------------------------------
#
# Every catalog statement is positively homogeneous, so verdict(c·A) must be
# verdict(A) for every c > 0.  Each case below grades otherwise today.

_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@_ITEM_1
def test_underflowed_normality_defect_is_not_a_violation():
    # A*A and AA* underflow to zero at 2^-600, so the defect reads 0.0.
    x = mat([[1, 2j], [0.5, -1 + 1j]])
    assert check("thm-2.1", [x]).verdict is Verdict.HYPOTHESIS_VIOLATED
    assert check("thm-2.1", [2.0**-600 * x]).verdict is Verdict.HYPOTHESIS_VIOLATED


@_ITEM_1
def test_scalar_near_the_float_limit_grades_holds():
    assert check("scalar-1.6", [mat([[1e308]]), mat([[1e308]])]).verdict is Verdict.HOLDS


def _hermitian_pair(seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out.append((x + x.conj().T) / 2)
    return out


@_ITEM_1
def test_lower_degree_side_keeps_its_violation_at_large_scale():
    # The sqrt side (degree 1) is graded against the square side's
    # (degree 2) tolerance, which at 2^30 hides its margin of -3.1e8.
    h1, h2 = _hermitian_pair(18)
    assert check("proof-facts-2.1-general", [h1, h2]).verdict is Verdict.VIOLATED
    scaled = check("proof-facts-2.1-general", [2.0**30 * h1, 2.0**30 * h2])
    assert scaled.verdict is Verdict.VIOLATED


@_ITEM_1
def test_subnormal_tolerance_is_not_a_violation():
    # tol_rel * scale underflows to 0.0, below a rounding margin of -5e-324.
    rng = np.random.default_rng(4)
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 1e-319
    assert check("thm-2.7", [a]).verdict is Verdict.HOLDS

"""Kernel linear algebra: construction, eigendecomposition, spectra, order."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svineq.decomp import _hermitian_grade
from svineq.inequalities import check
from svineq.numkernel import (
    DEFAULT_TOL,
    MAX_DIM,
    DimensionMismatch,
    InvalidMatrix,
    NotHermitian,
    NotPSD,
    Tolerance,
    _adj,
    _apply,
    _block2,
    _direct_sum,
    _fro,
    _herm,
    _require_hermitian,
    abs_op,
    as_matrix,
    hermitian_eig,
    loewner_leq,
    psd_sqrt,
    singular_values,
)

from conftest import SHIFT_2, draw, frobenius_norm, mat

# The kernels take (k, n, n) stacks; one matrix m is the stack m[None].


def one(op, *mats):
    """``op`` on single matrices: slice 0 of its result on stacks of one."""
    return op(*(m[None] for m in mats))[0]


def order(x, y, tol=DEFAULT_TOL):
    """(holds, min_eig, tol_used) of the order test x <= y."""
    min_eig, tol_used = (float(v[0]) for v in loewner_leq(x[None], y[None], tol))
    return min_eig >= -tol_used, min_eig, tol_used

seeds = st.integers(min_value=0, max_value=2**64 - 1)
dims = st.sampled_from([1, 2, 3, 5, 8])


# --- construction and tolerances --------------------------------------------


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    assert m[1, 0] == 3 + 0j


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidMatrix):
        as_matrix([[1, 2, 3], [4, 5, 6]])  # not square
    with pytest.raises(InvalidMatrix):
        as_matrix([1, 2, 3])  # not 2-d
    with pytest.raises(InvalidMatrix):
        as_matrix([])  # empty
    with pytest.raises(InvalidMatrix):
        as_matrix([[np.nan]])
    with pytest.raises(InvalidMatrix):
        as_matrix([[np.inf]])


def test_as_matrix_dimension_bounds():
    assert as_matrix(np.eye(MAX_DIM)).shape == (MAX_DIM, MAX_DIM)
    with pytest.raises(InvalidMatrix):
        as_matrix(np.eye(MAX_DIM + 1))


def test_tolerance_defaults_and_effective():
    assert DEFAULT_TOL == Tolerance(tol_abs=1e-12, tol_rel=1e-9)
    assert DEFAULT_TOL.effective(0.0) == 1e-12 + 1e-9
    assert DEFAULT_TOL.effective(100.0) == pytest.approx(1e-12 + 1e-7)
    # the relative part never shrinks below scale 1
    assert Tolerance(0.0, 1e-9).effective(0.5) == 1e-9


def test_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        Tolerance(tol_abs=-1e-12, tol_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(tol_abs=0.0, tol_rel=-1.0)


# --- elementary operations ---------------------------------------------------


def hermitian_defect(m) -> float:
    """||m - m*||_F as the Hermitian grader computes it."""
    return float(_hermitian_grade(m[None], DEFAULT_TOL)[0][0])


def test_adjoint_conjugate_transposes():
    m = mat([[1 + 2j, 3], [4j, 5]])
    assert np.array_equal(one(_adj, m), m.conj().T)


def test_direct_sum_shapes():
    a = mat([[1, 0], [0, 2]])
    s = one(_direct_sum, a, mat([[5]]))
    assert s.shape == (3, 3)
    assert s[2, 2] == 5
    assert s[0, 2] == 0


def test_block2_assembles_and_validates():
    i2 = mat(np.eye(2))
    z2 = mat(np.zeros((2, 2)))
    blk = one(_block2, i2, z2, z2, 2 * i2)
    assert blk.shape == (4, 4)
    assert blk[3, 3] == 2
    # Blocks reach _block2 through check(), which validates their shapes.
    with pytest.raises(DimensionMismatch):
        check("tao-1.2", (i2, np.zeros((2, 3)), i2))


def test_frobenius_norm_matches_numpy():
    m = mat([[3, 4j], [0, 0]])
    assert float(one(_fro, m)) == pytest.approx(np.linalg.norm(m))


def test_hermitian_part_is_exactly_hermitian():
    h = one(_herm, mat([[1 + 1j, 2], [5j, 3 - 2j]]))
    assert np.array_equal(h, h.conj().T)
    assert hermitian_defect(h) == 0.0


def test_hermitian_defect_of_shift():
    assert hermitian_defect(SHIFT_2) == pytest.approx(math.sqrt(2.0))


def test_require_hermitian_accepts_and_rejects():
    h = _require_hermitian(mat([[1, 2], [2, 3]])[None], "M")[0][0]
    assert np.array_equal(h, h.conj().T)
    with pytest.raises(NotHermitian):
        _require_hermitian(SHIFT_2[None], "M")


# --- eigendecomposition -------------------------------------------------------


@given(seed=seeds, n=dims)
def test_hermitian_eig_reconstruction_and_unitarity(seed, n):
    (m,) = draw("hermitian", n, seed)
    w, v, _ = hermitian_eig(m[None])
    w, v = w[0], v[0]
    norm = max(1.0, frobenius_norm(m))
    assert frobenius_norm((v * w) @ v.conj().T - m) <= 1e-12 * norm
    assert frobenius_norm(v.conj().T @ v - np.eye(n)) <= 1e-12 * math.sqrt(n)
    assert list(w) == sorted(w)


def test_hermitian_eig_zero_matrix():
    w, v, _ = hermitian_eig(np.zeros((1, 3, 3), dtype=complex))
    assert np.array_equal(w[0], np.zeros(3))
    assert np.array_equal(v[0], np.eye(3))


def test_spectral_apply():
    w, v, _ = hermitian_eig(mat([[4, 0], [0, 9]])[None])
    root = _apply(w, v, np.sqrt(w))[0]
    assert root == pytest.approx(mat([[2, 0], [0, 3]]), abs=1e-14)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(SHIFT_2[None])


# --- psd square root and operator absolute value ------------------------------


def test_psd_sqrt_known_and_squares_back():
    r = one(psd_sqrt, mat([[4, 0], [0, 9]]))
    assert r == pytest.approx(mat([[2, 0], [0, 3]]), abs=1e-14)


@given(seed=seeds, n=dims)
def test_psd_sqrt_squares_to_input(seed, n):
    (p,) = draw("psd", n, seed)
    r = one(psd_sqrt, p)
    assert frobenius_norm(r @ r - p) <= 1e-10 * max(1.0, frobenius_norm(p))


def test_psd_sqrt_clamps_roundoff_but_rejects_negative():
    near = mat([[1, 0], [0, -1e-14]])
    r = one(psd_sqrt, near)
    assert r[1, 1].real >= 0.0
    with pytest.raises(NotPSD):
        one(psd_sqrt, mat([[1, 0], [0, -1]]))


def test_abs_op_of_hermitian_diagonal():
    assert one(abs_op, mat([[3, 0], [0, -4]])) == pytest.approx(
        mat([[3, 0], [0, 4]]), abs=1e-13
    )


@given(seed=seeds, n=dims)
def test_abs_op_preserves_singular_values(seed, n):
    (g,) = draw("ginibre", n, seed)
    sv_g = one(singular_values, g)
    sv_abs = one(singular_values, one(abs_op, g))
    scale = max(1.0, sv_g[0])
    assert max(abs(x - y) for x, y in zip(sv_g, sv_abs)) <= 1e-10 * scale


# --- singular values -----------------------------------------------------------


def test_singular_values_known_diagonal():
    s = one(singular_values, mat([[3j, 0], [0, -4]]))
    assert tuple(s) == pytest.approx((4.0, 3.0), abs=1e-14)


def test_singular_values_zero_matrix():
    assert tuple(one(singular_values, mat(np.zeros((3, 3))))) == (0.0, 0.0, 0.0)


@given(seed=seeds, n=dims)
def test_singular_values_match_svd_oracle(seed, n):
    # Independent route: LAPACK SVD versus the kernel's Gram eigensolve.
    (g,) = draw("ginibre", n, seed)
    ours = one(singular_values, g)
    oracle = np.linalg.svd(g, compute_uv=False)
    assert np.max(np.abs(ours - oracle)) <= 1e-10 * max(1.0, oracle[0])


# --- Loewner order --------------------------------------------------------------


def test_loewner_leq_basic_order():
    x, y = mat([[1, 0], [0, 1]]), mat([[2, 0], [0, 3]])
    holds, min_eig, _ = order(x, y, DEFAULT_TOL)
    assert holds and min_eig == pytest.approx(1.0)
    holds, min_eig, _ = order(y, x, DEFAULT_TOL)
    assert not holds and min_eig == pytest.approx(-2.0)


def test_loewner_leq_tolerates_roundoff_slack():
    x = mat([[1 + 5e-13, 0], [0, 1]])
    holds, min_eig, _ = order(x, mat(np.eye(2)), DEFAULT_TOL)
    assert holds
    assert min_eig == pytest.approx(-5e-13)


def test_loewner_leq_requires_hermitian():
    with pytest.raises(NotHermitian):
        order(SHIFT_2, mat(np.eye(2)), DEFAULT_TOL)
    with pytest.raises(NotHermitian):
        order(mat(np.eye(2)), SHIFT_2, DEFAULT_TOL)


@given(seed=seeds, n=dims)
def test_loewner_leq_accepts_psd_shift(seed, n):
    (h,) = draw("hermitian", n, seed)
    (p,) = draw("psd", n, seed, index=1)
    holds, _, _ = order(h, h + p, DEFAULT_TOL)
    assert holds

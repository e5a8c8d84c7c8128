"""Kernel linear algebra: construction, eigendecomposition, spectra, order."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svineq import inequalities, numkernel
from svineq.decomp import jordan
from svineq.fuzzer import _drawer
from svineq.inequalities import check
from svineq.numkernel import (
    DEFAULT_TOL,
    GROUP_ELEMENTS,
    MAX_DIM,
    DimensionMismatch,
    InvalidMatrix,
    NotHermitian,
    Tolerance,
    _adj,
    _block2,
    _fro,
    _herm,
    _require_hermitian,
    abs_op,
    abs_ops,
    as_matrix,
    direct_sum_spectrum,
    loewner_leq,
    one_blas_thread,
    psd_sqrt,
    singular_values,
)
from svineq.randgen import prng_stream

from conftest import PAULI_Z, SHIFT_2, direct_sum, draw, frobenius_norm, mat

# The kernels take (k, n, n) stacks; one matrix m is the stack m[None].


def one(op, *mats):
    """``op`` on single matrices: slice 0 of its result on stacks of one."""
    return op(*(m[None] for m in mats))[0]


def order(x, y, tol=DEFAULT_TOL):
    """(holds, min_eig, tol_used) of the order test x <= y."""
    eigs, scale = loewner_leq(x[None], y[None])
    min_eig, tol_used = float(eigs[0, 0]), float(tol.effective(scale[0]))
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
    assert DEFAULT_TOL == Tolerance(tol_rel=1e-9) == Tolerance(tol_rel=np.float64(1e-9))
    assert DEFAULT_TOL.effective(0.0) == 0.0
    assert DEFAULT_TOL.effective(100.0) == pytest.approx(1e-7)
    # homogeneous: no floor below unit scale
    assert Tolerance(1e-9).effective(0.5) == 0.5e-9
    assert Tolerance(1e-9).effective(2.0**-600) == 1e-9 * 2.0**-600


def test_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        Tolerance(tol_rel=-1e-12)
    with pytest.raises(ValueError):
        Tolerance(tol_rel=-1.0)


@pytest.mark.parametrize(
    "bad",
    [
        float("inf"),
        float("nan"),
        float("1e999"),
        pytest.param(10**400, id="10**400"),
        # Not a number that JSON writes and the witness reader reads back.
        True,
        Fraction(1, 10**9),
        "1e-9",
        np.float32(1e-9),
    ],
)
def test_tolerance_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="tol_rel must be a nonnegative finite number"):
        Tolerance(tol_rel=bad)


# --- elementary operations ---------------------------------------------------


def hermitian_defect(m) -> float:
    """||m - m*||_F as the Hermitian hypothesis grades it."""
    hypotheses, _ = inequalities._hermitian("m", m[None], DEFAULT_TOL)
    return float(hypotheses["m_hermitian"][1]["m_hermitian_defect"][0])


def test_adjoint_conjugate_transposes():
    m = mat([[1 + 2j, 3], [4j, 5]])
    assert np.array_equal(one(_adj, m), m.conj().T)


def test_direct_sum_spectrum_is_the_union_of_the_blocks():
    a = mat([[1, 0], [0, 2]])
    s = one(direct_sum_spectrum, np.array([2.0, 1.0]), np.array([5.0]))
    assert tuple(s) == (5.0, 2.0, 1.0)
    assert tuple(s) == tuple(np.linalg.svd(direct_sum(a, mat([[5]])), compute_uv=False))


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frobenius_norm_rescales_overflowing_squares():
    # The squares of 3e300 and 4e300 overflow, the norm 5e300 does not; a
    # slice whose norm overflows, or that holds an infinity, stays infinite.
    m = mat([[3, 4j], [0, 0]])
    stack = np.stack([m, m * 1e300, m * 1e308, mat([[np.inf, 0], [0, 1]])])
    assert _fro(stack).tolist() == [5.0, pytest.approx(5e300, rel=1e-15), np.inf, np.inf]
    assert float(one(_fro, m * 1e300)) == pytest.approx(5e300, rel=1e-15)


def test_frobenius_norm_rescues_underflowing_squares():
    # The squares of 3e-200 and 4e-200 underflow to 0, those of 3e-155
    # and 4e-155 lose digits in the subnormal range; a zero slice stays 0.
    m = mat([[3, 4j], [0, 0]])
    stack = np.stack([m, m * 1e-155, m * 1e-200, 0 * m, m * 5e-324])
    norms = _fro(stack).tolist()
    assert norms[0] == 5.0 and norms[3] == 0.0
    assert norms[1:3] == [pytest.approx(5e-155, rel=1e-15), pytest.approx(5e-200, rel=1e-15)]
    assert norms[4] == pytest.approx(np.hypot(3, 4) * 5e-324, abs=5e-324)
    assert float(one(_fro, m * 1e-200)) == pytest.approx(5e-200, rel=1e-15)


def test_hermitian_part_is_exactly_hermitian():
    h = one(_herm, mat([[1 + 1j, 2], [5j, 3 - 2j]]))
    assert np.array_equal(h, h.conj().T)
    assert hermitian_defect(h) == 0.0


def test_hermitian_defect_of_shift():
    assert hermitian_defect(SHIFT_2) == pytest.approx(math.sqrt(2.0))


def test_require_hermitian_accepts_and_rejects():
    h = _require_hermitian(mat([[1, 2], [2, 3]])[None], "M")[0]
    assert np.array_equal(h, h.conj().T)
    with pytest.raises(NotHermitian):
        _require_hermitian(SHIFT_2[None], "M")


# --- eigendecomposition -------------------------------------------------------


def _spectral(f, m):
    """(f(H), w) of one Hermitian matrix H from ``_hermitian_function``,
    with w the eigenvalues it passed to ``f``."""
    seen = []

    def record(w):
        seen.append(w.copy())
        return f(w)

    return one(lambda x: numkernel._hermitian_function(x, record), m), seen[0][0]


@given(seed=seeds, n=dims)
def test_hermitian_eig_reconstruction_and_unitarity(seed, n):
    # V f(w) V* gives H back for f(w) = w and V V* = I for f(w) = 1, and
    # the eigenvalues come ascending.
    (m,) = draw("hermitian", n, seed)
    recon, w = _spectral(lambda w: w, m)
    unit, _ = _spectral(np.ones_like, m)
    norm = max(1.0, frobenius_norm(m))
    assert frobenius_norm(recon - m) <= 1e-12 * norm
    assert frobenius_norm(unit - np.eye(n)) <= 1e-12 * math.sqrt(n)
    assert list(w) == sorted(w)


def test_hermitian_eig_zero_matrix():
    out, w = _spectral(np.ones_like, np.zeros((3, 3), dtype=complex))
    assert np.array_equal(w, np.zeros(3))
    assert np.array_equal(out, np.eye(3))


# --- psd square root and operator absolute value ------------------------------


def test_psd_sqrt_known_and_squares_back():
    r = one(psd_sqrt, mat([[4, 0], [0, 9]]))
    assert r == pytest.approx(mat([[2, 0], [0, 3]]), abs=1e-14)


@given(seed=seeds, n=dims)
def test_psd_sqrt_squares_to_input(seed, n):
    (p,) = draw("psd", n, seed)
    r = one(psd_sqrt, p)
    assert frobenius_norm(r @ r - p) <= 1e-10 * max(1.0, frobenius_norm(p))


def test_psd_sqrt_clamps_roundoff():
    near = mat([[1, 0], [0, -1e-14]])
    r = one(psd_sqrt, near)
    assert r[1, 1].real >= 0.0


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


def test_hermitian_singular_values_known_diagonal():
    s = one(singular_values, mat([[-5, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert tuple(s) == (5.0, 3.0, 2.0)


# --- accuracy against a 40-digit oracle ----------------------------------------
#
# Every route is graded against mpmath's SVD at 40 significant digits on
# ensembles where a Gram-matrix kernel (singular values from eig(A*A))
# loses about half the digits of the small singular values: rank-deficient
# products, graded spectra, nearly normal matrices, and entries near
# 1e+-150.  An accurate route is within a small multiple of n*eps*||A||_2;
# the Gram route misses that by a factor of about 1e7.

ORACLE_N = 8
ORACLE_SEEDS = range(3)
ORACLE_C = 4.0
ENSEMBLES = ("low_rank", "graded", "nearly_normal", "huge", "tiny")


def _general(kind: str, seed: int, n: int = ORACLE_N) -> np.ndarray:
    if kind == "low_rank":
        return draw("ginibre", n, seed)[0][:, :3] @ draw("ginibre", n, seed, index=1)[0][:3, :]
    if kind == "graded":
        q1, q2 = (draw("unitary", n, seed, index=i)[0] for i in (0, 1))
        return (q1 * 10.0 ** -(2.0 * np.arange(n))) @ q2
    if kind == "nearly_normal":
        return draw("normal", n, seed)[0] + 1e-8 * draw("ginibre", n, seed, index=1)[0]
    return draw("ginibre", n, seed)[0] * (1e150 if kind == "huge" else 1e-150)


def _hermitian(kind: str, seed: int, n: int = ORACLE_N) -> np.ndarray:
    q = draw("unitary", n, seed)[0]
    if kind == "low_rank":
        w = np.zeros(n)
        w[:3] = (1.5, -2.0, 0.25)
    elif kind == "graded":
        w = (-1.0) ** np.arange(n) * 10.0 ** -(2.0 * np.arange(n))
    elif kind == "nearly_normal":
        noise = one(_herm, draw("ginibre", n, seed, index=1)[0])
        return draw("hermitian", n, seed)[0] + 1e-8 * noise
    else:
        return draw("hermitian", n, seed)[0] * (1e150 if kind == "huge" else 1e-150)
    return one(_herm, (q * w) @ q.conj().T)


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def _oracle(mpmath, m: np.ndarray, absolute: bool = False):
    """Singular values of ``m`` (nonincreasing) or |m| = V* diag(s) V, at
    40 digits, rounded to doubles."""
    with mpmath.workdps(40):
        a = mpmath.matrix(m.tolist())
        if not absolute:
            s = mpmath.svd_c(a, compute_uv=False)
            return np.array(sorted((float(x) for x in s), reverse=True))
        _, s, v = mpmath.svd_c(a)
        absa = v.H * mpmath.diag(s) * v
        return np.array([[complex(absa[i, j]) for j in range(a.cols)] for i in range(a.rows)])


def _within_bound(err: float, norm: float) -> bool:
    return err <= ORACLE_C * ORACLE_N * np.finfo(float).eps * norm


@pytest.mark.parametrize("kind", ENSEMBLES)
def test_singular_values_match_mpmath_oracle(mpmath, kind):
    for seed in ORACLE_SEEDS:
        for build in (_general, _hermitian):
            m = build(kind, seed)
            exact = _oracle(mpmath, m)
            err = np.max(np.abs(one(singular_values, m) - exact))
            assert _within_bound(err, exact[0]), (build.__name__, seed, err)


@pytest.mark.parametrize("kind", ENSEMBLES)
def test_direct_sum_spectrum_matches_mpmath_oracle(mpmath, kind):
    half = ORACLE_N // 2
    for seed in ORACLE_SEEDS:
        for build in (_general, _hermitian):
            blocks = [build(kind, seed, half), build(kind, seed + 7, half)]
            exact = _oracle(mpmath, direct_sum(*blocks))
            ours = one(direct_sum_spectrum, *(one(singular_values, b) for b in blocks))
            err = np.max(np.abs(ours - exact))
            assert _within_bound(err, exact[0]), (build.__name__, seed, err)


@pytest.mark.parametrize("kind", ENSEMBLES)
def test_abs_op_matches_mpmath_oracle(mpmath, kind):
    for seed in ORACLE_SEEDS:
        for m in (_general(kind, seed), _hermitian(kind, seed)):
            exact = _oracle(mpmath, m, absolute=True)
            err = np.linalg.norm(one(abs_op, m) - exact, 2)
            assert _within_bound(err, np.linalg.norm(exact, 2)), (seed, err)



# The checker cores take the singular values of bitwise-Hermitian operands
# from eigenvalues: B ± A of ak-1.4 from its order hypotheses, the block of
# tao-1.2 from its positivity hypothesis, A + B of bk-1.1 and the diagonal
# blocks of ak-1.3 on their own, and all three spectra of thm-2.5 from one
# eigvalsh of A.  On canonical draws at n <= 4 every such spectrum a side
# uses is within ORACLE_C * n * eps * scale of 40 digits.  Each is also set
# against the route it replaced, recomputed here: the SVD of the same
# operands, or for thm-2.5 the absolute eigenvalues of the Jordan parts that
# decomp.jordan assembles.  The thm-2.5 spectra are no less accurate than
# that route in the worst case.  The SVD (LAPACK's gesdd) is more accurate
# than eigvalsh: over 120 draws per id its worst error was 1.7-2.4
# eps * scale against 3.0-3.5, so there only the common bound is asserted.

ROUTE_DIMS = (2, 3, 4)
ROUTE_TRIALS = 6
# The operands whose singular values a side unites, and the row of the
# side ("lhs" or "rhs") that holds them.
SVD_ROUTES = {
    "bk-1.1": (lambda a, b: [a + b], "lhs"),
    "tao-1.2": (lambda a, b, c: [np.block([[a, b], [b.conj().T, c]])], "rhs"),
    "ak-1.3": (lambda a, b, c: [a, c], "rhs"),
    "ak-1.4": (lambda a, b: [b + a, b - a], "rhs"),
}


def _union(*spectra):
    return np.sort(np.concatenate(spectra))[::-1]


def _abs_eigenvalues(h):
    return np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]


def _routed_spectra(mpmath, ineq_id, mats, side):
    """(dimension, scale, new, old, exact) for each spectrum that the side
    ``(lhs, rhs)`` of ``ineq_id`` on one input set takes by the
    eigenvalue route."""
    lhs, rhs = side
    n = mats[0].shape[0]
    if ineq_id in SVD_ROUTES:
        operands, end = SVD_ROUTES[ineq_id]
        ops = operands(*mats)
        exact = _union(*(_oracle(mpmath, op) for op in ops))
        new = lhs[:n] if end == "lhs" else rhs
        old = _union(*(np.linalg.svd(op, compute_uv=False) for op in ops))
        return [(ops[0].shape[0], exact[0], new, old, exact)]
    h = one(_herm, mats[0])
    with mpmath.workdps(40):
        w = np.array([float(x) for x in mpmath.eigh(mpmath.matrix(h.tolist()), eigvals_only=True)])
    plus, minus = (np.sort(np.maximum(v, 0.0))[::-1] for v in (w, -w))
    plus_old, minus_old = one(jordan, h), one(jordan, -h)
    abs_old = plus_old + minus_old
    if ineq_id == "thm-2.5-plus":
        part, rest, part_old, rest_old = plus, minus, plus_old, (abs_old - h) / 2.0
    else:
        part, rest, part_old, rest_old = minus, plus, minus_old, (abs_old + h) / 2.0
    scale = np.abs(w).max()
    old_rhs = _union(*map(_abs_eigenvalues, (abs_old, rest_old)))
    return [
        (n, scale, lhs[:n], _abs_eigenvalues(part_old), part),
        (n, scale, rhs, old_rhs, _union(np.abs(w), rest)),
    ]


@pytest.mark.parametrize("ineq_id", [*SVD_ROUTES, "thm-2.5-plus", "thm-2.5-minus"])
def test_eigenvalue_routes_match_mpmath_oracle(mpmath, ineq_id):
    entry = inequalities.catalog_entry(ineq_id)
    draw_stack = _drawer(entry, entry.canonical_class)
    worst = []
    for n in ROUTE_DIMS:
        mats = draw_stack(n, prng_stream(n, np.arange(ROUTE_TRIALS, dtype=np.uint64)), 1.0)
        (side,) = entry.run(mats, DEFAULT_TOL).sides
        for i in range(ROUTE_TRIALS):
            trial = [m[i] for m in mats]
            spectra = _routed_spectra(mpmath, ineq_id, trial, (side.lhs[i], side.rhs[i]))
            for j, (dim, scale, new, old, exact) in enumerate(spectra):
                err_new, err_old = (np.max(np.abs(x - exact)) / scale for x in (new, old))
                assert err_new <= ORACLE_C * dim * np.finfo(float).eps, (n, i, j, err_new)
                if j == len(worst):
                    worst.append((0.0, 0.0))
                worst[j] = (max(worst[j][0], err_new), max(worst[j][1], err_old))
    if ineq_id not in SVD_ROUTES:
        for j, (new_worst, old_worst) in enumerate(worst):
            assert new_worst <= old_worst, (j, new_worst, old_worst)


def _stack():
    """Five matrices of one size from different ensembles, and their
    Hermitian parts."""
    g = np.stack([_general(kind, 11) for kind in ENSEMBLES])
    return g, np.stack([one(_herm, m) for m in g])


@pytest.mark.parametrize(
    "route, hermitian",
    [
        (singular_values, False),
        (abs_op, False),
        (abs_op, True),
        (singular_values, True),
    ],
)
def test_spectral_kernels_stacked_equal_single(route, hermitian):
    general, herm = _stack()
    stack = herm if hermitian else general
    stacked = route(stack)
    for i, m in enumerate(stack):
        assert np.array_equal(stacked[i], route(m[None])[0])


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize(
    "sizes, calls",
    [
        ((1, 1, 1, 1), [4]),  # parts of one matrix, as a check or a search step has
        ((3, 1, 2), [6]),  # below the bound
        ((30, 1, 33), [64]),  # 64 slices of 8 x 8: exactly GROUP_ELEMENTS entries
        ((32, 33), [32, 33]),  # together one slice above it
        ((100, 1, 1), [100, 2]),  # a stack above it alone, then the rest together
    ],
)
def test_abs_ops_equal_abs_op_of_each_stack_alone(sizes, calls, hermitian, monkeypatch):
    # Slices per abs_op call: as few calls as keep each within
    # GROUP_ELEMENTS entries, unless one stack alone is larger.
    n = 8
    assert GROUP_ELEMENTS == 64 * n * n
    rng = np.random.default_rng(sum(sizes))
    stacks = [rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)) for k in sizes]
    if hermitian:
        stacks = list(map(_herm, stacks))
    counted = []
    monkeypatch.setattr(numkernel, "abs_op", lambda x: counted.append(len(x)) or abs_op(x))
    grouped = abs_ops(*stacks)
    assert counted == calls
    for stack, out in zip(stacks, grouped, strict=True):
        assert np.array_equal(out, abs_op(stack))


def test_direct_sum_spectrum_stacked_equals_single():
    general, _ = _stack()
    s, t = singular_values(general), singular_values(general[::-1].copy())
    stacked = direct_sum_spectrum(s, t)
    for i in range(len(general)):
        assert np.array_equal(stacked[i], direct_sum_spectrum(s[i : i + 1], t[i : i + 1])[0])


@pytest.mark.parametrize(
    "route",
    [
        singular_values,
        abs_op,
        numkernel._eigvalsh,
        lambda x: numkernel._hermitian_function(x, np.negative),
        psd_sqrt,
        lambda x: jordan(-x),
        lambda x: loewner_leq(np.zeros_like(x), x)[0],
    ],
)
def test_lapack_kernels_give_nan_for_non_finite_slices(route, capfd):
    # A slice holding an infinity or a NaN never reaches LAPACK, whose
    # argument checks would print to the process's stdout and whose
    # eigvalsh reads a NaN diagonal as a number; its result is NaN, and the
    # other slices are what they are alone.  The slices are PSD, so that
    # psd_sqrt takes them.
    _, herm = _stack()
    stack = _herm(herm @ herm)
    stack[1, 2, 2] = complex(np.nan, np.nan)
    stack[3, 0, 0] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        out = route(stack)
        for i in (0, 2, 4):
            assert np.array_equal(out[i], route(stack[i][None])[0])
    for i in (1, 3):
        assert np.isnan(out[i]).all()
    assert capfd.readouterr().out == ""


def test_singular_values_route_each_slice_by_its_own_symmetry():
    # A slice equal to its adjoint bit for bit takes its absolute
    # eigenvalues, the held ones where they are given; every other slice,
    # one that misses by a single ulp included, takes the SVD.  Each
    # result slice is the result for that slice alone.
    general, herm = _stack()
    nearly = herm[2].copy()
    nearly[1, 0] = complex(np.nextafter(nearly[1, 0].real, np.inf), nearly[1, 0].imag)
    stack = np.stack([herm[0], general[1], nearly, herm[3], general[4]])
    held = np.linalg.eigvalsh(_herm(stack))
    svd = np.linalg.svd(stack, compute_uv=False)
    for eigs in (None, held):
        out = singular_values(stack, eigs)
        for i, m in enumerate(stack):
            alone = singular_values(m[None], None if eigs is None else eigs[i : i + 1])
            assert np.array_equal(out[i], alone[0])
        for i in (1, 2, 4):
            assert np.array_equal(out[i], svd[i])
        w = np.linalg.eigvalsh(stack) if eigs is None else eigs
        for i in (0, 3):
            assert np.array_equal(out[i], np.sort(np.abs(w[i]))[::-1])
    assert not np.array_equal(nearly, _adj(nearly[None])[0])


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


def test_loewner_leq_reads_the_hermitian_parts():
    # A non-Hermitian operand is not refused: the nilpotent shift S is
    # compared as (S + S*)/2, whose eigenvalues are -1/2 and 1/2.
    eye = mat(np.eye(2))
    eigs, scale = loewner_leq(np.stack([eye, SHIFT_2]), np.stack([SHIFT_2, eye]))
    assert np.allclose(eigs, [[-1.5, -0.5], [0.5, 1.5]])
    assert scale.tolist() == [math.sqrt(2.0)] * 2


@pytest.mark.parametrize(
    "x, root, plus",
    [
        (SHIFT_2, mat([[1, 1], [1, 1]]) * (math.sqrt(2.0) / 4), mat([[1, 1], [1, 1]]) / 4),
        (PAULI_Z, mat([[1, 0], [0, 0]]), mat([[1, 0], [0, 0]])),
    ],
    ids=["shift", "indefinite"],
)
def test_hermitian_functions_read_the_hermitian_parts(x, root, plus):
    # As loewner_leq, psd_sqrt and jordan refuse no operand: the shift S is
    # read as (S + S*)/2 bit for bit, and psd_sqrt reads a negative
    # eigenvalue as 0.
    for kernel, expected in ((psd_sqrt, root), (jordan, plus)):
        out = kernel(x[None])
        assert np.array_equal(out, kernel(_herm(x[None])))
        assert np.allclose(out[0], expected, rtol=0.0, atol=1e-15)


def test_loewner_leq_gives_the_whole_ascending_spectrum():
    x, y = mat(np.diag([3.0, 1.0, 0.0])), mat(np.diag([1.0, 4.0, 0.0]))
    eigs, scale = loewner_leq(x[None], y[None])
    assert eigs[0].tolist() == [-2.0, 0.0, 3.0]
    assert scale[0] == max(math.sqrt(10.0), math.sqrt(17.0))
    zero_eigs, _ = loewner_leq(x[None], x[None])
    assert zero_eigs[0].tolist() == [0.0, 0.0, 0.0]


@given(seed=seeds, n=dims)
def test_loewner_leq_accepts_psd_shift(seed, n):
    (h,) = draw("hermitian", n, seed)
    (p,) = draw("psd", n, seed, index=1)
    holds, _, _ = order(h, h + p, DEFAULT_TOL)
    assert holds


# --- BLAS threads ------------------------------------------------------------


@pytest.fixture
def blas_on_two_threads():
    """numpy's OpenBLAS (get, set), on two threads until the test ends."""
    blas = numkernel._openblas_thread_query()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this test can ask")
    blas[1](2)
    try:
        yield blas
    finally:
        blas[1](1)


def test_one_blas_thread_nests_and_restores_on_an_exception(blas_on_two_threads):
    get, _ = blas_on_two_threads
    with pytest.raises(KeyError):
        with one_blas_thread():
            with one_blas_thread():
                assert get() == 1
            assert get() == 1
            raise KeyError("planted")
    assert get() == 2


def test_one_blas_thread_holds_while_any_thread_is_inside(blas_on_two_threads):
    # Four threads enter and leave the block over and over, switching every
    # few microseconds: each must find one BLAS thread inside, however the
    # others' entries and exits interleave with its own.
    get, _ = blas_on_two_threads
    seen = []

    def worker():
        for _ in range(1000):
            with one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 4000 and set(seen) == {1}
    assert get() == 2


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(numkernel, "_openblas_thread_query", lambda: None)
    with one_blas_thread():
        pass

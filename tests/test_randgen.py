"""Seeded generators: determinism, stream structure, and class residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svineq.inequalities import _psd_hypotheses
from svineq.numkernel import DEFAULT_TOL
from svineq.randgen import CLASS_ARITY, InvalidSpec, _unitary, prng_stream, sample

from conftest import frobenius_norm, hermitian_defect

seeds = st.integers(min_value=0, max_value=2**64 - 1)
indices = st.integers(min_value=0, max_value=2**64 - 1)


# --- stream determinism ---------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 17, 64])
def test_stacked_stream_rows_match_single_streams(count):
    indices = np.array([0, 7, 8, 9, 10, 11, 12, 13, 2**64 - 1], dtype=np.uint64)
    stacked = prng_stream(5, indices)
    rows = stacked.normals(count), stacked.complex_normals(count), stacked.raw(count)
    for r, index in enumerate(indices.tolist()):
        single = prng_stream(5, index)
        draws = single.normals(count), single.complex_normals(count), single.raw(count)
        for row, draw in zip(rows, draws):
            assert np.array_equal(row[r], draw)


def test_stacked_1x1_normal_keeps_the_one_matrix_product():
    # numpy multiplies one 1x1 matrix by a length-1 spectrum with its
    # scalar-operand loop and a stack of them with its vector loop, which
    # round complex products differently; each slice must match the former.
    indices = np.arange(64, dtype=np.uint64)
    (stacked,) = sample("normal", 1, prng_stream(4, indices))
    for r, index in enumerate(indices.tolist()):
        stream = prng_stream(4, index)
        u = _unitary(stream, 1)[0]
        d = stream.complex_normals(1)
        assert np.array_equal(stacked[r], (u * d) @ u.conj().T)


@pytest.mark.parametrize("class_tag", CLASS_ARITY)
def test_stacked_sample_matches_single_samples(class_tag):
    indices = np.arange(3, 7, dtype=np.uint64)
    stacked = sample(class_tag, 3, prng_stream(9, indices))
    assert len(stacked) == CLASS_ARITY[class_tag]
    for r, index in enumerate(indices.tolist()):
        single = sample(class_tag, 3, prng_stream(9, index))
        for s, m in zip(stacked, single):
            assert s.shape == (4, 3, 3)
            assert np.array_equal(s[r], m)



@given(seed=seeds, index=indices)
def test_stream_is_reproducible(seed, index):
    a = prng_stream(seed, index).uniforms(32)
    b = prng_stream(seed, index).uniforms(32)
    assert np.array_equal(a, b)


def test_streams_with_distinct_indices_differ():
    a = prng_stream(123, 0).uniforms(64)
    b = prng_stream(123, 1).uniforms(64)
    assert not np.array_equal(a, b)


def test_streams_with_distinct_seeds_differ():
    a = prng_stream(0, 0).uniforms(64)
    b = prng_stream(1, 0).uniforms(64)
    assert not np.array_equal(a, b)


def test_stream_position_is_chunking_independent():
    # counter-based: draws depend only on position, not call boundaries
    s1 = prng_stream(7, 3)
    chunks = np.concatenate([s1.uniforms(5), s1.uniforms(11), s1.uniforms(4)])
    assert np.array_equal(chunks, prng_stream(7, 3).uniforms(20))


def test_uniforms_land_in_unit_interval():
    u = prng_stream(99, 0).uniforms(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_normals_empirical_mean_within_lln_bound():
    # law of large numbers at 1e5 draws: 3 sigma ~ 0.0095 < 0.02
    x = prng_stream(2024, 0).normals(100000)
    assert abs(x.mean()) <= 0.02
    assert abs(x.var() - 1.0) <= 0.05


def test_complex_normals_unit_second_moment():
    z = prng_stream(2024, 1).complex_normals(100000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 0.05
    assert abs(z.mean()) <= 0.02


def test_extreme_seeds_accepted():
    for seed in (0, 2**64 - 1):
        u = prng_stream(seed, 2**64 - 1).uniforms(8)
        assert np.all(np.isfinite(u))


# --- validation and scale --------------------------------------------------------


@pytest.mark.parametrize("seed,index", [(True, 0), (0, False), (True, False), (np.True_, 0)])
def test_prng_stream_rejects_bools(seed, index):
    with pytest.raises(InvalidSpec):
        prng_stream(seed, index)


def test_sample_validates_class_and_dim():
    with pytest.raises(InvalidSpec):
        sample("weird", 2, prng_stream(0, 0))
    with pytest.raises(InvalidSpec):
        sample("ginibre", 0, prng_stream(0, 0))


def test_scale_acts_linearly_on_gaussian_classes():
    for class_tag in ("ginibre", "hermitian"):
        (base,) = sample(class_tag, 3, prng_stream(5, 0), scale=1.0)
        (big,) = sample(class_tag, 3, prng_stream(5, 0), scale=2.0)
        assert np.array_equal(big, 2.0 * base)


# --- frozen single-draw residuals ---------------------------------------------------


def test_unitary_residual_frozen_case():
    (u,) = sample("unitary", 4, prng_stream(7, 0))
    assert frobenius_norm(u.conj().T @ u - np.eye(4)) <= 1e-10


def test_normal_residual_frozen_case():
    (a,) = sample("normal", 3, prng_stream(1, 0))
    defect = frobenius_norm(a.conj().T @ a - a @ a.conj().T)
    assert defect <= 1e-9 * frobenius_norm(a) ** 2


def test_dominated_pair_frozen_case():
    a, b = sample("dominated_pair", 2, prng_stream(42, 0))
    assert np.linalg.eigvalsh(b - a).min() >= -1e-10
    assert np.linalg.eigvalsh(b + a).min() >= -1e-10


# --- bulk class residuals (1000 draws per class at n in {2,3,5,8}) -------------------


def _norm_scale(m):
    return max(1.0, frobenius_norm(m))


def _assert_class_residuals(class_tag, mats):
    if class_tag == "hermitian":
        (m,) = mats
        assert hermitian_defect(m) <= 1e-10 * _norm_scale(m)
    elif class_tag == "psd":
        (m,) = mats
        assert hermitian_defect(m) <= 1e-10 * _norm_scale(m)
        assert np.linalg.eigvalsh(m).min() >= -1e-10 * _norm_scale(m)
    elif class_tag == "unitary":
        (m,) = mats
        n = m.shape[0]
        assert frobenius_norm(m.conj().T @ m - np.eye(n)) <= 1e-10 * math.sqrt(n)
    elif class_tag in ("normal", "normal_order_constrained"):
        (m,) = mats
        defect = frobenius_norm(m.conj().T @ m - m @ m.conj().T)
        assert defect <= 1e-10 * max(1.0, frobenius_norm(m) ** 2)
        if class_tag == "normal_order_constrained":
            parts_sum = (m + m.conj().T) / 2 + (m - m.conj().T) / 2j
            floor = np.linalg.eigvalsh((parts_sum + parts_sum.conj().T) / 2).min()
            assert floor >= -1e-10 * _norm_scale(m)
    elif class_tag == "psd_block2":
        a, b, c = mats
        blk = np.block([[a, b], [b.conj().T, c]])
        assert hermitian_defect(blk) <= 1e-10 * _norm_scale(blk)
        assert np.linalg.eigvalsh(blk).min() >= -1e-10 * _norm_scale(blk)
    elif class_tag == "dominated_pair":
        a, b = mats
        scale = max(_norm_scale(a), _norm_scale(b))
        assert np.linalg.eigvalsh(b - a).min() >= -1e-10 * scale
        assert np.linalg.eigvalsh(b + a).min() >= -1e-10 * scale
    elif class_tag == "normal_pair_shared_basis":
        a, b = mats
        for m in mats:
            defect = frobenius_norm(m.conj().T @ m - m @ m.conj().T)
            assert defect <= 1e-10 * max(1.0, frobenius_norm(m) ** 2)
        # shared eigenbasis implies a commuting pair
        scale = max(1.0, frobenius_norm(a) * frobenius_norm(b))
        assert frobenius_norm(a @ b - b @ a) <= 1e-10 * scale
    elif class_tag == "low_rank":
        (m,) = mats
        n = m.shape[0]
        s = np.linalg.svd(m, compute_uv=False)
        assert np.all(s[max(1, n // 2):] <= 1e-12 * s[0])
    else:
        assert class_tag == "ginibre"
        (m,) = mats
        assert np.all(np.isfinite(m))


@pytest.mark.parametrize("class_tag", sorted(CLASS_ARITY))
def test_bulk_class_residuals(class_tag):
    trial = 0
    for n in (2, 3, 5, 8):
        for _ in range(1000):
            mats = sample(class_tag, n, prng_stream(314159, trial))
            trial += 1
            _assert_class_residuals(class_tag, mats)


@given(seed=seeds, n=st.sampled_from([2, 3, 5, 8]))
def test_psd_output_classifies_as_psd(seed, n):
    (p,) = sample("psd", n, prng_stream(seed, 0))
    (psd, _) = _psd_hypotheses("p", p[None], DEFAULT_TOL)[0]["p_positive"]
    assert psd[0]

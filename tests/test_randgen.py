"""Seeded generators: determinism, stream structure, and class residuals."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svineq.inequalities import NORMAL_OUTPUT_CLASSES, SPLITTABLE_CLASSES, _psd_hypotheses
from svineq.numkernel import DEFAULT_TOL
from svineq.randgen import CLASSES, InvalidSpec, _unitary, prng_stream, sample

from conftest import draw, frobenius_norm, hermitian_defect

seeds = st.integers(min_value=0, max_value=2**64 - 1)
indices = st.integers(min_value=0, max_value=2**64 - 1)


# --- stream determinism ---------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 17, 64])
def test_stacked_stream_rows_match_single_streams(count):
    indices = np.array([0, 7, 8, 9, 10, 11, 12, 13, 2**64 - 1], dtype=np.uint64)
    stacked = prng_stream(5, indices)
    rows = stacked.normals(count), stacked.complex_normals(count), stacked.raw(count)
    for r, index in enumerate(indices.tolist()):
        single = prng_stream(5, [index])
        draws = single.normals(count), single.complex_normals(count), single.raw(count)
        for row, alone in zip(rows, draws):
            assert alone.shape == (1, count)
            assert np.array_equal(row[r], alone[0])


def test_stacked_1x1_normal_keeps_the_one_matrix_product():
    # numpy multiplies one 1x1 matrix by a length-1 spectrum with its
    # scalar-operand loop and a stack of them with its vector loop, which
    # round complex products differently; each slice must match the former.
    indices = np.arange(64, dtype=np.uint64)
    (stacked,) = sample("normal", 1, prng_stream(4, indices))
    for r, index in enumerate(indices.tolist()):
        stream = prng_stream(4, [index])
        u = _unitary(stream, 1)[0]
        d = stream.complex_normals(1)[0]
        assert np.array_equal(stacked[r], (u * d) @ u.conj().T)


@pytest.mark.parametrize("class_tag", CLASSES)
def test_stacked_sample_matches_single_samples(class_tag):
    indices = np.arange(3, 7, dtype=np.uint64)
    stacked = sample(class_tag, 3, prng_stream(9, indices))
    for r, index in enumerate(indices.tolist()):
        for s, m in zip(stacked, draw(class_tag, 3, 9, index), strict=True):
            assert np.array_equal(s[r], m)


def _normality_defect(m) -> float:
    return frobenius_norm(m.conj().T @ m - m @ m.conj().T)


@pytest.mark.parametrize("class_tag", CLASSES)
def test_class_rows_match_their_draws(class_tag):
    # A draw gives `arity` (k, n, n) stacks; every matrix is normal when the
    # row says so, and some draw at n >= 2 is not normal when it does not.
    row = CLASSES[class_tag]
    assert row.normal == (class_tag in NORMAL_OUTPUT_CLASSES)
    defects = []
    for n in (1, 2, 3, 5):
        mats = sample(class_tag, n, prng_stream(77, np.arange(8, dtype=np.uint64)))
        assert len(mats) == row.arity
        for stack in mats:
            assert stack.shape == (8, n, n)
            for m in stack:
                defect = _normality_defect(m) / max(1.0, frobenius_norm(m) ** 2)
                defects.append((n, defect))
    if row.normal:
        assert max(d for _, d in defects) <= 1e-10
    else:
        assert max(d for n, d in defects if n >= 2) > 1e-3


def test_splittable_rows_give_one_normal_matrix():
    # A split_cartesian checker splits a draw's one matrix into its
    # Cartesian parts, which commute only when that matrix is normal.
    flagged = {tag for tag, row in CLASSES.items() if row.splittable}
    assert flagged == SPLITTABLE_CLASSES == {"normal", "normal_order_constrained"}
    for tag in flagged:
        assert CLASSES[tag].arity == 1 and CLASSES[tag].normal


# sha256 of every draw of a class from a 4-row stream at n = 1, 2, 5 and
# scale 1.0, 0.3, in that order: pins each class's arithmetic and
# stream-call order byte for byte, unitary and low_rank included, which no
# golden reaches.
DRAW_DIGESTS = {
    "ginibre": "ea6673a2e1dcb2f2bd78d723fac2b2b2bf355dd8835b57353feff03029ffeeb7",
    "hermitian": "fe3d251ea24ffd04caee4f97f230c219205c485267b58a85e89d1a06a33d46cf",
    "psd": "a063b60549ec4b7052974fe3787ca1c3ace0bc1a47d32d9827e0959ca4096b69",
    "unitary": "e28286e298866d83a4d21859ef933f911368b798a37ff979823fe15361d00b3c",
    "normal": "11838b8020963a9c42d65c3ce25c2cb4a2b9ed9be21dd1731f9f9e196b79e52e",
    "psd_block2": "d62518da3564cba71a7aaa07f3a1e2bf04791e5c635977e707871532eed94adf",
    "dominated_pair": "0903b59c5cb52ab37d943f0a226ff0ab433a0665b295258afc38eed344ee4417",
    "normal_order_constrained": "e348074b9f083b7c0fa1e1df587ce23d87a728834b889a300428efe0373af56a",
    "normal_pair_shared_basis": "b438e07fb074f42216865163a91d1c3e073699ffeda1b6ba5df0642672b37c18",
    "low_rank": "c8eb59cffe57b7f1078e1520c41cc451fd8f4dfb1c494815bde25e098efea415",
}


@pytest.mark.parametrize("class_tag", sorted(DRAW_DIGESTS))
def test_class_draw_bytes_are_pinned(class_tag):
    assert set(DRAW_DIGESTS) == set(CLASSES)
    digest = hashlib.sha256()
    for n in (1, 2, 5):
        for scale in (1.0, 0.3):
            stream = prng_stream(2025, np.arange(6, 10, dtype=np.uint64))
            for m in sample(class_tag, n, stream, scale):
                assert m.shape == (4, n, n) and m.dtype == np.complex128
                digest.update(m.tobytes())
    assert digest.hexdigest() == DRAW_DIGESTS[class_tag]


@given(seed=seeds, index=indices)
def test_stream_is_reproducible(seed, index):
    a = prng_stream(seed, [index]).uniforms(32)
    b = prng_stream(seed, [index]).uniforms(32)
    assert np.array_equal(a, b)


def test_streams_with_distinct_indices_differ():
    a = prng_stream(123, [0]).uniforms(64)
    b = prng_stream(123, [1]).uniforms(64)
    assert not np.array_equal(a, b)


def test_streams_with_distinct_seeds_differ():
    a = prng_stream(0, [0]).uniforms(64)
    b = prng_stream(1, [0]).uniforms(64)
    assert not np.array_equal(a, b)


def test_stream_position_is_chunking_independent():
    # counter-based: draws depend only on position, not call boundaries
    s1 = prng_stream(7, [3])
    chunks = np.concatenate([s1.uniforms(5), s1.uniforms(11), s1.uniforms(4)], axis=1)
    assert np.array_equal(chunks, prng_stream(7, [3]).uniforms(20))


def test_uniforms_land_in_unit_interval():
    u = prng_stream(99, [0]).uniforms(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_normals_empirical_mean_within_lln_bound():
    # law of large numbers at 1e5 draws: 3 sigma ~ 0.0095 < 0.02
    x = prng_stream(2024, [0]).normals(100000)
    assert abs(x.mean()) <= 0.02
    assert abs(x.var() - 1.0) <= 0.05


def test_complex_normals_unit_second_moment():
    z = prng_stream(2024, [1]).complex_normals(100000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 0.05
    assert abs(z.mean()) <= 0.02


def test_extreme_seeds_accepted():
    for seed in (0, 2**64 - 1):
        u = prng_stream(seed, [2**64 - 1]).uniforms(8)
        assert np.all(np.isfinite(u))


# --- validation and scale --------------------------------------------------------


@pytest.mark.parametrize(
    "seed,indices",
    [(True, [0]), (0, [False]), (True, [False]), (np.True_, [0])],
    ids=["True-0", "0-False", "True-False", "seed3-0"],
)
def test_prng_stream_rejects_bools(seed, indices):
    with pytest.raises(InvalidSpec):
        prng_stream(seed, indices)


@pytest.mark.parametrize(
    "indices",
    [
        [1.5],
        [True],
        np.array([True]),
        ["3"],
        [-1],
        np.array([0, -1]),
        [2**64],
        np.zeros((1, 1), dtype=np.uint64),
        3,
    ],
    ids=repr,
)
def test_prng_stream_rejects_bad_indices(indices):
    message = re.escape("stream indices must be a 1-D array in [0, 2**64), got ")
    with pytest.raises(InvalidSpec, match=f"^{message}"):
        prng_stream(0, indices)


def test_sample_validates_class_and_dim():
    stream = prng_stream(0, [0])
    with pytest.raises(InvalidSpec, match="^unknown class_tag 'weird'$"):
        sample("weird", 2, stream)
    with pytest.raises(InvalidSpec, match="^dim must be in 1..64, got 0$"):
        sample("ginibre", 0, stream)
    for dim in (True, 2.0, 2.5, np.float64(2.0)):
        message = re.escape(f"dim must be in 1..64, got {dim!r}")
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            sample("ginibre", dim, stream)


def test_scale_acts_linearly_on_gaussian_classes():
    for class_tag in ("ginibre", "hermitian"):
        (base,) = sample(class_tag, 3, prng_stream(5, [0]), scale=1.0)
        (big,) = sample(class_tag, 3, prng_stream(5, [0]), scale=2.0)
        assert np.array_equal(big, 2.0 * base)


# --- frozen single-draw residuals ---------------------------------------------------


def test_unitary_residual_frozen_case():
    (u,) = draw("unitary", 4, 7)
    assert frobenius_norm(u.conj().T @ u - np.eye(4)) <= 1e-10


def test_normal_residual_frozen_case():
    (a,) = draw("normal", 3, 1)
    defect = frobenius_norm(a.conj().T @ a - a @ a.conj().T)
    assert defect <= 1e-9 * frobenius_norm(a) ** 2


def test_dominated_pair_frozen_case():
    a, b = draw("dominated_pair", 2, 42)
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


@pytest.mark.parametrize("class_tag", sorted(CLASSES))
def test_bulk_class_residuals(class_tag):
    for first, n in zip(range(0, 4000, 1000), (2, 3, 5, 8)):
        stacks = sample(class_tag, n, prng_stream(314159, np.arange(first, first + 1000)))
        for r in range(1000):
            _assert_class_residuals(class_tag, [m[r] for m in stacks])


@given(seed=seeds, n=st.sampled_from([2, 3, 5, 8]))
def test_psd_output_classifies_as_psd(seed, n):
    (p,) = draw("psd", n, seed)
    (psd, _) = _psd_hypotheses("p", p[None], DEFAULT_TOL)[0]["p_positive"]
    assert psd[0]

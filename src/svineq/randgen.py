"""Seeded, reproducible random matrix generators.

Randomness comes from a counter-based stream: every draw is a pure
function of (seed, stream_index, position), built from a 64-bit avalanche
mix of the counter.  Distinct stream indices give statistically
independent streams, so parallel fuzz trials can each own index = trial
number without coordination.

Generator classes map onto the hypothesis classes the inequality catalog
needs: plain Ginibre matrices, Hermitian/PSD/unitary/normal samples,
PSD 2x2-block partitions, dominated Hermitian pairs (±A <= B by
construction), order-constrained normal matrices (Hermitian part plus
skew part PSD), normal pairs sharing one eigenbasis, and rank-deficient
products U·V, whose small singular values are where a kernel's accuracy
shows.
"""

from __future__ import annotations

import math
import numpy as np

from .numkernel import MAX_DIM, _adj, _herm, abs_op

CLASS_ARITY: dict[str, int] = {
    "ginibre": 1,
    "hermitian": 1,
    "psd": 1,
    "unitary": 1,
    "normal": 1,
    "psd_block2": 3,
    "dominated_pair": 2,
    "normal_order_constrained": 1,
    "normal_pair_shared_basis": 2,
    "low_rank": 1,
}

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_SALT = _U64(0xD1B54A32D192ED03)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


class InvalidSpec(ValueError):
    """A generator class, dimension, seed or stream index is out of range."""


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer.  A bool is not,
    though it subclasses int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_u64(value: int, name: str) -> int:
    if not is_integer(value) or not 0 <= int(value) < 2**64:
        raise InvalidSpec(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64-style avalanche of an array of uint64 counters."""
    x = x ^ (x >> _U64(30))
    x *= _MIX1
    x ^= x >> _U64(27)
    x *= _MIX2
    x ^= x >> _U64(31)
    return x


class Stream:
    """Deterministic scalar streams keyed by (seed, stream_index).

    Word i of a stream is mix(key + (i+1)*GOLDEN) where the key itself is a
    mix of seed and index, so draws at any position can be computed
    independently; the object only tracks how many words were consumed.
    ``stream_index`` may be an array of k indices: every draw then returns
    one row per index, and row r equals the draw of ``Stream(seed,
    stream_index[r])`` on its own.
    """

    def __init__(self, seed: int, stream_index):
        seed = _check_u64(seed, "seed")
        self.stacked = np.ndim(stream_index) > 0
        if self.stacked:
            indices = np.asarray(stream_index, dtype=_U64)
        else:
            indices = np.array([_check_u64(stream_index, "stream_index")], dtype=_U64)
        # mix(seed + GOLDEN) and mix(index + SALT) in one call.
        parts = _mix64(np.concatenate((np.array([seed], dtype=_U64) + _GOLDEN, indices + _SALT)))
        self._key = _mix64(parts[0] ^ parts[1:])[:, None]
        self._pos = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` uint64 words."""
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=_U64)
        self._pos += count
        words = _mix64(self._key + idx * _GOLDEN)
        return words if self.stacked else words[0]

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform doubles in [0, 1) from the top 53 bits of each word."""
        return (self.raw(count) >> _U64(11)) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """Standard real Gaussians via the Box-Muller transform."""
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[..., :pairs], u[..., pairs:]
        # log(1-u1) is safe: u1 < 1 exactly, and log1p(0) = 0 maps to z = 0.
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = (2.0 * math.pi) * u2
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[
            ..., :count
        ]

    def complex_normals(self, count: int) -> np.ndarray:
        """Standard complex Gaussians (E|z|^2 = 1)."""
        z = self.normals(2 * count)
        return (z[..., :count] + 1j * z[..., count:]) * (2.0**-0.5)


def prng_stream(seed: int, stream_index) -> Stream:
    """The stream (seed, stream_index); an array of indices gives one
    stacked stream whose rows are those streams."""
    return Stream(seed, stream_index)


# The generators below draw one stack of k inputs from a stream of k rows
# (k = 1 for a single-index stream); every array they return has shape
# (k, n, n).


def _ginibre(stream: Stream, n: int, scale: float) -> np.ndarray:
    return stream.complex_normals(n * n).reshape(-1, n, n) * scale


def _hermitian(stream: Stream, n: int, scale: float) -> np.ndarray:
    return _herm(_ginibre(stream, n, scale))


def _psd(stream: Stream, n: int, scale: float) -> np.ndarray:
    g = _ginibre(stream, n, scale)
    return _herm(_adj(g) @ g)


def _low_rank(stream: Stream, n: int, scale: float) -> np.ndarray:
    """U·V for n x r and r x n Ginibre factors, r = max(1, n // 2), scaled
    so that entries have the second moment of a Ginibre draw."""
    r = max(1, n // 2)
    u = stream.complex_normals(n * r).reshape(-1, n, r)
    v = stream.complex_normals(r * n).reshape(-1, r, n)
    return (u @ v) * (scale / math.sqrt(r))


def _unitary(stream: Stream, n: int) -> np.ndarray:
    g = _ginibre(stream, n, 1.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.where(d == 0, 1.0 + 0j, d / np.abs(d))
    return q * phases[:, None, :]


def _conjugate_diag(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    if u.shape[-1] == 1:
        # One 1x1 matrix times a length-1 spectrum runs numpy's
        # scalar-operand loop; a stack of them would run the vector loop,
        # which rounds complex products differently.  Keep the former.
        scaled = np.stack([m * d for m, d in zip(u, diag)])
    else:
        scaled = u * diag[:, None, :]
    return scaled @ _adj(u)


def sample(class_tag: str, dim: int, stream: Stream, scale: float = 1.0) -> tuple[np.ndarray, ...]:
    """Draw one input tuple for ``class_tag`` from an existing stream.

    From a stacked stream of k rows each matrix comes as a (k, n, n)
    stack whose slice r is the draw from row r alone; from a single stream
    each comes as one (n, n) matrix.
    """
    if not 1 <= dim <= MAX_DIM:
        raise InvalidSpec(f"dim must be in 1..{MAX_DIM}, got {dim!r}")
    n = dim
    if class_tag == "ginibre":
        mats = (_ginibre(stream, n, scale),)
    elif class_tag == "hermitian":
        mats = (_hermitian(stream, n, scale),)
    elif class_tag == "psd":
        mats = (_psd(stream, n, scale),)
    elif class_tag == "unitary":
        mats = (_unitary(stream, n),)
    elif class_tag == "normal":
        u = _unitary(stream, n)
        d = stream.complex_normals(n).reshape(-1, n) * scale
        mats = (_conjugate_diag(u, d),)
    elif class_tag == "psd_block2":
        p = _psd(stream, 2 * n, scale)
        mats = (p[:, :n, :n].copy(), p[:, :n, n:].copy(), p[:, n:, n:].copy())
    elif class_tag == "dominated_pair":
        a = _hermitian(stream, n, scale)
        p = _psd(stream, n, scale)
        mats = (a, _herm(abs_op(a) + p))
    elif class_tag == "normal_order_constrained":
        u = _unitary(stream, n)
        d2 = stream.normals(n).reshape(-1, n) * scale
        offset = np.abs(stream.normals(n).reshape(-1, n)) * scale
        d1 = -d2 + offset
        mats = (_conjugate_diag(u, d1 + 1j * d2),)
    elif class_tag == "normal_pair_shared_basis":
        u = _unitary(stream, n)
        da = stream.complex_normals(n).reshape(-1, n) * scale
        db = stream.complex_normals(n).reshape(-1, n) * scale
        mats = (_conjugate_diag(u, da), _conjugate_diag(u, db))
    elif class_tag == "low_rank":
        mats = (_low_rank(stream, n, scale),)
    else:
        raise InvalidSpec(f"unknown class_tag {class_tag!r}")
    return mats if stream.stacked else tuple(m[0] for m in mats)


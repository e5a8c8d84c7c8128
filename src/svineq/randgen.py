"""Seeded, reproducible random matrix generators.

Randomness comes from a counter-based stream: every draw is a pure
function of (seed, stream index, position), built from a 64-bit avalanche
mix of the counter.  Distinct stream indices give statistically
independent streams, so parallel fuzz trials can each own index = trial
number without coordination.

Generator classes map onto the hypothesis classes the inequality catalog
needs; ``CLASSES`` holds one row per class.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .numkernel import MAX_DIM, _adj, _herm, abs_op

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


def _check_u64(value: int, name: str, error: type[ValueError] = InvalidSpec) -> int:
    if not is_integer(value) or not 0 <= int(value) < 2**64:
        raise error(f"{name} must be an unsigned 64-bit integer, got {value!r}")
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
    """Stacked deterministic streams, one row per (seed, stream index).

    Word i of a stream is mix(key + (i+1)*GOLDEN) where the key itself is a
    mix of seed and index, so draws at any position can be computed
    independently; the object only tracks how many words were consumed.
    ``indices`` is a 1-D integer array of k stream indices: every draw
    returns one row per index, and row r does not depend on the others.
    """

    def __init__(self, seed: int, indices):
        seed = _check_u64(seed, "seed")
        indices = np.asarray(indices)
        kind = indices.dtype.kind
        if indices.ndim != 1 or not (kind == "u" or kind == "i" and (indices >= 0).all()):
            raise InvalidSpec(f"stream indices must be a 1-D array in [0, 2**64), got {indices!r}")
        indices = indices.astype(_U64)
        # mix(seed + GOLDEN) and mix(index + SALT) in one call.
        parts = _mix64(np.concatenate((np.array([seed], dtype=_U64) + _GOLDEN, indices + _SALT)))
        self._key = _mix64(parts[0] ^ parts[1:])[:, None]
        self._pos = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` uint64 words of every row."""
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=_U64)
        self._pos += count
        return _mix64(self._key + idx * _GOLDEN)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform doubles in [0, 1) from the top 53 bits of each word."""
        return (self.raw(count) >> _U64(11)) * 2.0**-53

    def normals(self, count: int, draws: int | None = None) -> np.ndarray:
        """Standard real Gaussians via the Box-Muller transform, shape
        (k, count).  With ``draws``, the (k, draws, count) stack of that many
        consecutive ``normals(count)`` draws, from one ``uniforms`` call."""
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs * (draws or 1))
        if draws is not None:
            u = u.reshape(len(u), draws, 2 * pairs)
        u1, u2 = u[..., :pairs], u[..., pairs:]
        # log(1-u1) is safe: u1 < 1 exactly, and log1p(0) = 0 maps to z = 0.
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = (2.0 * math.pi) * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        return z[..., :count]

    def complex_normals(self, count: int) -> np.ndarray:
        """Standard complex Gaussians (E|z|^2 = 1)."""
        z = self.normals(2 * count)
        return (z[:, :count] + 1j * z[:, count:]) * (2.0**-0.5)


def prng_stream(seed: int, indices) -> Stream:
    """The stacked stream whose rows are the streams (seed, indices[r])."""
    return Stream(seed, indices)


# The draws below take a stream of k rows and return (k, n, n) stacks.


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


def _normal(stream: Stream, n: int, scale: float) -> tuple[np.ndarray, ...]:
    u = _unitary(stream, n)
    d = stream.complex_normals(n).reshape(-1, n) * scale
    return (_conjugate_diag(u, d),)


def _psd_block2(stream: Stream, n: int, scale: float) -> tuple[np.ndarray, ...]:
    p = _psd(stream, 2 * n, scale)
    return p[:, :n, :n].copy(), p[:, :n, n:].copy(), p[:, n:, n:].copy()


def _dominated_pair(stream: Stream, n: int, scale: float) -> tuple[np.ndarray, ...]:
    a = _hermitian(stream, n, scale)
    p = _psd(stream, n, scale)
    return a, _herm(abs_op(a) + p)


def _normal_order_constrained(stream: Stream, n: int, scale: float) -> tuple[np.ndarray, ...]:
    u = _unitary(stream, n)
    d2 = stream.normals(n).reshape(-1, n) * scale
    offset = np.abs(stream.normals(n).reshape(-1, n)) * scale
    d1 = -d2 + offset
    return (_conjugate_diag(u, d1 + 1j * d2),)


def _normal_pair_shared_basis(stream: Stream, n: int, scale: float) -> tuple[np.ndarray, ...]:
    u = _unitary(stream, n)
    da = stream.complex_normals(n).reshape(-1, n) * scale
    db = stream.complex_normals(n).reshape(-1, n) * scale
    return _conjugate_diag(u, da), _conjugate_diag(u, db)


class GeneratorClass(NamedTuple):
    """A class's row: how many matrices a draw gives, whether every one of
    them is normal, ``draw(stream, n, scale)``, which gives them, and
    whether a ``split_cartesian`` checker splits its one output into the
    commuting Hermitian pair of its Cartesian parts."""

    arity: int
    normal: bool
    draw: Callable[[Stream, int, float], tuple[np.ndarray, ...]]
    splittable: bool = False


CLASSES: dict[str, GeneratorClass] = {
    "ginibre": GeneratorClass(1, False, lambda s, n, c: (_ginibre(s, n, c),)),
    "hermitian": GeneratorClass(1, True, lambda s, n, c: (_hermitian(s, n, c),)),
    "psd": GeneratorClass(1, True, lambda s, n, c: (_psd(s, n, c),)),
    "unitary": GeneratorClass(1, True, lambda s, n, c: (_unitary(s, n),)),
    "normal": GeneratorClass(1, True, _normal, splittable=True),
    "psd_block2": GeneratorClass(3, False, _psd_block2),
    "dominated_pair": GeneratorClass(2, True, _dominated_pair),
    "normal_order_constrained": GeneratorClass(1, True, _normal_order_constrained, splittable=True),
    "normal_pair_shared_basis": GeneratorClass(2, True, _normal_pair_shared_basis),
    "low_rank": GeneratorClass(1, False, lambda s, n, c: (_low_rank(s, n, c),)),
}


def sample(class_tag: str, dim: int, stream: Stream, scale: float = 1.0) -> tuple[np.ndarray, ...]:
    """Draw one input tuple of ``class_tag`` from a stream of k rows: each
    matrix is a (k, n, n) stack whose slice r is the draw of row r."""
    if not is_integer(dim) or not 1 <= dim <= MAX_DIM:
        raise InvalidSpec(f"dim must be in 1..{MAX_DIM}, got {dim!r}")
    if class_tag not in CLASSES:
        raise InvalidSpec(f"unknown class_tag {class_tag!r}")
    return CLASSES[class_tag].draw(stream, dim, scale)

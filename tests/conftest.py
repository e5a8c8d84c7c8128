"""Shared test helpers and hypothesis configuration."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads BLAS.  svineq's entry points pin
# numpy's OpenBLAS to one thread themselves; this also covers the tests
# that call the kernels directly, and BLAS builds svineq cannot pin, since
# the goldens pin last bits of LAPACK results that the thread count can
# change.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from svineq.decomp import cartesian
from svineq.randgen import prng_stream, sample

settings.register_profile(
    "svineq",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("svineq")


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process un-reaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")


def mat(rows) -> np.ndarray:
    """Build a complex matrix from nested lists (test shorthand)."""
    return np.array(rows, dtype=np.complex128)


def draw(class_tag: str, dim: int, seed: int, index: int = 0, scale: float = 1.0):
    """One deterministic generator draw for property tests."""
    return sample(class_tag, dim, prng_stream(seed, index), scale)


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(m))


def hermitian_defect(m) -> float:
    """||m - m*||_F."""
    return frobenius_norm(m - m.conj().T)


def direct_sum(a, b) -> np.ndarray:
    """The block-diagonal matrix a ⊕ b (the kernels never assemble it)."""
    na, nb = a.shape[-1], b.shape[-1]
    out = np.zeros((na + nb, na + nb), dtype=np.complex128)
    out[:na, :na] = a
    out[na:, na:] = b
    return out


def cartesian_parts(a):
    """(A1, A2) of one matrix: slice 0 of the stacked splitting."""
    a1, a2 = cartesian(a[None])
    return a1[0], a2[0]


# Small fixed matrices reused across test modules.
SHIFT_2 = mat([[0, 1], [0, 0]])          # rank-one nilpotent, not Hermitian
PAULI_X = mat([[0, 1], [1, 0]])
PAULI_Z = mat([[1, 0], [0, -1]])

"""Eigenvalue backends for real symmetric and complex Hermitian matrices."""

from __future__ import annotations

import numpy as np

SYMMETRY_RTOL = 1e-10
HERMITIAN_ATOL = 1e-10


class EigenError(ValueError):
    """Invalid eigensolver input."""


def eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending with multiplicity."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise EigenError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max(initial=0.0))
    dev = float(np.abs(m - m.T).max(initial=0.0))
    if dev > SYMMETRY_RTOL * max(scale, 1e-300):
        raise EigenError(f"matrix asymmetry {dev:.3e} exceeds {SYMMETRY_RTOL:g} * max|entry|")
    return np.linalg.eigvalsh(m)


def eigenvalues_hermitian(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a complex Hermitian matrix, ascending with multiplicity."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise EigenError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.abs(h - h.conj().T).max(initial=0.0))
    if dev > HERMITIAN_ATOL:
        raise EigenError(f"matrix deviates from Hermitian by {dev:.3e}")
    return np.linalg.eigvalsh(h)

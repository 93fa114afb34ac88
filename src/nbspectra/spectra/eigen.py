"""Eigenvalue backend for real symmetric and complex Hermitian matrices."""

from __future__ import annotations

import numpy as np

SYMMETRY_RTOL = 1e-10
HERMITIAN_ATOL = 1e-10


class EigenError(ValueError):
    """Invalid eigensolver input."""


def eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric or complex Hermitian matrix,
    ascending with multiplicity.

    Real input may deviate from its transpose by ``SYMMETRY_RTOL`` times its
    largest entry, complex input from its adjoint by ``HERMITIAN_ATOL``.
    """
    m = np.asarray(m)
    hermitian = np.iscomplexobj(m)
    m = m.astype(np.complex128 if hermitian else np.float64, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise EigenError(f"expected a square matrix, got shape {m.shape}")
    if hermitian:
        dev = float(np.abs(m - m.conj().T).max(initial=0.0))
        if dev > HERMITIAN_ATOL:
            raise EigenError(f"matrix deviates from Hermitian by {dev:.3e}")
    else:
        scale = float(np.abs(m).max(initial=0.0))
        dev = float(np.abs(m - m.T).max(initial=0.0))
        if dev > SYMMETRY_RTOL * max(scale, 1e-300):
            raise EigenError(f"matrix asymmetry {dev:.3e} exceeds {SYMMETRY_RTOL:g} * max|entry|")
    return np.linalg.eigvalsh(m)

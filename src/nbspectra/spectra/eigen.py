"""Eigenvalue backend for real symmetric and complex Hermitian matrices."""

from __future__ import annotations

import numpy as np

SYMMETRY_RTOL = 1e-10
HERMITIAN_ATOL = 1e-10


class EigenError(ValueError):
    """Invalid eigensolver input."""


def _asymmetry(m: np.ndarray) -> tuple[float, float]:
    """(max|m_ij|, max|m_ij - conj(m_ji)|) in one pass over slabs of rows.

    Slab [lo, lo + 64) pairs its rows from column lo on with the same
    columns from row lo down, so each entry of the upper triangle meets its
    mirror once and every entry is read; both maxima (NaN included) equal
    those of the full-matrix scan.  Only the real case needs the scale.
    """
    scales, devs = [0.0], [0.0]
    for lo in range(0, m.shape[0], 64):
        upper, lower = m[lo:lo + 64, lo:], m[lo:, lo:lo + 64].T
        if np.iscomplexobj(m):
            diff = np.conj(lower)
            np.subtract(upper, diff, out=diff)
            devs.append(np.abs(diff).max())
        else:
            diff = np.subtract(upper, lower)
            scales += [upper.max(), -upper.min(), lower.max(), -lower.min()]
            devs.append(np.abs(diff, out=diff).max())
    return float(np.max(scales)), float(np.max(devs))


def eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric or complex Hermitian matrix,
    ascending with multiplicity.

    Real input may deviate from its transpose by ``SYMMETRY_RTOL`` times its
    largest entry, complex input from its adjoint by ``HERMITIAN_ATOL``; NaN
    or infinite entries are rejected.
    """
    m = np.asarray(m)
    hermitian = np.iscomplexobj(m)
    m = m.astype(np.complex128 if hermitian else np.float64, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise EigenError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN, rejected next
        scale, dev = _asymmetry(m)
    if not np.isfinite(dev):  # every entry meets its mirror, so NaN or inf shows here
        raise EigenError("matrix has non-finite (NaN or inf) entries")
    if hermitian:
        if dev > HERMITIAN_ATOL:
            raise EigenError(f"matrix deviates from Hermitian by {dev:.3e}")
    elif dev > SYMMETRY_RTOL * max(scale, 1e-300):
        raise EigenError(f"matrix asymmetry {dev:.3e} exceeds {SYMMETRY_RTOL:g} * max|entry|")
    return np.linalg.eigvalsh(m)

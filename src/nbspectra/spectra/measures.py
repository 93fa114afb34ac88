"""Discrete spectral measures of (colored) regular graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chebyshev import eval_X_table, xrq_from_x
from ..multigraph import MultiGraph, _require_regular
from ..nbmatrix import ColorAssignment, adjacency, colored_adjacency
from .eigen import eigenvalues_symmetric


class MeasureError(ValueError):
    """Invalid measure construction or query."""


@dataclass(frozen=True)
class DiscreteSpectralMeasure:
    """Uniform atomic measure on sorted points (normalized eigenvalues).

    ``q`` records the branching number used for the q^{-1/2} normalization;
    synthetic measures default to q = 1 (identity normalization).
    """

    points: np.ndarray
    q: float = 1.0

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=np.float64).ravel())
        if pts.size == 0:
            raise MeasureError("measure needs at least one point")
        if not np.isfinite(pts).all():
            raise MeasureError("measure points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.size

    def idf(self, p):
        """Generalized inverse distribution function, infimum convention.

        Returns points[k] for p in (k/size, (k+1)/size]; rejects p outside
        (0, 1], NaN included.
        """
        ps = np.asarray(p, dtype=np.float64)
        if not np.all((ps > 0.0) & (ps <= 1.0)):
            raise MeasureError("idf argument must lie in (0, 1]")
        idx = np.ceil(ps * self.size).astype(np.int64) - 1
        idx = np.clip(idx, 0, self.size - 1)
        out = self.points[idx]
        return out if out.ndim else float(out)

    def family_moments(self, r_max: int, q: float) -> np.ndarray:
        """Means of X_{0,q}..X_{r_max,q} over the atoms (q = 1 gives Y_r)."""
        return xrq_from_x(eval_X_table(r_max, self.points), q).mean(axis=1)


def spectral_measure(g: MultiGraph,
                     color: ColorAssignment | None = None) -> DiscreteSpectralMeasure:
    """Atoms at q^{-1/2} * eigenvalues of the adjacency matrix, or of the
    colored block adjacency when ``color`` is given (an uncolored graph is
    the coloring by 1 x 1 identity blocks)."""
    d = _require_regular(g)
    q = d - 1
    eigs = eigenvalues_symmetric(
        adjacency(g) if color is None else colored_adjacency(g, color))
    return DiscreteSpectralMeasure(points=eigs / math.sqrt(q), q=float(q))


def cycle_spectral_measure(m: int) -> DiscreteSpectralMeasure:
    """Closed-form spectral measure of the m-cycle: atoms 2 cos(2 pi k / m)."""
    if m < 3:
        raise MeasureError(f"cycle needs at least 3 vertices, got {m}")
    k = np.arange(m)
    return DiscreteSpectralMeasure(points=2.0 * np.cos(2.0 * np.pi * k / m), q=1.0)

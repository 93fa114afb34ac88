"""p-Wasserstein distances between spectral measures and reference laws.

On the real line W_p is the L^p[0, 1] norm of the difference of generalized
inverse distribution functions.  Between two discrete measures it is summed
exactly over the merged breakpoints.  Against a law the engine works in the
law's angle x = -2 cos(phi), where u = F(x) has the bounded, smooth derivative
w(phi) = density * 2 sin(phi) (``ReferenceLaw.angle_weight``):

* discrete vs law: for sorted atoms x_k, k < m,
  W_p^p = sum_k int_{phi_k}^{phi_{k+1}} |-2 cos(phi) - x_k|^p w(phi) dphi,
  with phi_k the law's angle quantile at k/m (phi_0 = 0, phi_m = pi).  Each
  piece is cut into ceil(256 / m) equal panels and at its |.|^p kink, the
  closed-form angle arccos(-x_k / 2) clipped into it, and each panel gets
  32-node Gauss-Legendre; the integrand is smooth in phi up to both ends, so
  nothing is graded.  W_inf is the largest |-2 cos(phi_j) - x_k| over the
  ends j = k, k + 1 of the pieces.
* law vs law: 256 such panels on [0, pi/2], which carries half the integral
  since both laws are symmetric, in the angle of a law other than the arcsine
  law: its CDF F_a vanishes like phi^3, so the other law's angle quantile at
  F_a(phi) stays smooth at both ends.  W_inf is the maximum over the nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .laws import ReferenceLaw
from .measures import DiscreteSpectralMeasure

_PANEL_GL = 32
_TARGET_PANELS = 256


class WassersteinError(ValueError):
    """Invalid distance computation input."""


@lru_cache(maxsize=4)
def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _validate_p(p) -> float:
    if p == math.inf:
        return math.inf
    pf = float(p)
    if not math.isfinite(pf) or pf < 1.0:
        raise WassersteinError(f"order p must be >= 1 or infinity, got {p!r}")
    return pf


def _discrete_discrete(a: DiscreteSpectralMeasure, b: DiscreteSpectralMeasure, p):
    edges = np.union1d(np.arange(1, a.size) / a.size, np.arange(1, b.size) / b.size)
    edges = np.concatenate(([0.0], edges, [1.0]))
    mids = (edges[:-1] + edges[1:]) / 2.0
    diff = np.abs(np.asarray(a.idf(mids)) - np.asarray(b.idf(mids)))
    if p == math.inf:
        return float(diff.max())
    return float((np.sum(diff ** p * np.diff(edges))) ** (1.0 / p))


def _discrete_law(mu: DiscreteSpectralMeasure, law: ReferenceLaw, p):
    m = mu.size
    phi = np.concatenate(([0.0], law.angle_quantile(np.arange(1, m) / m), [np.pi]))
    if p == math.inf:
        ends = -2.0 * np.cos(phi)
        return float(max(np.abs(ends[:-1] - mu.points).max(),
                         np.abs(ends[1:] - mu.points).max()))
    splits = max(1, -(-_TARGET_PANELS // m))
    kink = np.arccos(np.clip(-mu.points / 2.0, -1.0, 1.0))
    edges = np.sort(np.column_stack([
        np.linspace(phi[:-1], phi[1:], splits + 1, axis=1),
        np.clip(kink, phi[:-1], phi[1:])]), axis=1)
    widths = np.diff(edges, axis=1)
    nodes01, w01 = _gl01(_PANEL_GL)
    t = edges[:, :-1, None] + widths[:, :, None] * nodes01
    vals = np.abs(-2.0 * np.cos(t) - mu.points[:, None, None]) ** p * law.angle_weight(t)
    return float(((vals @ w01) * widths).sum() ** (1.0 / p))


def _law_law(a: ReferenceLaw, b: ReferenceLaw, p):
    if a.kind == "arcsine":
        a, b = b, a
    width = np.pi / 2.0 / _TARGET_PANELS
    nodes01, w01 = _gl01(_PANEL_GL)
    phi = (np.arange(_TARGET_PANELS)[:, None] + nodes01) * width
    other = b.angle_quantile(a.cdf(-2.0 * np.cos(phi)))
    diff = 2.0 * np.abs(np.cos(other) - np.cos(phi))
    if p == math.inf:
        return float(diff.max())
    total = 2.0 * width * ((diff ** p * a.angle_weight(phi)) @ w01).sum()
    return float(total ** (1.0 / p))


def wasserstein_p(a, b, p) -> float:
    """W_p distance between discrete measures and/or reference laws.

    ``p`` may be any real >= 1 or ``math.inf``.
    """
    p = _validate_p(p)
    a_disc = isinstance(a, DiscreteSpectralMeasure)
    b_disc = isinstance(b, DiscreteSpectralMeasure)
    a_law = isinstance(a, ReferenceLaw)
    b_law = isinstance(b, ReferenceLaw)
    if not (a_disc or a_law) or not (b_disc or b_law):
        raise WassersteinError(
            "arguments must be DiscreteSpectralMeasure or ReferenceLaw instances")
    if a_disc and b_disc:
        return _discrete_discrete(a, b, p)
    if a_disc and b_law:
        return _discrete_law(a, b, p)
    if a_law and b_disc:
        return _discrete_law(b, a, p)
    return _law_law(a, b, p)

"""p-Wasserstein distances between spectral measures and reference laws.

On the real line W_p is the L^p[0, 1] norm of the difference of generalized
inverse distribution functions (Bobkov & Ledoux, Mem. AMS 261, 2019).
Between two discrete measures it is summed exactly over the merged
breakpoints.  Against a law the engine works in the law's angle
x = -2 cos(phi).  For a measure with m sorted atoms x_k, piece k is the law
between its quantiles at k/m and (k+1)/m, the angles phi_k and phi_{k+1}
(phi_0 = 0, phi_m = pi).  These angles, and the law's F, M1 = int t dF and
M2 = int t^2 dF up to them (``ReferenceLaw._angle_moments``), depend only on
(law, m): they form one read-only grid, built once per (law, m) and shared
by every order p and every measure of that size.

* p = 2: W_2^2 = sum_k [dM2 - 2 x_k dM1 + x_k^2 dF] over the pieces.
* p = 1: each piece splits at its atom's angle arccos(-x_k / 2), clipped into
  the piece; below it the piece gives x_k dF - dM1, above it dM1 - x_k dF.
* p = inf: the largest |-2 cos(phi_j) - x_k| over the ends j = k, k + 1.
* any other finite p: int |-2 cos(phi) - x_k|^p dF over each piece by
  quadrature in the angle, where dF = w(phi) dphi with the bounded, smooth
  weight w = ``ReferenceLaw.angle_weight``.  Each piece is cut into
  ceil(256 / m) equal panels and at its |.|^p kink, the atom's angle clipped
  into it, and each panel gets 32-node Gauss-Legendre.

The closed forms combine O(1) moments, so they carry an absolute rounding
floor rather than a relative one: below one ulp per atom in W_1 and a few
ulps in W_2^2.  It shows only for measures within about 1/m of the law,
where W_p itself is about 1/m.

Law vs law: 256 panels of 32-node Gauss-Legendre on [0, pi/2], which carries
half the integral since both laws are symmetric, in the angle of a law other
than the arcsine law: its CDF F_a vanishes like phi^3, so the other law's
angle quantile at F_a(phi) stays smooth at both ends.  W_inf is the maximum
over the nodes.
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


@lru_cache(maxsize=32)
def _quantile_grid(law: ReferenceLaw, m: int) -> tuple[np.ndarray, ...]:
    """The angles phi_0..phi_m of the law's quantiles at k/m, and F, M1 and
    M2 there; read-only, since every caller with this (law, m) shares them."""
    phi = np.concatenate(([0.0], law.angle_quantile(np.arange(1, m) / m), [np.pi]))
    grid = (phi, *law._angle_moments(phi))
    for arr in grid:
        arr.setflags(write=False)
    return grid


def _discrete_law(mu: DiscreteSpectralMeasure, law: ReferenceLaw, p):
    phi, cdf, m1, m2 = _quantile_grid(law, mu.size)
    x = mu.points
    if p == math.inf:
        ends = -2.0 * np.cos(phi)
        return float(max(np.abs(ends[:-1] - x).max(), np.abs(ends[1:] - x).max()))
    if p == 2.0:
        pieces = np.diff(m2) - 2.0 * x * np.diff(m1) + x * x * np.diff(cdf)
        return math.sqrt(max(math.fsum(pieces), 0.0))
    if p == 1.0:
        kink = np.clip(np.arccos(np.clip(-x / 2.0, -1.0, 1.0)), phi[:-1], phi[1:])
        cdf_k, m1_k, _ = law._angle_moments(kink)
        below = x * (cdf_k - cdf[:-1]) - (m1_k - m1[:-1])
        above = (m1[1:] - m1_k) - x * (cdf[1:] - cdf_k)
        return math.fsum(np.concatenate((below, above)))
    return _angle_quadrature(mu, law, p)


def _angle_quadrature(mu: DiscreteSpectralMeasure, law: ReferenceLaw, p) -> float:
    """W_p by Gauss-Legendre in the angle over each piece; any finite p."""
    m = mu.size
    phi = _quantile_grid(law, m)[0]
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

"""Independent oracles for the closed-form law engine.

* CDFs, moments and the orthogonality Gram matrix against composite
  Gauss-Legendre quadrature in the angle variable x = -2 cos(t), with the
  angle weights written out here from the textbook densities;
* the IDF against bisection on the CDF to machine precision;
* the partial moments int t dF and int t^2 dF against scipy's adaptive
  quadrature;
* W_1 to a law against int |F_mu - F| dx, whose pieces between atoms and
  crossings are elementary;
* W_2 to a law against partial moments of the law between its quantiles at
  k/m, which are elementary in the angle;
* the Kesten-McKay density near x = +-2 against exact rationals, and the
  semicircle against its elementary forms.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from nbspectra.chebyshev import ExactPolynomial, poly_X, poly_Xrq
from nbspectra.multigraph import complete_graph
from nbspectra.random_models import RngStream, sample_lift, sample_regular_graph
from nbspectra.spectra import (DiscreteSpectralMeasure, LawError, arcsine,
                               kesten_mckay, orthogonality_check, semicircle,
                               spectral_measure, wasserstein_p)
from nbspectra.spectra.laws import (_ATAN_SERIES_BELOW, _ATAN_SERIES_TERMS, IDF_TOL,
                                   _atan_remainder)
from nbspectra.spectra.wasserstein import _angle_quadrature

KM_Q = (1.5, 2.0, 3.0, 7.0, 50.0)
LAWS = [semicircle(), arcsine()] + [kesten_mckay(q) for q in KM_Q]
LAW_IDS = [repr(law) for law in LAWS]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANELS = 256


def angle_weight(law, t):
    """density(-2 cos t) * 2 sin t, simplified by hand for each law."""
    s, c = np.sin(t), np.cos(t)
    if law.kind == "semicircle":
        return 2.0 * s * s / np.pi
    if law.kind == "arcsine":
        return np.full_like(t, 1.0 / np.pi)
    q = law.q
    return 2.0 * q * (q + 1.0) * s * s / (np.pi * ((q + 1.0) ** 2 - 4.0 * q * c * c))


def angle_integral(law, fn, upper):
    """int_0^upper fn(-2 cos t) angle_weight(t) dt for each entry of ``upper``,
    by 20-node Gauss-Legendre on 256 equal panels."""
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    edges = np.linspace(0.0, 1.0, _PANELS + 1)
    width = 1.0 / _PANELS
    unit = (edges[:-1, None] + width * (_GL_NODES[None, :] + 1.0) / 2.0).ravel()
    weights = np.tile(_GL_WEIGHTS * width / 2.0, _PANELS)
    t = upper[:, None] * unit[None, :]
    vals = fn(-2.0 * np.cos(t)) * angle_weight(law, t)
    return (vals @ weights) * upper


def bisect_idf(law, ps):
    """Smallest x with cdf(x) >= p, by 200 bisection halvings of [-2, 2]."""
    ps = np.asarray(ps, dtype=np.float64)
    lo, hi = np.full_like(ps, -2.0), np.full_like(ps, 2.0)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        up = np.asarray(law.cdf(mid)) >= ps
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return hi


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_angle_weight_matches_density(law):
    t = np.linspace(0.05, math.pi - 0.05, 41)
    expect = np.asarray(law.density(-2.0 * np.cos(t))) * 2.0 * np.sin(t)
    assert np.allclose(angle_weight(law, t), expect, rtol=1e-12, atol=0.0)
    assert np.allclose(law.angle_weight(t), angle_weight(law, t), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_cdf_matches_quadrature(law):
    xs = np.concatenate([np.linspace(-2.0, 2.0, 201),
                         [-2.0 + 1e-9, -1.999999, 1.999999, 2.0 - 1e-9]])
    oracle = angle_integral(law, np.ones_like, np.arccos(-xs / 2.0))
    assert np.abs(np.asarray(law.cdf(xs)) - oracle).max() <= 1e-13
    assert law.cdf(-2.5) == 0.0 and law.cdf(2.5) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_moments_match_quadrature(law):
    polys = ([ExactPolynomial((0,) * k + (1,)) for k in range(11)]
             + [poly_X(r) for r in range(13)] + [poly_Xrq(r, 1) for r in range(1, 9)]
             + [poly_X(3) * poly_Xrq(5, 1), ExactPolynomial((2, -1, 0, 3))])
    for poly in polys:
        coeffs = np.array(poly.coeffs, dtype=float)
        oracle = float(angle_integral(law, lambda x: polyval(x, coeffs), math.pi)[0])
        assert law.moment(poly) == pytest.approx(oracle, rel=1e-12, abs=1e-13), poly
    assert law.moment(ExactPolynomial(())) == 0.0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_orthogonality_gram_matches_quadrature(q):
    law = kesten_mckay(float(q))
    n_max = 8
    family = [poly_Xrq(n, q) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n, n_max + 1):
            prod = family[n] * family[m]
            coeffs = np.array(prod.coeffs, dtype=float)
            oracle = float(angle_integral(law, lambda x: polyval(x, coeffs), math.pi)[0])
            expect = (0.0 if n != m else 1.0 if n == 0 else 1.0 + 1.0 / q)
            assert oracle == pytest.approx(expect, abs=1e-12), (n, m)
            assert law.moment(prod) == pytest.approx(oracle, abs=1e-12), (n, m)
    assert orthogonality_check(float(q), 12) <= 1e-13


IDF_GRID = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.01, 0.99, 99),
                           [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]])


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_idf_matches_bisection_oracle(law):
    got = np.asarray(law.idf(IDF_GRID))
    oracle = bisect_idf(law, IDF_GRID)
    assert np.abs(got - oracle).max() <= IDF_TOL
    assert (np.diff(got) >= 0.0).all()
    from_angle = -2.0 * np.cos(law.angle_quantile(IDF_GRID))
    assert np.abs(from_angle - oracle).max() <= IDF_TOL


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_idf_where_the_cdf_cancels_to_noise(law):
    # p ~ 1e-24 puts phi near 1e-8, where phi - sin(phi) cos(phi) has no digits
    # left; the Newton steps in phi stay at noise size while x has converged.
    ps = np.linspace(1e-24, 1.1e-24, 200)
    assert np.abs(np.asarray(law.idf(ps)) - bisect_idf(law, ps)).max() <= IDF_TOL


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_idf_is_exactly_antisymmetric(law):
    ps = np.concatenate([np.arange(1, 1024) / 1024.0, [2.0 ** -40]])
    assert np.array_equal(np.asarray(law.idf(ps)), -np.asarray(law.idf(1.0 - ps)))
    assert law.idf(0.5) == 0.0


def test_idf_scalar_and_invalid_input():
    law = kesten_mckay(3.0)
    assert isinstance(law.idf(0.3), float)
    assert np.asarray(law.idf([[0.2, 0.7]])).shape == (1, 2)
    for bad in (0.0, 1.0, -0.5, 1.5, math.nan, [0.5, 1.0]):
        with pytest.raises(LawError):
            law.idf(bad)



def test_kesten_mckay_rejects_non_finite_q():
    for bad in (math.inf, math.nan, 1.0, 0.5, None):
        with pytest.raises(LawError):
            kesten_mckay(bad)


@pytest.mark.parametrize("q", [1e308, sys.float_info.max])
def test_kesten_mckay_at_huge_q_is_the_semicircle(q):
    law, sc = kesten_mckay(q), semicircle()
    xs = np.linspace(-2.0, 2.0, 401)
    assert np.abs(np.asarray(law.density(xs)) - np.asarray(sc.density(xs))).max() <= 1e-15
    assert np.abs(np.asarray(law.cdf(xs)) - np.asarray(sc.cdf(xs))).max() <= 1e-15
    got = np.asarray(law.idf(IDF_GRID))
    assert np.abs(got - np.asarray(sc.idf(IDF_GRID))).max() <= 2 * IDF_TOL

def partial_mean(law, x):
    """int_{-2}^x t dF(t): elementary in s = sin(phi), x = -2 cos(phi)."""
    s = np.sin(np.arccos(np.clip(-np.asarray(x) / 2.0, -1.0, 1.0)))
    if law.kind == "semicircle":
        return -4.0 * s ** 3 / (3.0 * np.pi)
    if law.kind == "arcsine":
        return -2.0 * s / np.pi
    q = law.q
    root = math.sqrt(q)
    return -(q + 1.0) / np.pi * (s - (q - 1.0) / (2.0 * root)
                                 * np.arctan(2.0 * root * s / (q - 1.0)))


def cdf_integral(law, x):
    """int_{-inf}^x F(t) dt = x F(x) - int_{-2}^x t dF(t) on [-2, 2]."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, -2.0, 2.0)
    return xc * np.asarray(law.cdf(xc)) - partial_mean(law, xc) + np.maximum(x - 2.0, 0.0)


def w1_oracle(points, law):
    """int |F_mu - F| dx, exact on each piece between atoms and crossings."""
    atoms = np.sort(np.asarray(points, dtype=np.float64))
    levels = np.arange(1, atoms.size) / atoms.size
    knots = np.unique(np.concatenate([atoms, [-2.0, 2.0], bisect_idf(law, levels)]))
    a, b = knots[:-1], knots[1:]
    c = np.searchsorted(atoms, (a + b) / 2.0, side="right") / atoms.size
    pieces = c * (b - a) - (cdf_integral(law, b) - cdf_integral(law, a))
    return math.fsum(np.abs(pieces))


def test_w1_oracle_closed_forms():
    assert w1_oracle([0.0], semicircle()) == pytest.approx(8 / (3 * math.pi), abs=1e-14)
    assert w1_oracle([0.0], arcsine()) == pytest.approx(4 / math.pi, abs=1e-14)
    for law in LAWS:
        assert cdf_integral(law, 2.0) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_w1_matches_cdf_difference_oracle(law):
    rng = np.random.default_rng(404)
    measures = [rng.uniform(-2.5, 2.5, size=rng.integers(1, 40)) for _ in range(8)]
    measures.append(rng.uniform(-1.0, 1.0, size=200))
    if law.kind == "kesten-mckay" and law.q == 2.0:
        _, lifted = sample_lift(complete_graph(4), 32, RngStream(8))
        measures.append(spectral_measure(lifted).points)
    for points in measures:
        got = wasserstein_p(DiscreteSpectralMeasure(points), law, 1)
        assert got == pytest.approx(w1_oracle(points, law), abs=1e-12)


def partial_square(law, x):
    """int_{-2}^x t^2 dF(t): elementary in phi, x = -2 cos(phi)."""
    phi = np.arccos(np.clip(-np.asarray(x) / 2.0, -1.0, 1.0))
    sc = np.sin(phi) * np.cos(phi)
    if law.kind == "semicircle":
        return (phi - np.sin(4.0 * phi) / 4.0) / np.pi
    if law.kind == "arcsine":
        return 2.0 * (phi + sc) / np.pi
    q = law.q
    return (q + 2.0 + 1.0 / q) * np.asarray(law.cdf(x)) - (q + 1.0) * (phi - sc) / np.pi


def w2_oracle(points, law):
    """W_2 from the partial moments of the law between its quantiles at k/m:
    W_2^2 = sum_k [dM2 - 2 x_k dM1 + x_k^2 dM0] over the sorted atoms x_k."""
    atoms = np.sort(np.asarray(points, dtype=np.float64))
    m = atoms.size
    knots = np.concatenate([[-2.0], bisect_idf(law, np.arange(1, m) / m), [2.0]])
    d0, d1, d2 = (np.diff(np.asarray(v)) for v in
                  (law.cdf(knots), partial_mean(law, knots), partial_square(law, knots)))
    return math.sqrt(math.fsum(d2 - 2.0 * atoms * d1 + atoms * atoms * d0))


def test_w2_oracle_closed_forms():
    assert w2_oracle([0.0], semicircle()) == pytest.approx(1.0, abs=1e-15)
    assert w2_oracle([0.0], arcsine()) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    for q in KM_Q:  # int x^2 dmu_q = 1 + 1/q
        assert w2_oracle([0.0], kesten_mckay(q)) == pytest.approx(
            math.sqrt(1.0 + 1.0 / q), abs=1e-14)


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_w2_matches_partial_moment_oracle(law):
    rng = np.random.default_rng(405)
    measures = [rng.uniform(-2.5, 2.5, size=rng.integers(1, 40)) for _ in range(8)]
    measures.append(rng.uniform(-1.0, 1.0, size=200))
    if law.kind == "kesten-mckay" and law.q == 2.0:
        _, lifted = sample_lift(complete_graph(4), 128, RngStream(8))
        measures.append(spectral_measure(lifted).points)
    if law.kind == "semicircle":
        measures.append(spectral_measure(sample_regular_graph(1024, 6, RngStream(9))).points)
    for points in measures:
        got = wasserstein_p(DiscreteSpectralMeasure(points), law, 2)
        assert got == pytest.approx(w2_oracle(points, law), abs=1e-12)


def stable_angle_weight(law, t):
    """angle_weight with the Kesten-McKay denominator (q + 1)^2 - 4 q cos^2 t
    written as (q - 1)^2 + 4 q sin^2 t, which keeps its digits near t = 0, pi
    as q -> 1."""
    s = math.sin(t)
    if law.kind == "semicircle":
        return 2.0 * s * s / math.pi
    if law.kind == "arcsine":
        return 1.0 / math.pi
    q = law.q
    return 2.0 * q * (q + 1.0) * s * s / (math.pi * ((q - 1.0) ** 2 + 4.0 * q * s * s))


def quad_angle_moments(law, upper):
    """int_0^upper (-2 cos t)^j w(t) dt for j = 0, 1, 2 by scipy's adaptive
    quadrature, cut where the Kesten-McKay weight turns over near t = 0, pi:
    a feature (sqrt(q) - 1/sqrt(q)) / 2 wide."""
    width = 1.0 if law.q is None else min(1.0, (math.sqrt(law.q) - 1.0 / math.sqrt(law.q)) / 2.0)
    cuts = sorted({c for w in (width / 10.0, width, 10.0 * width) for c in (w, math.pi - w)
                   if 0.0 < c < upper})
    ends = [0.0] + cuts + [upper]
    return [math.fsum(quad(lambda t: (-2.0 * math.cos(t)) ** j * stable_angle_weight(law, t),
                           a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                      for a, b in zip(ends, ends[1:]))
            for j in (0, 1, 2)]


MOMENT_LAWS = [semicircle(), arcsine()] + [kesten_mckay(q) for q in (1.0001, 2.0, 50.0, 1e6, 1e12)]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("law", MOMENT_LAWS, ids=[repr(law) for law in MOMENT_LAWS])
def test_angle_moments_match_adaptive_quadrature(law):
    upper = np.array([1e-3, 0.05, 0.7, 1.5, 2.2, 3.1, math.pi])
    got = law._angle_moments(upper)
    for i, u in enumerate(upper):
        expect = quad_angle_moments(law, u)
        for j in range(3):
            assert got[j][i] == pytest.approx(expect[j], abs=1e-14), (u, j)


@pytest.mark.parametrize("q", [1.0001, 1.01])
def test_wp_near_the_arcsine_end_matches_oracles(q):
    # The Kesten-McKay angle weight turns over within (sqrt(q) - 1/sqrt(q)) / 2
    # of phi = 0 and pi; the closed forms need no resolution there.
    law = kesten_mckay(q)
    rng = np.random.default_rng(406)
    measures = [np.array([0.0]), np.array([-1.9999, 2.0])]
    measures += [rng.uniform(-2.5, 2.5, size=rng.integers(1, 40)) for _ in range(6)]
    for points in measures:
        mu = DiscreteSpectralMeasure(points)
        assert wasserstein_p(mu, law, 1) == pytest.approx(w1_oracle(points, law), abs=1e-12)
        assert wasserstein_p(mu, law, 2) == pytest.approx(w2_oracle(points, law), abs=1e-12)


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_closed_form_matches_angle_quadrature(law):
    # the W_1 and W_2 test measures above, against the quadrature kept for
    # other orders p
    measures = []
    for seed in (404, 405):
        rng = np.random.default_rng(seed)
        measures += [rng.uniform(-2.5, 2.5, size=rng.integers(1, 40)) for _ in range(8)]
        measures.append(rng.uniform(-1.0, 1.0, size=200))
    if law.kind == "kesten-mckay" and law.q == 2.0:
        for fold in (32, 128):
            measures.append(spectral_measure(sample_lift(complete_graph(4), fold, RngStream(8))[1]).points)
    if law.kind == "semicircle":
        measures.append(spectral_measure(sample_regular_graph(1024, 6, RngStream(9))).points)
    for points in measures:
        mu = DiscreteSpectralMeasure(points)
        for p in (1, 2):
            assert wasserstein_p(mu, law, p) == pytest.approx(
                _angle_quadrature(mu, law, p), rel=1e-11, abs=0.0), (points.size, p)


def exact_km_density(q, x):
    """(q + 1) q / ((q - 1)^2 + q (4 - x^2)) in exact rationals, times
    sqrt(4 - x^2) / (2 pi)."""
    qf, xf = Fraction(q), Fraction(x)
    rho2 = 4 - xf * xf
    return float((qf + 1) * qf / ((qf - 1) ** 2 + qf * rho2)) * math.sqrt(rho2) / (2.0 * math.pi)


@pytest.mark.parametrize("x", [2.0 - 1e-10, -(2.0 - 1e-10), 1.99999, -1.99999])
@pytest.mark.parametrize("q", [1.0001, 2.0])
def test_density_near_the_edges_matches_exact_rationals(q, x):
    assert kesten_mckay(q).density(x) == pytest.approx(exact_km_density(q, x), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q, phis", [(1.0 + 1e-12, [0.0, 1e-9, 1e-7]),
                                     (1.0001, [1e-7, 1e-6, 1e-5]),
                                     (1.000001, [1e-7, 1e-6, 1e-5])])
def test_angle_weight_near_the_arcsine_end_keeps_its_digits(q, phis):
    law = kesten_mckay(q)
    expect = [stable_angle_weight(law, t) for t in phis]
    assert law.angle_weight(np.array(phis)) == pytest.approx(expect, rel=1e-14, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_nan_or_warning_just_above_q_one():
    assert np.array_equal(kesten_mckay(1.0 + 1e-9).density([-2.0, 2.0]), [0.0, 0.0])
    assert math.isfinite(kesten_mckay(1.0 + 1e-12).idf(1e-300))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_atan_remainder_does_not_overflow_on_large_arguments():
    z = np.array([1e11, 1e13, 1e16])
    assert _atan_remainder(z) == pytest.approx((z - np.arctan(z)) / z ** 3, rel=1e-15, abs=0.0)
    mu = DiscreteSpectralMeasure(np.array([-1.0, 0.0, 1.5]))
    assert math.isfinite(wasserstein_p(mu, kesten_mckay(1.0 + 1e-12), 1))



def _atan_remainder_by_series_everywhere(z: np.ndarray) -> np.ndarray:
    """_atan_remainder without its shortcuts: the series runs on every call."""
    near = np.abs(z) < _ATAN_SERIES_BELOW
    far, z2 = np.where(near, 1.0, z), np.where(near, z, 0.0) ** 2
    series = np.zeros_like(z)
    for k in range(_ATAN_SERIES_TERMS - 1, -1, -1):
        series = (-1.0) ** k / (2 * k + 3) + z2 * series
    return np.where(near, series, (far - np.arctan(far)) / far ** 3)


@pytest.mark.parametrize("z", [np.zeros(33), np.array([-0.0, 0.0]), np.zeros(0),
                               np.linspace(0.3, 40.0, 33), np.array([-1e16, -0.25, 0.25]),
                               np.linspace(-0.5, 0.5, 33), np.array([0.0, 1e-9, 2.0])],
                         ids=["zeros", "signed-zeros", "empty", "far", "far-edges",
                              "mixed", "zero-and-near"])
def test_atan_remainder_shortcuts_are_bit_identical(z):
    got, want = _atan_remainder(z), _atan_remainder_by_series_everywhere(z)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

def test_semicircle_is_the_b_zero_member():
    law = semicircle()
    phi = np.linspace(0.0, math.pi, 10001)
    x, s = -2.0 * np.cos(phi), np.sin(phi)
    cdf, m1, m2 = law._angle_moments(phi)
    for got, expect in [(law.density(x), np.sqrt((2.0 - x) * (2.0 + x)) / (2.0 * math.pi)),
                        (law.angle_weight(phi), 2.0 * s * s / math.pi),
                        (cdf, (phi - s * np.cos(phi)) / math.pi),
                        (m1, -4.0 * s ** 3 / (3.0 * math.pi)),
                        (m2, (phi - np.sin(4.0 * phi) / 4.0) / math.pi)]:
        assert np.abs(got - expect).max() <= 1e-15

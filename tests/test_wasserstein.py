"""Wasserstein engine: metric axioms, closed forms, and cross-oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance as scipy_w1

from nbspectra.multigraph import complete_graph
from nbspectra.random_models import RngStream, haar_unitary_color, sample_lift
from nbspectra.spectra import (DiscreteSpectralMeasure, WassersteinError,
                               arcsine, cycle_spectral_measure, kesten_mckay,
                               semicircle, spectral_measure, wasserstein_p)
from nbspectra.spectra.wasserstein import _angle_quadrature, _quantile_grid

INF = math.inf


def random_measure(rng, max_size=12) -> DiscreteSpectralMeasure:
    size = rng.integers(1, max_size + 1)
    return DiscreteSpectralMeasure(rng.uniform(-2.5, 2.5, size=size))


def test_point_mass_distances():
    d0 = DiscreteSpectralMeasure(np.array([0.0]))
    d1 = DiscreteSpectralMeasure(np.array([1.0]))
    for p in (1, 1.5, 2, 3, INF):
        assert wasserstein_p(d0, d1, p) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein_p(d0, d0, 2) == 0.0


def test_identity_of_indiscernibles_discrete():
    mu = cycle_spectral_measure(9)
    for p in (1, 2, INF):
        assert wasserstein_p(mu, mu, p) == 0.0


def test_invalid_p_rejected():
    mu = cycle_spectral_measure(5)
    for bad in (0.5, 0, -1, math.nan):
        with pytest.raises(WassersteinError):
            wasserstein_p(mu, mu, bad)
    with pytest.raises(WassersteinError):
        wasserstein_p(mu, np.array([1.0]), 1)


def test_symmetry_discrete_and_law():
    rng = np.random.default_rng(5)
    sc = semicircle()
    for _ in range(10):
        a, b = random_measure(rng), random_measure(rng)
        for p in (1, 2, INF):
            assert wasserstein_p(a, b, p) == pytest.approx(
                wasserstein_p(b, a, p), rel=1e-12, abs=1e-14)
        assert wasserstein_p(a, sc, 2) == pytest.approx(
            wasserstein_p(sc, a, 2), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("law", [semicircle(), kesten_mckay(3.0)], ids=repr)
def test_law_law_distance_is_symmetric_with_the_arcsine_law(law):
    # the law-law engine integrates in the angle of the law that is not the
    # arcsine law, so the arcsine law is swapped to the second place
    for p in (1, 2, 3, INF):
        assert wasserstein_p(arcsine(), law, p) == wasserstein_p(law, arcsine(), p)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = (random_measure(rng) for _ in range(3))
        for p in (1, 2, INF):
            ab = wasserstein_p(a, b, p)
            bc = wasserstein_p(b, c, p)
            ac = wasserstein_p(a, c, p)
            assert ac <= ab + bc + 1e-9


def test_monotone_in_p():
    rng = np.random.default_rng(13)
    sc = semicircle()
    orders = [1.0, 1.5, 2.0, 3.0, 6.0]
    for _ in range(15):
        a, b = random_measure(rng), random_measure(rng)
        vals = [wasserstein_p(a, b, p) for p in orders]
        vals.append(wasserstein_p(a, b, INF))
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-12
    fixed = random_measure(rng)
    vals = [wasserstein_p(fixed, sc, p) for p in orders]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-7


def _engine_cases():
    """One pair per engine, and W_3, W_4, W_8 as the direct |diff|^p sum gave them."""
    k4 = complete_graph(4)
    _, lifted = sample_lift(k4, 128, RngStream(0))
    stair = DiscreteSpectralMeasure(np.linspace(-1.5, 1.5, 7))
    return {
        "lift-km": (spectral_measure(lifted), kesten_mckay(2.0),
                    (0.017429130336702004, 0.02747234068871266, 0.05956103943981007)),
        "k4-km": (spectral_measure(k4), kesten_mckay(2.0),
                  (0.9713106433037527, 1.0506247549548111, 1.2622127727882968)),
        "law-law": (kesten_mckay(1.01), semicircle(),
                    (0.4847879446065582, 0.5022860007159333, 0.5409429598401587)),
        "discrete": (stair, DiscreteSpectralMeasure([-2.0, -0.3, 0.1, 0.4, 1.9]),
                     (0.5676229254030076, 0.6155337630552129, 0.739332334701095)),
    }


@pytest.mark.parametrize("name", ["lift-km", "k4-km", "law-law", "discrete"])
def test_large_finite_p_stays_finite_and_below_w_inf(name):
    # the direct |diff|^p sum read 0 from W_400 on (lift-km) and W_2000 on
    # (law-law), and inf from W_2000 on (k4-km)
    a, b, small = _engine_cases()[name]
    for p, want in zip((3, 4, 8), small):
        assert wasserstein_p(a, b, p) == pytest.approx(want, rel=1e-13)
    large = [wasserstein_p(a, b, p) for p in (8, 400, 2000, 1e308)]
    w_inf = wasserstein_p(a, b, INF)
    assert all(math.isfinite(v) and v > 0.0 for v in large)
    assert all(lo <= hi for lo, hi in zip(large, large[1:]))
    assert large[-1] <= w_inf


def test_large_finite_p_between_shifted_measures():
    # every atom 0.5 apart: W_p = 0.5 at every p (the direct sum read 0 from W_1100)
    stair = np.linspace(-1.5, 1.5, 7)
    a, b = DiscreteSpectralMeasure(stair), DiscreteSpectralMeasure(stair + 0.5)
    for p in (3, 400, 1100, 2000, 1e308):
        assert wasserstein_p(a, b, p) == pytest.approx(0.5, rel=1e-15)
    assert wasserstein_p(a, a, 1e308) == 0.0


def test_w1_matches_scipy_on_discrete_pairs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a, b = random_measure(rng), random_measure(rng)
        expect = scipy_w1(a.points, b.points)
        assert wasserstein_p(a, b, 1) == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_point_mass_to_law_closed_forms():
    d0 = DiscreteSpectralMeasure(np.array([0.0]))
    sc, ar = semicircle(), arcsine()
    assert wasserstein_p(d0, sc, 1) == pytest.approx(8 / (3 * math.pi), abs=1e-8)
    assert wasserstein_p(d0, sc, 2) == pytest.approx(1.0, abs=1e-8)
    assert wasserstein_p(d0, ar, 1) == pytest.approx(4 / math.pi, abs=1e-8)
    assert wasserstein_p(d0, ar, 2) == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert wasserstein_p(d0, sc, INF) == pytest.approx(2.0, abs=1e-12)


def test_quantile_discretization_error_shrinks():
    sc = semicircle()
    prev = None
    for size in (8, 64, 512):
        ps = (np.arange(size) + 0.5) / size
        mu = DiscreteSpectralMeasure(np.asarray(sc.idf(ps)))
        w = wasserstein_p(mu, sc, 1)
        if prev is not None:
            assert w < prev / 3.0
        prev = w
    assert prev < 2e-3


def test_cycle_measures_approach_arcsine():
    ar = arcsine()
    for m in (10, 53, 200):
        w = wasserstein_p(cycle_spectral_measure(m), ar, INF)
        assert w <= 4.0 * math.pi / m


def test_winf_discrete_law_exactness():
    # brute-force grid supremum should never exceed the exact partition formula
    ar = arcsine()
    mu = cycle_spectral_measure(12)
    exact = wasserstein_p(mu, ar, INF)
    ps = np.linspace(1e-6, 1 - 1e-6, 40001)
    brute = np.abs(np.asarray(mu.idf(ps)) - np.asarray(ar.idf(ps))).max()
    assert brute <= exact + 1e-9
    assert exact <= brute + 1e-3


def test_km_laws_converge_to_semicircle():
    sc = semicircle()
    vals = [wasserstein_p(kesten_mckay(q), sc, INF) for q in (5, 10, 50, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    grid = np.linspace(-2, 2, 40001)
    for q, w in zip((5, 10, 50, 200), vals):
        l1 = np.trapezoid(np.abs(kesten_mckay(q).density(grid) - sc.density(grid)),
                          grid)
        assert w <= math.sqrt(2.0 * math.pi * l1) + 1e-9


def test_law_law_winf_resolves_huge_q():
    # q W_inf(KM(q), semicircle) tends to 0.7698.  The transport angles are
    # solved to 1e-15 in x: a stop at IDF_TOL would leave 3.2e-11 in x at the
    # Gauss node nearest the edge, a floor above W_inf from q = 1e11 on.  At
    # q = 1e18 only a few ulps of x near +-2 remain.
    sc = semicircle()
    for q in (1e4, 1e6, 1e9, 1e11):
        assert q * wasserstein_p(kesten_mckay(q), sc, INF) == pytest.approx(0.7698, abs=1e-4)
    assert wasserstein_p(kesten_mckay(1e18), sc, INF) <= 1e-14


def test_law_law_against_quantile_discretization():
    sc = semicircle()
    km = kesten_mckay(4.0)
    direct = wasserstein_p(km, sc, 2)
    size = 4000
    ps = (np.arange(size) + 0.5) / size
    approx = wasserstein_p(DiscreteSpectralMeasure(np.asarray(km.idf(ps))), sc, 2)
    assert direct == pytest.approx(approx, abs=2e-3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8),
       st.lists(st.floats(min_value=-2.0, max_value=2.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8))
def test_w1_hypothesis_matches_scipy(xs, ys):
    a = DiscreteSpectralMeasure(np.array(xs))
    b = DiscreteSpectralMeasure(np.array(ys))
    assert wasserstein_p(a, b, 1) == pytest.approx(
        scipy_w1(np.array(xs), np.array(ys)), rel=1e-9, abs=1e-11)


GRID_SIZES = (1, 37, 512, 4096)


@pytest.mark.parametrize("q", [1.01, 2.0, 1e6, 1e12, 1e18])
def test_closed_form_matches_angle_quadrature_across_q(q):
    law = kesten_mckay(q)
    rng = np.random.default_rng(31)
    for m in GRID_SIZES:
        for points in (rng.uniform(-2.5, 2.5, m), rng.uniform(-1.0, 1.0, m)):
            mu = DiscreteSpectralMeasure(points)
            for p in (1, 2):
                assert wasserstein_p(mu, law, p) == pytest.approx(
                    _angle_quadrature(mu, law, p), rel=1e-11, abs=0.0), (m, p)


def test_angle_quadrature_resolves_the_kesten_mckay_ends_as_q_nears_one():
    # At q = 1.0001 the angle weight turns over within about 5e-5 of phi = 0
    # and pi, far inside one of 256 equal panels; the reference is the same
    # rule on 2^18 equal panels.
    mu = DiscreteSpectralMeasure(np.array([0.0]))
    assert wasserstein_p(mu, kesten_mckay(1.0001), 3) == pytest.approx(
        1.5029682326500, rel=1e-11, abs=0.0)


def test_huge_q_kesten_mckay_distances_are_the_semicircle_ones():
    # KM(1e18) differs from the semicircle by O(1/q); the two laws share no
    # moment formula
    km, sc = kesten_mckay(1e18), semicircle()
    rng = np.random.default_rng(32)
    for m in GRID_SIZES:
        mu = DiscreteSpectralMeasure(rng.uniform(-2.5, 2.5, m))
        for p in (1, 2):
            assert wasserstein_p(mu, km, p) == pytest.approx(
                wasserstein_p(mu, sc, p), rel=1e-13, abs=0.0), (m, p)


@pytest.mark.parametrize("law", [semicircle(), arcsine(), kesten_mckay(1.003), kesten_mckay(2.0),
                                 kesten_mckay(50.0), kesten_mckay(1e12)], ids=repr)
def test_closed_form_rounding_floor_near_the_law(law):
    # Atoms at the law's own quantiles leave W_p ~ 1/m, far below the O(1)
    # moments each piece combines, so the closed forms carry an absolute
    # rounding floor instead of a relative error: one ulp per atom in W_1 and
    # 32 ulps in W_2^2 bound it, with room; on KM(q) for q from 1.001 to 1e4
    # it reached 0.41 ulps per atom (q = 50) and 8.7 ulps (q = 1.003).
    m = 4096
    ps = (np.arange(m) + 0.5) / m
    rng = np.random.default_rng(33)
    eps = np.finfo(np.float64).eps
    for points in (np.asarray(law.idf(ps)), np.asarray(law.idf(ps)) + rng.normal(0.0, 1e-3, m)):
        mu = DiscreteSpectralMeasure(points)
        assert abs(wasserstein_p(mu, law, 1) - _angle_quadrature(mu, law, 1)) <= m * eps
        assert abs(wasserstein_p(mu, law, 2) ** 2 - _angle_quadrature(mu, law, 2) ** 2) <= 32 * eps


def test_quantile_grid_is_shared_and_read_only():
    law = kesten_mckay(2.0)
    mu = DiscreteSpectralMeasure(np.random.default_rng(34).uniform(-2.5, 2.5, 64))
    first = {p: wasserstein_p(mu, law, p) for p in (1, 2, 3, INF)}
    grid = _quantile_grid(law, mu.size)
    assert _quantile_grid(kesten_mckay(2.0), mu.size) is grid
    for arr in grid:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    again = {p: wasserstein_p(mu, law, p) for p in first}
    _quantile_grid.cache_clear()
    rebuilt = {p: wasserstein_p(mu, law, p) for p in first}
    assert again == first and rebuilt == first


def test_haar_colored_complete_graphs_approach_the_semicircle_along_q():
    # K_{q+2} with Haar N x N blocks, nN ~ 256: W_p to the semicircle falls
    # along q, and the triangle inequality ties W_p(mu, SC), W_p(mu, KM(q))
    # and the law-law W_p(KM(q), SC) across the closed forms (p = 1, 2), the
    # angle quadrature (p = 4, 8) and the law-law path
    sc, to_sc = semicircle(), {}
    for q in (3, 15, 63):
        g = complete_graph(q + 2)
        mu = spectral_measure(g, haar_unitary_color(g, round(256 / g.n_vertices), RngStream(q)))
        km = kesten_mckay(float(q))
        for p in (1.0, 2.0, 4.0, 8.0):
            to_sc[q, p] = wasserstein_p(mu, sc, p)
            assert abs(to_sc[q, p] - wasserstein_p(km, sc, p)) <= wasserstein_p(mu, km, p) + 1e-12
    for p in (1.0, 2.0, 8.0):
        assert to_sc[3, p] > to_sc[15, p] > to_sc[63, p]

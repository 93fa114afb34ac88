"""Eigensolvers, spectral measures, reference laws, and moment identities."""

from __future__ import annotations

import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from nbspectra.chebyshev import ExactPolynomial, poly_X, poly_Xrq
from nbspectra.multigraph import (build_from_edge_list, complete_graph,
                                  cycle_graph, girth, petersen_graph)
from nbspectra.nbmatrix import adjacency
from nbspectra.random_models import RngStream, permutation_color, sample_lift
from nbspectra.spectra import (DiscreteSpectralMeasure, LawError, MeasureError,
                               ReferenceLaw, arcsine, cycle_spectral_measure,
                               eigenvalues_symmetric, kesten_mckay,
                               moment_criterion_report, orthogonality_check,
                               semicircle, spectral_measure)
from nbspectra.spectra import eigen
from nbspectra.spectra.eigen import (HERMITIAN_ATOL, SYMMETRY_RTOL, EigenError)

from conftest import cycle_idf_closed_form, trivial_color

ONE = ExactPolynomial((1,))


# -- eigensolvers ---------------------------------------------------------------

def test_symmetric_eigs_named():
    assert np.allclose(eigenvalues_symmetric(adjacency(cycle_graph(4)).astype(float)),
                       [-2.0, 0.0, 0.0, 2.0], atol=1e-9)
    assert np.allclose(eigenvalues_symmetric(adjacency(complete_graph(4)).astype(float)),
                       [-1.0, -1.0, -1.0, 3.0], atol=1e-9)
    pet = eigenvalues_symmetric(adjacency(petersen_graph()).astype(float))
    assert np.allclose(pet, [-2.0] * 4 + [1.0] * 5 + [3.0], atol=1e-9)


def test_symmetric_eigs_trace_and_residuals():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((12, 12))
    m = (m + m.T) / 2.0
    eigs = eigenvalues_symmetric(m)
    assert math.fsum(eigs) == pytest.approx(float(np.trace(m)),
                                            rel=1e-8, abs=1e-10)
    # spot-check residuals on recomputed eigenpairs
    vals, vecs = np.linalg.eigh(m)
    assert np.allclose(vals, eigs, atol=1e-10)
    for k in (0, 5, 11):
        res = np.linalg.norm(m @ vecs[:, k] - vals[k] * vecs[:, k])
        assert res <= 1e-8 * np.linalg.norm(m, 2)


def test_symmetric_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(EigenError, match="asymmetry"):
        eigenvalues_symmetric(bad)


def test_hermitian_eigs_cases():
    assert np.allclose(eigenvalues_symmetric(np.array([[0, 1j], [-1j, 0]])),
                       [-1.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(1)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (m + m.conj().T) / 2.0
    eigs = eigenvalues_symmetric(h)
    assert math.fsum(eigs) == pytest.approx(float(np.trace(h).real), abs=1e-8)
    assert math.fsum(e * e for e in eigs) == pytest.approx(
        float(np.sum(np.abs(h) ** 2)), rel=1e-8)
    # oracle: [[X, -Y], [Y, X]] carries the spectrum of X + iY, each doubled
    doubled = eigenvalues_symmetric(np.block([[h.real, -h.imag], [h.imag, h.real]]))
    assert np.abs(doubled[0::2] - eigs).max() <= 1e-12
    assert np.abs(doubled[1::2] - eigs).max() <= 1e-12
    # a real symmetric matrix gives the same spectrum as real or complex input
    s = (rng.standard_normal((6, 6)))
    s = (s + s.T) / 2.0
    assert np.allclose(eigenvalues_symmetric(s.astype(complex)),
                       eigenvalues_symmetric(s), atol=1e-9)


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(EigenError):
        eigenvalues_symmetric(np.array([[0.0, 1j], [1j, 0.0]]))


@pytest.mark.parametrize("m, real_ok, complex_ok", [
    # deviation 1e-9 at scale 1: past both rules
    (np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]), False, False),
    # deviation 1e-9 at scale 1e3: within the relative rule, past the absolute one
    (np.array([[0.0, 1e3], [1e3 + 1e-9, 0.0]]), True, False),
    # deviation 1e-12 at scale 2e-12: past the relative rule, within the absolute one
    (np.array([[0.0, 1e-12], [2e-12, 0.0]]), False, True),
], ids=["past-both", "within-relative-only", "within-absolute-only"])
def test_asymmetry_rule_follows_the_dtype(m, real_ok, complex_ok):
    # real input keeps the relative SYMMETRY_RTOL rule, complex input the
    # absolute HERMITIAN_ATOL rule, so one entry point changes no verdict
    for dtype, ok in ((np.float64, real_ok), (np.complex128, complex_ok)):
        if ok:
            assert eigenvalues_symmetric(m.astype(dtype)).shape == (2,)
        else:
            with pytest.raises(EigenError):
                eigenvalues_symmetric(m.astype(dtype))


def _full_scan_verdict(m: np.ndarray) -> str | None:
    """The symmetry check as a scan of the whole matrix against its mirror:
    None to accept, else the rejection message."""
    if not np.isfinite(m).all():
        return "matrix has non-finite (NaN or inf) entries"
    if np.iscomplexobj(m):
        dev = float(np.abs(m - m.conj().T).max(initial=0.0))
        if dev > HERMITIAN_ATOL:
            return f"matrix deviates from Hermitian by {dev:.3e}"
        return None
    scale = float(np.abs(m).max(initial=0.0))
    dev = float(np.abs(m - m.T).max(initial=0.0))
    if dev > SYMMETRY_RTOL * max(scale, 1e-300):
        return f"matrix asymmetry {dev:.3e} exceeds {SYMMETRY_RTOL:g} * max|entry|"
    return None


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_asymmetry_check_by_slabs_matches_full_scan(n, hermitian, monkeypatch):
    # one asymmetric pair (or diagonal entry) just past and just within the
    # tolerance, at the first, last and boundary rows and columns of the slabs;
    # only the verdict is checked, so the eigensolve itself is skipped
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.zeros(m.shape[0]))
    rng = np.random.default_rng(n)
    base = rng.uniform(-1.0, 1.0, (n, n))
    if hermitian:
        base = base + 1j * rng.uniform(-1.0, 1.0, (n, n))
    base = base + base.conj().T  # exactly symmetric or Hermitian
    edges = sorted({k for k in (0, 1, 62, 63, 64, 65, 127, 128, 191, 192, n - 1) if k < n})
    verdicts = set()
    for i in edges:
        for j in edges:
            if i == j and not hermitian:
                continue
            for factor in (1.001, 0.999):
                m = base.copy()
                if hermitian:
                    m[i, j] += HERMITIAN_ATOL * factor * (0.5j if i == j else 1.0)
                else:
                    m[i, j] += SYMMETRY_RTOL * np.abs(base).max() * factor
                expected = _full_scan_verdict(m)
                verdicts.add(expected is None)
                try:
                    eigenvalues_symmetric(m)
                    got = None
                except EigenError as err:
                    got = str(err)
                assert got == expected, (i, j, factor)
    assert verdicts == (set() if n == 1 and not hermitian else {True, False})
    if n > 1:
        # a NaN makes the largest deviation NaN, which a large deviation in
        # another slab does not override: the matrix is rejected as non-finite
        m = base.copy()
        m[0, 1] = np.nan
        m[n - 1, n - 2] += 1.0
        with pytest.raises(EigenError) as err:
            eigenvalues_symmetric(m)
        assert str(err.value) == _full_scan_verdict(m)


@pytest.mark.parametrize("m", [
    np.array([[np.nan, 1.0], [1.0, 0.0]]),           # NaN on the diagonal
    np.array([[0.0, np.nan], [1.0, 0.0]]),           # NaN against a finite mirror
    np.array([[np.inf, 0.0], [0.0, 1.0]]),           # inf on the diagonal
    np.array([[0.0, np.inf], [1.0, 0.0]]),           # inf within the relative rule's scale
    np.array([[np.nan, 1j], [-1j, 0.0]]),            # Hermitian with a NaN on the diagonal
], ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal",
        "hermitian-nan-diagonal"])
def test_non_finite_input_is_rejected(m):
    # these were accepted, giving [-1.414, 1.414], [-1, 1], [nan, nan],
    # [-1, 1] and [-1.414, 1.414]: a NaN deviation passes every "dev > tol"
    # test, and an inf one passes the relative rule against an inf scale
    with pytest.raises(EigenError, match="non-finite"):
        eigenvalues_symmetric(m)


@pytest.fixture
def openblas():
    """(get, set) of the thread count of numpy's OpenBLAS; skips without one."""
    threads = eigen._openblas_threads()
    if threads is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    return threads


def test_solves_up_to_order_512_run_on_one_blas_thread(openblas, monkeypatch):
    # a spy in the solve reads the count; the caller's count is back after a
    # solve of either size and after a solve that raises
    get, set_ = openblas
    caller = get()
    set_(max(caller, 2))  # a caller's count above one tells the two rules apart
    try:
        default, seen = get(), []

        def spy(m):
            seen.append(get())
            return np.zeros(len(m))

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for n in (512, 513, 1024):
            eigenvalues_symmetric(np.eye(n))
            assert get() == default
        assert seen == [1, default, default]

        def failing(m):
            seen.append(get())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(np.linalg.LinAlgError):
            eigenvalues_symmetric(np.eye(4))
        assert seen[-1] == 1 and get() == default
    finally:
        set_(caller)


def test_without_the_handle_the_solve_is_numpys(monkeypatch):
    rng = np.random.default_rng(3)
    real = rng.standard_normal((96, 96))
    herm = real + 1j * rng.standard_normal((96, 96))
    monkeypatch.setattr(eigen, "_openblas_threads", lambda: None)
    for m in (real + real.T, herm + herm.conj().T):
        assert np.array_equal(eigenvalues_symmetric(m), np.linalg.eigvalsh(m))


_HANDLE_LIBRARIES = """
import ctypes, json
import scipy.linalg
from nbspectra.spectra import eigen

def library(function):
    address = ctypes.cast(function, ctypes.c_void_p).value
    for line in open("/proc/self/maps"):
        span, *_, path = line.split()
        lo, hi = (int(x, 16) for x in span.split("-"))
        if lo <= address < hi:
            return path

scipy_lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
print(json.dumps([library(eigen._openblas_threads()[0]),
                  library(scipy_lib.scipy_openblas_get_num_threads)]))
"""


def test_the_handle_is_numpys_with_scipy_loaded_first(openblas):
    # scipy's LP64 OpenBLAS, loaded first, has its own thread count; the
    # handle must set the count of the ILP64 library numpy.linalg calls
    pytest.importorskip("scipy.linalg")
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to map a function to its library")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _HANDLE_LIBRARIES], env=env,
                          capture_output=True, text=True)
    if "AttributeError" in done.stderr:
        pytest.skip("scipy carries no scipy-openblas of its own")
    assert done.returncode == 0, done.stderr
    handle_lib, scipy_lib = json.loads(done.stdout)
    assert handle_lib is not None and handle_lib != scipy_lib
    assert hasattr(ctypes.CDLL(handle_lib), "scipy_openblas_get_num_threads64_")


@pytest.mark.parametrize("build, error, message", [
    (lambda: DiscreteSpectralMeasure([]), MeasureError, "at least one point"),
    (lambda: DiscreteSpectralMeasure([math.nan]), MeasureError, "must be finite"),
    (lambda: eigenvalues_symmetric(np.zeros((2, 3))), EigenError, "square matrix"),
    (lambda: ReferenceLaw("cauchy"), LawError, "unknown law kind 'cauchy'"),
    (lambda: ReferenceLaw("semicircle", 2.0), LawError, "takes no q parameter"),
], ids=["empty-measure", "nan-measure", "non-square", "unknown-law", "semicircle-with-q"])
def test_outside_input_is_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


# -- discrete measures ------------------------------------------------------------

def test_spectral_measure_named():
    mu = spectral_measure(cycle_graph(4))
    assert np.allclose(mu.points, [-2, 0, 0, 2], atol=1e-9)
    mu4 = spectral_measure(complete_graph(4))
    s2 = math.sqrt(2.0)
    assert np.allclose(mu4.points, [-1 / s2] * 3 + [3 / s2], atol=1e-9)
    assert mu4.q == 2


def test_spectral_measure_polynomial_integration_matches_trace():
    g = petersen_graph()
    mu = spectral_measure(g)
    q = 2.0
    a_norm = adjacency(g).astype(float) / math.sqrt(q)
    for poly in (poly_X(3), poly_Xrq(4, 2), poly_Xrq(5, 1)):
        coeffs = [float(c) for c in poly.coeffs]
        lhs = np.mean(polyval(mu.points, coeffs))
        mat = np.zeros_like(a_norm)
        acc = np.eye(len(a_norm))
        for c in coeffs:
            mat += c * acc
            acc = acc @ a_norm
        rhs = float(np.trace(mat)) / g.n_vertices
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_spectral_measure_support_bound():
    for g, q in ((complete_graph(4), 2.0), (petersen_graph(), 2.0)):
        mu = spectral_measure(g)
        edge = q ** -0.5 + q ** 0.5
        assert mu.points.min() >= -edge - 1e-9
        assert mu.points.max() <= edge + 1e-9


def test_spectral_measure_rejects_irregular():
    path = build_from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(Exception):
        spectral_measure(path)


def test_colored_measure_trivial_and_permutation(k4):
    mu = spectral_measure(k4)
    col = trivial_color(k4)
    assert np.allclose(spectral_measure(k4, col).points, mu.points, atol=1e-9)
    perms, lifted = sample_lift(k4, 6, RngStream(31))
    mu_lift = spectral_measure(lifted)
    mu_col = spectral_measure(k4, permutation_color(k4, perms))
    assert mu_col.size == 24
    assert np.abs(mu_lift.points - mu_col.points).max() <= 1e-9


def test_cycle_measure_closed_form():
    assert np.allclose(cycle_spectral_measure(4).points, [-2, 0, 0, 2], atol=1e-12)
    assert np.allclose(cycle_spectral_measure(3).points, [-1, -1, 2], atol=1e-12)
    for m in (5, 8, 13):
        mu = spectral_measure(cycle_graph(m))
        assert np.abs(mu.points - cycle_spectral_measure(m).points).max() <= 1e-10
    with pytest.raises(MeasureError):
        cycle_spectral_measure(2)


def test_idf_discrete_two_point():
    mu = DiscreteSpectralMeasure(np.array([-1.0, 1.0]))
    assert mu.idf(0.25) == -1.0
    assert mu.idf(0.5) == -1.0
    assert mu.idf(0.75) == 1.0
    assert mu.idf(1.0) == 1.0
    with pytest.raises(MeasureError):
        mu.idf(0.0)
    with pytest.raises(MeasureError):
        mu.idf(1.5)


def test_idf_discrete_rejects_nan():
    mu = DiscreteSpectralMeasure(np.array([-1.0, 1.0]))
    for bad in (math.nan, [0.5, math.nan], [[math.nan]]):
        with pytest.raises(MeasureError):
            mu.idf(bad)


@pytest.mark.parametrize("m", [5, 7, 10, 53, 54])
def test_cycle_idf_matches_closed_form_steps(m):
    mu = cycle_spectral_measure(m)
    rng = np.random.default_rng(9)
    for p in rng.uniform(1e-4, 1.0 - 1e-4, size=60):
        if min(abs(p * m - round(p * m)), abs(p * m / 2 - round(p * m / 2))) < 1e-6:
            continue  # stay away from breakpoints
        assert mu.idf(p) == pytest.approx(cycle_idf_closed_form(m, p), abs=1e-10)


# -- reference laws -----------------------------------------------------------------

def test_density_point_values():
    assert semicircle().density(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert arcsine().density(0.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
    assert semicircle().density(2.5) == 0.0
    assert kesten_mckay(3.0).density(-2.5) == 0.0


def test_kesten_mckay_requires_q_above_one():
    with pytest.raises(LawError):
        kesten_mckay(1.0)
    with pytest.raises(LawError):
        kesten_mckay(0.5)
    kesten_mckay(1.5)  # any real q > 1 is fine


def test_densities_integrate_to_one():
    laws = [semicircle(), arcsine()] + [kesten_mckay(q) for q in (2, 3, 5, 50)]
    for law in laws:
        assert law.moment(ONE) == pytest.approx(1.0, abs=1e-10)


def test_density_gap_bound_to_semicircle():
    xs = np.linspace(-2, 2, 10001)
    sc = semicircle()
    gap = np.abs(kesten_mckay(50.0).density(xs) - sc.density(xs)).max()
    assert gap <= 2.0 / 48.0


def test_cdf_idf_basics():
    assert semicircle().cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert arcsine().idf(0.5) == pytest.approx(0.0, abs=1e-15)
    assert arcsine().idf(1.0 / 3.0) == pytest.approx(-1.0, abs=1e-14)
    with pytest.raises(LawError):
        semicircle().idf(0.0)
    with pytest.raises(LawError):
        semicircle().idf(1.0)


def test_cdf_monotone_on_grid():
    xs = np.linspace(-2.2, 2.2, 10001)
    for law in (semicircle(), arcsine(), kesten_mckay(2.0), kesten_mckay(35.5)):
        vals = np.atleast_1d(law.cdf(xs))
        assert (np.diff(vals) >= -1e-14).all()
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0, abs=1e-10)


def test_idf_cdf_identity():
    ps = np.linspace(0.01, 0.99, 99)
    for law in (semicircle(), kesten_mckay(3.0), arcsine()):
        xs = np.atleast_1d(law.idf(ps))
        back = np.atleast_1d(law.cdf(xs))
        assert np.abs(back - ps).max() <= 1e-8


def test_moments_of_x_family_under_km():
    for q in (2.0, 3.0, 5.0, 50.0):
        law = kesten_mckay(q)
        for r in range(13):
            val = law.moment(poly_X(r))
            expect = q ** (-r / 2.0) if r % 2 == 0 else 0.0
            assert val == pytest.approx(expect, abs=1e-8)


def test_specific_moment_values():
    assert kesten_mckay(3.0).moment(poly_X(4)) == pytest.approx(1 / 9, abs=1e-10)
    sc = semicircle()
    x2 = ExactPolynomial((0, 0, 1))
    x4 = ExactPolynomial((0, 0, 0, 0, 1))
    assert sc.moment(x2) == pytest.approx(1.0, abs=1e-10)
    assert sc.moment(x4) == pytest.approx(2.0, abs=1e-10)
    assert sc.moment(poly_Xrq(2, 1)) == pytest.approx(-1.0, abs=1e-10)
    for r in range(9):
        assert sc.moment(poly_X(r)) == pytest.approx(
            1.0 if r == 0 else 0.0, abs=1e-10)
        if r >= 3:
            assert sc.moment(poly_Xrq(r, 1)) == pytest.approx(0.0, abs=1e-10)


def test_arcsine_y_moments_vanish():
    ar = arcsine()
    for r in range(1, 9):
        assert ar.moment(poly_Xrq(r, 1)) == pytest.approx(0.0, abs=1e-10)


def test_orthogonality_table():
    for q in (2.0, 3.0, 5.0):
        assert orthogonality_check(q, 10) <= 1e-8
    assert kesten_mckay(3.0).moment(poly_Xrq(2, 3) * poly_Xrq(2, 3)) == \
        pytest.approx(4.0 / 3.0, abs=1e-8)
    assert kesten_mckay(2.0).moment(poly_Xrq(0, 2) * poly_Xrq(5, 2)) == \
        pytest.approx(0.0, abs=1e-8)
    assert kesten_mckay(5.0).moment(poly_Xrq(0, 5) * poly_Xrq(0, 5)) == \
        pytest.approx(1.0, abs=1e-8)
    with pytest.raises(LawError):
        orthogonality_check(1.0, 4)


# -- moment criterion ------------------------------------------------------------------

def test_moment_criterion_equals_normalized_nbw_counts(k4, petersen):
    from nbspectra.multigraph import walk_census
    for g in (k4, petersen):
        mu = spectral_measure(g)
        census = walk_census(g, 8)
        res = moment_criterion_report(mu, kesten_mckay(2.0), 8)
        for r in range(1, 9):
            expect = 2.0 ** (-r / 2.0) * census.f[r] / g.n_vertices
            assert res[r - 1] == pytest.approx(expect, abs=1e-8)


def test_moment_criterion_vanishes_below_girth(petersen):
    mu = spectral_measure(petersen)
    res = moment_criterion_report(mu, kesten_mckay(2.0), 8)
    g = girth(petersen)
    for r in range(1, g):
        assert abs(res[r - 1]) <= 1e-9


def test_moment_criterion_cycle_measures_vanish_below_m():
    for m in (7, 12):
        mu = cycle_spectral_measure(m)
        res = moment_criterion_report(mu, arcsine(), m - 1)
        assert np.abs(res).max() <= 1e-9


def test_moment_criterion_quantile_discretization_refines():
    sc = semicircle()
    prev = None
    for size in (50, 200, 800):
        ps = (np.arange(size) + 0.5) / size
        mu = DiscreteSpectralMeasure(np.asarray(sc.idf(ps)))
        res = np.abs(moment_criterion_report(mu, sc, 6)).max()
        if prev is not None:
            assert res < prev
        prev = res
    assert prev < 1e-3


def test_moment_criterion_rejects_mismatched_normalization(k4):
    mu = spectral_measure(k4)  # q = 2
    with pytest.raises(LawError):
        moment_criterion_report(mu, kesten_mckay(3.0), 4)
    with pytest.raises(LawError):
        moment_criterion_report(mu, arcsine(), 4)

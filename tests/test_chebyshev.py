"""Exact polynomial identities and stable evaluation."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from nbspectra.chebyshev import (ExactPolynomial, PolynomialError,
                                 eval_X_table, generating_function_residual,
                                 poly_X, poly_Xrq,
                                 xrq_from_x)
from nbspectra.spectra import DiscreteSpectralMeasure


def test_base_cases():
    assert poly_X(0).coeffs == (Fraction(1),)
    assert poly_X(1).coeffs == (Fraction(0), Fraction(1))
    assert poly_X(-1).coeffs == ()
    assert poly_X(2).coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    # X_4 = x^4 - 3x^2 + 1: constant term (-1)^2 binom(2, 2), x^2 term -binom(3, 1)
    assert poly_X(4).coeffs == tuple(map(Fraction, (1, 0, -3, 0, 1)))


def test_binomial_equals_recurrence_up_to_200():
    # oracle: integer coefficients of X_{r+1} = x X_r - X_{r-1}, X_{-1} = 0, X_0 = 1
    prev, cur = [], [1]
    for r in range(201):
        assert poly_X(r).coeffs == tuple(cur), r
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt


def test_degree_and_leading_coefficient():
    for r in range(20):
        p = poly_X(r)
        assert p.degree == r
        assert p.coeffs[-1] == 1


def test_xrq_explicit_cases():
    for q in (1, 2, 3, Fraction(5, 2)):
        p = poly_Xrq(2, q)
        assert p.coeffs == (Fraction(-1) - Fraction(1, 1) / Fraction(q),
                            Fraction(0), Fraction(1))
    assert poly_Xrq(1, 7).coeffs == (Fraction(0), Fraction(1))
    assert poly_Xrq(0, 3).coeffs == (Fraction(1),)


def test_xrq_at_q_one_equals_y():
    for r in range(12):
        assert poly_Xrq(r, 1).coeffs == (poly_X(r) - poly_X(r - 2)).coeffs


def test_xrq_rejects_nonpositive_q():
    with pytest.raises(PolynomialError):
        poly_Xrq(3, 0)
    with pytest.raises(PolynomialError):
        poly_Xrq(3, Fraction(-1, 2))


def test_y_cases():
    assert poly_Xrq(0, 1).coeffs == (Fraction(1),)
    assert poly_Xrq(2, 1).coeffs == (Fraction(-2), Fraction(0), Fraction(1))


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_y_is_rescaled_cosine(r, theta):
    val = polyval(2.0 * math.cos(theta), np.array(poly_Xrq(r, 1).coeffs, dtype=float))
    assert val == pytest.approx(2.0 * math.cos(r * theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
@pytest.mark.parametrize("r", [15, 40])
def test_y_stable_eval_is_rescaled_cosine(r, theta):
    val = xrq_from_x(eval_X_table(r, 2.0 * math.cos(theta)), 1.0)[r][0]
    assert val == pytest.approx(2.0 * math.cos(r * theta), abs=1e-12)


def test_inversion_identity_exact():
    # X_r == sum_k q^{-k} X_{r-2k,q}, exact in rational arithmetic
    for q in (1, 2, 3, 5):
        for r in range(33):
            acc = ExactPolynomial(())
            for k in range(r // 2 + 1):
                acc = acc + poly_Xrq(r - 2 * k, q).scale(Fraction(1, q ** k))
            assert acc.coeffs == poly_X(r).coeffs


def test_eval_stable_boundary_pattern():
    for r in range(11):
        assert eval_X_table(r, 2.0)[r][0] == r + 1


def test_eval_stable_parity():
    assert eval_X_table(5, 0.0)[5][0] == 0.0
    assert eval_X_table(4, 0.0)[4][0] == 1.0


def test_eval_stable_bound_on_window():
    xs = np.linspace(-2.0, 2.0, 2001)
    for r in (10, 50, 200):
        vals = eval_X_table(r, xs)[r]
        assert np.abs(vals).max() <= (r + 1) * (1.0 + 1e-9)


def test_eval_stable_matches_exact_rational():
    points = [Fraction(k, 8) for k in range(-16, 17, 3)]
    for r in (5, 30, 120, 200):
        poly = poly_X(r)
        for x in points:
            exact = float(poly(x))
            approx = eval_X_table(r, float(x))[r][0]
            assert approx == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_eval_table_consistency():
    xs = np.linspace(-2, 2, 17)
    table = eval_X_table(8, xs)
    for r in range(9):
        assert np.allclose(table[r], eval_X_table(r, xs)[r], rtol=0, atol=1e-12)


def test_eval_family_helpers():
    xs = np.linspace(-2, 2, 9)
    table = eval_X_table(4, xs)
    for q in (3, 1):
        coeffs = np.array(poly_Xrq(4, q).coeffs, dtype=float)
        assert np.allclose(xrq_from_x(table, float(q))[4], polyval(xs, coeffs), atol=1e-12)


def test_generating_function_residual_decay():
    assert generating_function_residual(40, 1.0, 0.2, 3) < 1e-12
    assert generating_function_residual(10, 1.3, 0.0, 2) == 0.0
    r20 = generating_function_residual(20, 0.7, 0.25, 3)
    r40 = generating_function_residual(40, 0.7, 0.25, 3)
    assert r40 < r20


def test_generating_function_domain_rejections():
    with pytest.raises(PolynomialError):
        generating_function_residual(10, 1.0, 0.5, 3)
    with pytest.raises(PolynomialError):
        generating_function_residual(10, 2.5, 0.1, 3)


@pytest.mark.parametrize("r_max", [-1, -2])
@pytest.mark.parametrize("fn", [
    lambda r_max: eval_X_table(r_max, [0.5, 1.0]),
    lambda r_max: DiscreteSpectralMeasure(points=np.array([0.5, 1.0]), q=2.0).family_moments(r_max, 2.0),
    lambda r_max: generating_function_residual(r_max, 1.0, 0.2, 3)],
    ids=["eval_X_table", "family_moments", "generating_function_residual"])
def test_negative_r_max_is_a_polynomial_error(fn, r_max):
    with pytest.raises(PolynomialError, match=f"r_max must be nonnegative, got {r_max}"):
        fn(r_max)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(min_value=1, max_value=40),
       num=st.integers(min_value=-8, max_value=8),
       den=st.integers(min_value=1, max_value=5))
def test_three_term_recurrence_exact(r, num, den):
    x = Fraction(num, den)
    lhs = poly_X(r + 1)(x)
    rhs = x * poly_X(r)(x) - poly_X(r - 1)(x)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(r=st.integers(min_value=0, max_value=24),
       qnum=st.integers(min_value=1, max_value=9),
       qden=st.integers(min_value=1, max_value=4))
def test_xrq_definition_exact(r, qnum, qden):
    q = Fraction(qnum, qden)
    lhs = poly_Xrq(r, q)
    rhs = poly_X(r) - poly_X(r - 2).scale(1 / q)
    assert lhs.coeffs == rhs.coeffs


def test_polynomial_arithmetic():
    p = poly_X(3) * poly_X(2)
    assert p.degree == 5
    x = Fraction(3, 7)
    assert p(x) == poly_X(3)(x) * poly_X(2)(x)
    zero = poly_X(2) - poly_X(2)
    assert zero.coeffs == ()
    assert zero.degree == -1

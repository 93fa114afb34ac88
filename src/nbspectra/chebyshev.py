"""Exact-coefficient Chebyshev-type polynomial families and stable evaluation.

Three families appear throughout the library, all on the spectral window
[-2, 2]:

* ``X_r`` with generating function 1 / (1 - x t + t^2), equivalently the
  recurrence X_{r+1} = x X_r - X_{r-1}, X_0 = 1, X_1 = x, and the convention
  X_r = 0 for negative r.
* ``X_{r,q} = X_r - X_{r-2} / q`` for a positive rational branching number q.
* ``Y_r = X_{r,1} = X_r - X_{r-2}``.

Coefficients are exact rationals, X_r's read off its alternating binomial
sum; floating-point evaluation goes through the forward three-term
recurrence, which stays stable where that sum does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

RationalLike = Union[int, Fraction]


class PolynomialError(ValueError):
    """Invalid polynomial construction or evaluation parameters."""


@dataclass(frozen=True)
class ExactPolynomial:
    """Dense polynomial with exact rational coefficients, ascending order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(tuple(out))

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + other.scale(-1)

    def scale(self, s: RationalLike) -> "ExactPolynomial":
        s = Fraction(s)
        return ExactPolynomial(tuple(c * s for c in self.coeffs))

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not self.coeffs or not other.coeffs:
            return ExactPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ExactPolynomial(tuple(out))


def poly_X(r: int) -> ExactPolynomial:
    """X_r = sum_k (-1)^k C(r-k, k) x^(r-2k) (zero polynomial for negative r)."""
    coeffs = [0] * (r + 1)
    for k in range(r // 2 + 1):
        coeffs[r - 2 * k] = (-1) ** k * math.comb(r - k, k)
    return ExactPolynomial(tuple(coeffs))


def poly_Xrq(r: int, q: RationalLike) -> ExactPolynomial:
    """X_{r,q} = X_r - X_{r-2} / q for q > 0."""
    q = Fraction(q)
    if q <= 0:
        raise PolynomialError(f"branching parameter q must be positive, got {q}")
    return poly_X(r) - poly_X(r - 2).scale(Fraction(1, 1) / q)


def eval_X_table(r_max: int, x) -> np.ndarray:
    """Stacked values X_0(x)..X_{r_max}(x) via one forward recurrence pass.

    Returns an array of shape (r_max + 1,) + shape(x).  On [-2, 2] the values
    satisfy |X_r| <= r + 1, so the recurrence does not amplify rounding the
    way the explicit binomial sum does.
    """
    if r_max < 0:
        raise PolynomialError(f"r_max must be nonnegative, got {r_max}")
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty((r_max + 1,) + xs.shape)
    out[0] = 1.0
    if r_max >= 1:
        out[1] = xs
    for r in range(2, r_max + 1):
        out[r] = xs * out[r - 1] - out[r - 2]
    return out


def xrq_from_x(table: np.ndarray, q: float) -> np.ndarray:
    """Map a stacked table of X_r values to X_{r,q} = X_r - X_{r-2} / q.

    ``table[r]`` holds X_r at any stack of points or traces, for
    r = 0..r_max; the result has the same shape (q = 1 gives Y_r).
    """
    family = np.array(table)
    family[2:] -= table[:-2] / q
    return family


def generating_function_residual(r_max: int, x: float, t: float, q: RationalLike) -> float:
    """|partial sum of X_{r,q}(x) t^r up to r_max  -  (1 - t^2/q)/(1 - x t + t^2)|.

    Restricted to |t| < 1/3 and |x| <= 2, safely inside the region where the
    series converges geometrically.
    """
    qf = float(Fraction(q))
    if qf <= 0:
        raise PolynomialError("q must be positive")
    if abs(t) >= 1.0 / 3.0:
        raise PolynomialError(f"|t| must be below 1/3, got {t}")
    if abs(x) > 2.0:
        raise PolynomialError(f"|x| must be at most 2, got {x}")
    partial = 0.0
    tpow = 1.0
    for value in xrq_from_x(eval_X_table(r_max, x)[:, 0], qf):
        partial += value * tpow
        tpow *= t
    closed = (1.0 - t * t / qf) / (1.0 - x * t + t * t)
    return abs(partial - closed)

"""Closed-form reference laws on [-2, 2].

Three laws cover the limits that sparse regular graphs converge to:

* Kesten-McKay with branching number q > 1 (any real q, not just integers),
* the arcsine law (the q = 1 member),
* the semicircle law (the q -> infinity member).

Everything is elementary in the angle variable x = -2 cos(phi), phi in
[0, pi] (Kesten 1959; McKay 1981).  The CDFs are

* semicircle:    (phi - sin phi cos phi) / pi,
* arcsine:       phi / pi,
* Kesten-McKay:  phi / pi - (q - 1) / (2 pi) * atan2(sin 2phi, q - cos 2phi),

the last being [(q+1) phi - (q-1) atan2((q+1) sin phi, (q-1) cos phi)] / (2 pi)
with its two angles folded into one, so nothing cancels at large q.  Their
derivatives in the angle, the densities times 2 sin phi (``angle_weight``),
are bounded and smooth on [0, pi].  The partial moments int_{-2}^x t dF and
int_{-2}^x t^2 dF are elementary in the angle too (``_angle_moments``), which
gives ``wasserstein`` W_1 and W_2 in closed form.  The angle quantile and the
inverse CDF solve F(phi) = min(p, 1 - p) on (0, pi/2] by safeguarded Newton
and reflect the upper half, so idf(p) = -idf(1 - p) exactly.  Moments are exact: in the basis X_r of
``nbspectra.chebyshev`` the law integrates X_r to q^{-r/2} for even r and to
0 for odd r, with q = 1 for the arcsine law and q = infinity (so delta_{r0})
for the semicircle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..chebyshev import ExactPolynomial, xrq_from_x
from .measures import DiscreteSpectralMeasure

IDF_TOL = 1e-10
_NEWTON_MAX_STEPS = 100
_ATAN_SERIES_BELOW = 0.25
_ATAN_SERIES_TERMS = 14


class LawError(ValueError):
    """Invalid law construction or query."""


class ReferenceLaw:
    """Closed-form spectral law with density/CDF/IDF evaluators."""

    KINDS = ("kesten-mckay", "arcsine", "semicircle")

    def __init__(self, kind: str, q: float | None = None):
        if kind not in self.KINDS:
            raise LawError(f"unknown law kind {kind!r}")
        if kind == "kesten-mckay":
            if q is None or not 1.0 < q < math.inf:
                raise LawError(f"Kesten-McKay needs finite real q > 1, got {q!r} "
                               "(the arcsine law covers q = 1, the semicircle "
                               "q = infinity)")
        elif q is not None:
            raise LawError(f"{kind} law takes no q parameter")
        self.kind = kind
        self.q = float(q) if q is not None else None

    def __repr__(self) -> str:
        return (f"ReferenceLaw({self.kind!r})" if self.q is None
                else f"ReferenceLaw({self.kind!r}, q={self.q:g})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ReferenceLaw)
                and self.kind == other.kind and self.q == other.q)

    def __hash__(self) -> int:
        return hash((self.kind, self.q))

    # -- density -----------------------------------------------------------

    def density(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=np.float64)
        inside = np.abs(xs) <= 2.0
        xc = np.where(inside, xs, 0.0)
        root = np.sqrt(np.maximum(4.0 - xc * xc, 0.0))
        if self.kind == "semicircle":
            vals = root / (2.0 * np.pi)
        elif self.kind == "arcsine":
            with np.errstate(divide="ignore"):
                vals = np.where(root > 0.0, 1.0 / (np.pi * root), np.inf)
        else:
            q1, s2, scale = self._km_scaled()
            vals = q1 * root / (2.0 * np.pi * (s2 - xc * xc * scale))
        out = np.where(inside, vals, 0.0)
        return out if out.ndim else float(out)

    def angle_weight(self, phi: np.ndarray) -> np.ndarray:
        """density(-2 cos phi) * 2 sin phi: the derivative of the CDF in the
        angle, bounded and smooth on [0, pi]."""
        s = np.sin(phi)
        if self.kind == "semicircle":
            return (2.0 / np.pi) * s * s
        if self.kind == "arcsine":
            return np.full_like(phi, 1.0 / np.pi)
        q1, s2, scale = self._km_scaled()
        c = np.cos(phi)
        return q1 * 2.0 * s * s / (np.pi * (s2 - 4.0 * c * c * scale))

    def _km_scaled(self) -> tuple[float, float, float]:
        """q + 1, (q^{-1/2} + q^{1/2})^2 and 1, each times scale = 4^-k ~ 1/q.

        The Kesten-McKay density and angle weight are ratios of terms of size
        q, which overflow as q nears the float range.  Dividing both sides by
        a power of two is exact in binary floating point, so it changes no
        value where the unscaled ratio is finite.
        """
        half = 2.0 ** -(math.frexp(self.q)[1] // 2)
        s2 = ((self.q ** -0.5 + self.q ** 0.5) * half) ** 2
        return (self.q + 1.0) * half * half, s2, half * half

    def _angle_cdf(self, phi: np.ndarray) -> np.ndarray:
        """CDF at x = -2 cos phi, phi in [0, pi]."""
        if self.kind == "semicircle":
            return (phi - np.sin(phi) * np.cos(phi)) / np.pi
        if self.kind == "arcsine":
            return phi / np.pi
        q = self.q
        fold = np.arctan2(np.sin(2.0 * phi), q - np.cos(2.0 * phi))
        return phi / np.pi - (q - 1.0) / (2.0 * np.pi) * fold

    def _angle_moments(self, phi: np.ndarray):
        """F, M1 = int_{-2}^x t dF and M2 = int_{-2}^x t^2 dF at x = -2 cos phi.

        Kesten-McKay, with s = sin phi, g = _atan_remainder and r = q (q + 1)
        / (q - 1)^2:

        * M1 = -4 r s^3 g(y) / pi, y = 2 sqrt(q) s / (q - 1),
        * M2 = (q + 1) delta + (1 + 1/q) F, where delta = [sin 2phi 2 s^2 /
          (q - cos 2phi) + (q - 1) z^3 g(z)] / (2 pi), z = sin 2phi /
          (q - cos 2phi), is F - (phi - s cos phi) / pi with its leading
          terms cancelled by hand.

        M1 is one product and delta's two terms share the sign of sin 2phi,
        so neither cancels at large q; M1 never forms y^2 ~ 4 s^2 / q, which
        underflows as q nears the float range.  q - cos 2phi is taken as
        (q - 1) + 2 s^2, which keeps its digits near phi = 0, pi as q -> 1.
        """
        phi = np.asarray(phi, dtype=np.float64)
        s = np.sin(phi)
        cdf = self._angle_cdf(phi)
        if self.kind == "semicircle":
            return cdf, -4.0 * s ** 3 / (3.0 * np.pi), (phi - np.sin(4.0 * phi) / 4.0) / np.pi
        if self.kind == "arcsine":
            return cdf, -2.0 * s / np.pi, (2.0 * phi + np.sin(2.0 * phi)) / np.pi
        q = self.q
        r = (q / (q - 1.0)) * ((q + 1.0) / (q - 1.0))
        y = 2.0 * s * (math.sqrt(q) / (q - 1.0))
        m1 = -(4.0 / np.pi) * (r * _atan_remainder(y)) * s * s * s
        s2, gap = np.sin(2.0 * phi), (q - 1.0) + 2.0 * s * s  # gap = q - cos 2phi
        z = s2 / gap
        delta = (s2 * 2.0 * s * s / gap
                 + (q - 1.0) * z * z * z * _atan_remainder(z)) / (2.0 * np.pi)
        return cdf, m1, (q + 1.0) * delta + (1.0 + 1.0 / q) * cdf

    # -- moments -----------------------------------------------------------

    def _x_moments(self, r_max: int) -> np.ndarray:
        """Integrals of X_0..X_{r_max} against the law."""
        r = np.arange(r_max + 1)
        if self.kind == "semicircle":
            out = (r == 0).astype(np.float64)
        else:
            out = (self.q or 1.0) ** (-r / 2.0)  # the arcsine law has q = 1
        out[1::2] = 0.0
        return out

    def moment(self, poly: ExactPolynomial) -> float:
        """Integral of ``poly`` against the law, via its exact X_r expansion.

        x^k = sum_j [C(k, j) - C(k, j-1)] X_{k-2j} for 0 <= j <= k/2.
        """
        in_x = [Fraction(0)] * (poly.degree + 1)
        for k, c in enumerate(poly.coeffs):
            for j in range(k // 2 + 1):
                lower = math.comb(k, j - 1) if j else 0
                in_x[k - 2 * j] += c * (math.comb(k, j) - lower)
        moments = self._x_moments(poly.degree)
        return math.fsum(float(b) * m for b, m in zip(in_x, moments))

    # -- CDF / IDF ---------------------------------------------------------

    def cdf(self, x):
        xs = np.asarray(x, dtype=np.float64)
        out = self._angle_cdf(np.arccos(np.clip(-xs / 2.0, -1.0, 1.0)))
        return out if out.ndim else float(out)

    def idf(self, p):
        """Inverse CDF to IDF_TOL in x; idf(p) = -idf(1 - p) exactly."""
        ps, phi = self._half_angles(p)
        out = np.sign(ps - 0.5) * 2.0 * np.cos(phi)
        return out if out.ndim else float(out)

    def angle_quantile(self, p) -> np.ndarray:
        """Angles phi in (0, pi) with cdf(-2 cos phi) = p, for p in (0, 1).

        Above 1/2 this is pi - phi(1 - p), so no solve sees the digits that
        1 - F loses near pi.
        """
        ps, phi = self._half_angles(p)
        return np.where(ps > 0.5, np.pi - phi, phi)

    def _half_angles(self, p) -> tuple[np.ndarray, np.ndarray]:
        """p as an array, and the angles phi in (0, pi/2] with
        F(phi) = min(p, 1 - p).

        Safeguarded Newton: a step leaving the bracket bisects it instead.  A
        point stops once its step moves x = -2 cos(phi) by at most IDF_TOL;
        a stop in phi would never come near phi = 0, where the CDF cancels to
        noise and Newton's steps in phi stay at noise size while x has long
        converged.
        """
        ps = np.asarray(p, dtype=np.float64)
        if not np.all((ps > 0.0) & (ps < 1.0)):
            raise LawError("quantile level must lie strictly inside (0, 1)")
        m = np.minimum(ps, 1.0 - ps).ravel()
        lo = np.zeros_like(m)
        hi = np.full_like(m, np.pi / 2.0)
        phi = np.pi * m  # the arcsine root
        todo = np.arange(m.size)
        for _ in range(_NEWTON_MAX_STEPS):
            if not todo.size:
                return ps, phi.reshape(ps.shape)
            cur = phi[todo]
            gap = self._angle_cdf(cur) - m[todo]
            above = gap > 0.0
            lo_t = np.where(above, lo[todo], cur)
            hi_t = np.where(above, cur, hi[todo])
            with np.errstate(divide="ignore"):  # the weight tends to 0 with phi
                new = cur - gap / self.angle_weight(cur)
            new = np.where((new < lo_t) | (new > hi_t), (lo_t + hi_t) / 2.0, new)
            lo[todo], hi[todo], phi[todo] = lo_t, hi_t, new
            todo = todo[2.0 * np.abs(np.cos(new) - np.cos(cur)) > IDF_TOL]
        raise RuntimeError(f"{self!r}: IDF Newton iteration did not converge")


def _atan_remainder(z: np.ndarray) -> np.ndarray:
    """(z - arctan z) / z^3, from its Taylor series sum_k (-1)^k z^{2k} /
    (2k + 3) where the direct form cancels (|z| < _ATAN_SERIES_BELOW; the
    series' first omitted term is below 1e-17 there)."""
    z = np.asarray(z, dtype=np.float64)
    near = np.abs(z) < _ATAN_SERIES_BELOW
    far = np.where(near, 1.0, z)
    z2 = z * z
    series = np.zeros_like(z)
    for k in range(_ATAN_SERIES_TERMS - 1, -1, -1):
        series = (-1.0) ** k / (2 * k + 3) + z2 * series
    return np.where(near, series, (far - np.arctan(far)) / far ** 3)


def kesten_mckay(q: float) -> ReferenceLaw:
    return ReferenceLaw("kesten-mckay", q)


def arcsine() -> ReferenceLaw:
    return ReferenceLaw("arcsine")


def semicircle() -> ReferenceLaw:
    return ReferenceLaw("semicircle")


def orthogonality_check(q: float, n_max: int) -> float:
    """Max deviation of <X_{n,q}, X_{m,q}> under mu_q from {0, 1, 1 + 1/q}.

    Exact moments and X_n X_m = sum_{k <= min(n, m)} X_{n+m-2k} give the Gram
    matrix of the X_r; X_{n,q} = X_n - X_{n-2} / q, applied to its rows and
    then to its columns, maps it to the family's.
    """
    if not q > 1.0:
        raise LawError(f"orthogonality table needs q > 1, got {q}")
    moments = kesten_mckay(q)._x_moments(2 * n_max)
    idx = np.arange(n_max + 1)
    gram_x = np.array([[moments[n + m - 2 * np.arange(min(n, m) + 1)].sum()
                        for m in idx] for n in idx])
    gram = xrq_from_x(xrq_from_x(gram_x, q).T, q)
    expected = np.diag(np.where(idx == 0, 1.0, 1.0 + 1.0 / q))
    return float(np.abs(gram - expected).max())


def moment_criterion_report(mu: DiscreteSpectralMeasure, target: ReferenceLaw,
                            r_max: int) -> np.ndarray:
    """Residuals of the test statistics that certify convergence to ``target``.

    For a Kesten-McKay target the statistics are the X_{r,q} moments (these
    equal q^{-r/2} f_r / |V| on a graph measure); for arcsine and semicircle
    targets they are the Y_r moments (the circuit statistics).  Entry r-1 of
    the result is the difference of the r-th statistic between ``mu`` and the
    target law, for r = 1..r_max.
    """
    if r_max < 1:
        raise LawError("r_max must be at least 1")
    if target.kind == "kesten-mckay":
        if abs(mu.q - target.q) > 1e-12:
            raise LawError(
                f"measure normalization q={mu.q:g} does not match target q={target.q:g}")
        qval = target.q
    elif target.kind == "arcsine":
        if abs(mu.q - 1.0) > 1e-12:
            raise LawError("arcsine target expects a q = 1 normalized measure")
        qval = 1.0
    else:
        qval = 1.0  # Y_r family; measure q only affects its own normalization

    residuals = mu.family_moments(r_max, qval)[1:]
    # Every statistic integrates to 0 under its target law, except
    # int Y_2 = int X_2 - int X_0 = -1 under the semicircle.
    if target.kind == "semicircle" and r_max >= 2:
        residuals[1] += 1.0
    return residuals

"""Closed-form reference laws on [-2, 2] (Kesten 1959; McKay 1981).

Two closed-form families cover the limits that sparse regular graphs
converge to, in b = 1/q and c = (q - 1)/q:

* Kesten-McKay for b in [0, 1): any real branching number q > 1, not just
  integers, with the semicircle law as its b = 0 (q = infinity) member;
* the arcsine law, the q = 1 end (b, c) = (1, 0), where those forms are 0/0.

Everything is elementary in the angle variable x = -2 cos(phi), phi in
[0, pi].  With s = sin phi, rho = sqrt((2 - x)(2 + x)), z = sin 2phi /
(c + 2 b s^2) and g(w) = (w - arctan w) / w^3, the Kesten-McKay density is
(1 + b) rho / (2 pi (c^2 + b rho^2)) and its CDF is phi / pi -
c z (1 - (b z)^2 g(b z)) / (2 pi); the arcsine law's are 1 / (pi rho) and
phi / pi.  Every term is O(1), so nothing overflows at large q and nothing
cancels near x = +-2 as q -> 1.  The densities times 2 sin phi
(``angle_weight``) are bounded and smooth on [0, pi].  The partial moments
int_{-2}^x t dF and int_{-2}^x t^2 dF are elementary too
(``_angle_moments``), which gives ``wasserstein`` W_1 and W_2 in closed
form.  The angle quantile and the inverse CDF solve F(phi) = min(p, 1 - p)
on (0, pi/2] by safeguarded Newton and reflect the upper half, so
idf(p) = -idf(1 - p) exactly.  Moments are exact: in the basis X_r of
``nbspectra.chebyshev`` each law integrates X_r to b^{r/2} for even r and to
0 for odd r.
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
            q = float(q)
            self._b, self._c = 1.0 / q, (q - 1.0) / q
        elif q is not None:
            raise LawError(f"{kind} law takes no q parameter")
        else:
            self._b, self._c = (0.0, 1.0) if kind == "semicircle" else (1.0, 0.0)
        self.kind = kind
        self.q = q

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
        rho2 = (2.0 - xc) * (2.0 + xc)
        root = np.sqrt(rho2)
        if self.kind == "arcsine":
            with np.errstate(divide="ignore"):
                vals = np.where(root > 0.0, 1.0 / (np.pi * root), np.inf)
        else:
            b, c = self._b, self._c
            vals = (1.0 + b) * root / (2.0 * np.pi * (c * c + b * rho2))
        out = np.where(inside, vals, 0.0)
        return out if out.ndim else float(out)

    def angle_weight(self, phi: np.ndarray) -> np.ndarray:
        """density(-2 cos phi) * 2 sin phi: the derivative of the CDF in the
        angle, bounded and smooth on [0, pi]."""
        if self.kind == "arcsine":
            return np.full_like(phi, 1.0 / np.pi)
        b, c = self._b, self._c
        s = np.sin(phi)
        return 2.0 * (1.0 + b) * s * s / (np.pi * (c * c + 4.0 * b * s * s))

    def _angle_cdf(self, phi: np.ndarray) -> np.ndarray:
        """CDF at x = -2 cos phi, phi in [0, pi]."""
        if self.kind == "arcsine":
            return phi / np.pi
        return self._km_cdf(phi)[0]

    def _km_cdf(self, phi: np.ndarray):
        """Kesten-McKay F at x = -2 cos phi, and s = sin phi, z and g(b z),
        which M2 reuses."""
        b, c = self._b, self._c
        s = np.sin(phi)
        z = np.sin(2.0 * phi) / (c + 2.0 * b * s * s)
        g_bz = _atan_remainder(b * z)
        cdf = phi / np.pi - c * z * (1.0 - (b * z) ** 2 * g_bz) / (2.0 * np.pi)
        return cdf, s, z, g_bz

    def _angle_moments(self, phi: np.ndarray):
        """F, M1 = int_{-2}^x t dF and M2 = int_{-2}^x t^2 dF at x = -2 cos phi.

        Kesten-McKay, with s = sin phi, z = sin 2phi / (c + 2 b s^2) and
        g = _atan_remainder:

        * M1 = -(4 / pi) ((1 + b) / c^2) g(2 s sqrt(b) / c) s^3,
        * M2 = (1 + b) [z (2 s^2 + c b z^2 g(b z)) / (2 pi) + F].

        M1 is one product and the two terms in M2's bracket share the sign of
        sin 2phi, so neither cancels at any q; at b = 0 they are the
        semicircle's -4 s^3 / (3 pi) and (phi - sin 4phi / 4) / pi.  Every
        factor is O(1) in b and c, so nothing overflows at large q, and
        c + 2 b s^2 stands for (q - cos 2phi) / q, which keeps its digits near
        phi = 0, pi as q -> 1.
        """
        phi = np.asarray(phi, dtype=np.float64)
        if self.kind == "arcsine":
            return phi / np.pi, -2.0 * np.sin(phi) / np.pi, (2.0 * phi + np.sin(2.0 * phi)) / np.pi
        b, c = self._b, self._c
        cdf, s, z, g_bz = self._km_cdf(phi)
        m1 = -(4.0 / np.pi) * ((1.0 + b) / (c * c)) * _atan_remainder(2.0 * s * (math.sqrt(b) / c))
        m2 = (1.0 + b) * (z * (2.0 * s * s + c * b * z * z * g_bz) / (2.0 * np.pi) + cdf)
        return cdf, m1 * s * s * s, m2

    # -- moments -----------------------------------------------------------

    def _x_moments(self, r_max: int) -> np.ndarray:
        """Integrals of X_0..X_{r_max} against the law: b^{r/2}, 0 for odd r."""
        out = self._b ** (np.arange(r_max + 1) / 2.0)
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
    series' first omitted term is below 1e-17 there).  The series runs on z^2
    masked to 0 elsewhere, so large entries cannot overflow it."""
    z = np.asarray(z, dtype=np.float64)
    near = np.abs(z) < _ATAN_SERIES_BELOW
    far = np.where(near, 1.0, z)
    z2 = np.where(near, z, 0.0) ** 2
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

"""Kesten-McKay, arcsine, and semicircle laws with their moment structure."""

import numpy as np

from nbspectra.chebyshev import ExactPolynomial, poly_X, poly_Xrq
from nbspectra.spectra import (arcsine, kesten_mckay, orthogonality_check,
                               semicircle)

one = ExactPolynomial((1,))
sc, ar = semicircle(), arcsine()

print("density values at 0: semicircle", f"{sc.density(0.0):.6f}",
      "(1/pi), arcsine", f"{ar.density(0.0):.6f}", "(1/2pi)")

for q in (2.0, 5.0, 50.0):
    law = kesten_mckay(q)
    mass = law.moment(one)
    moments = [law.moment(poly_X(r)) for r in range(5)]
    print(f"\nmu_{q:g}: mass {mass:.12f}; X_r moments r=0..4:",
          ["%.6f" % m for m in moments], "(even r give q^{-r/2})")
    print(f"  orthogonality table deviation (n, m <= 8): "
          f"{orthogonality_check(q, 8):.2e}")

print("\nsemicircle moments: x^2 ->",
      f"{sc.moment(ExactPolynomial((0, 0, 1))):.9f},",
      "x^4 ->", f"{sc.moment(ExactPolynomial((0, 0, 0, 0, 1))):.9f},",
      "Y_2 ->", f"{sc.moment(poly_Xrq(2, 1)):.9f}")

print("\narcsine quantiles -2 cos(pi p):",
      [f"{ar.idf(p):+.4f}" for p in (0.1, 1 / 3, 0.5, 0.9)])

grid = np.linspace(-2, 2, 9)
print("\nKesten-McKay densities approach the semicircle as q grows:")
for q in (3.0, 10.0, 100.0):
    gap = np.abs(kesten_mckay(q).density(grid) - sc.density(grid)).max()
    print(f"  q={q:g}: sup gap on grid {gap:.5f} (bound 2/(q-2) = {2/(q-2):.5f})")

"""The polynomial bridge between adjacency spectra and NBW counts.

Shows the X_r family, the scaled-argument identity linking A_r to X_{r,q},
and the three trace identities, all checked against exact integer counts.
"""

from fractions import Fraction

from nbspectra.chebyshev import generating_function_residual, poly_X, poly_Xrq
from nbspectra.multigraph import complete_graph, petersen_graph
from nbspectra.nbmatrix import trace_identities_report, verify_friedman_identity

print("X_r coefficients (ascending):")
for r in range(5):
    print(f"  X_{r}:", [str(c) for c in poly_X(r).coeffs])
print("binomial form obeys X_{r+1} = x X_r - X_{r-1} for r < 64:",
      all((poly_X(1) * poly_X(r) - poly_X(r - 1)).coeffs == poly_X(r + 1).coeffs
          for r in range(64)))
print("X_{2,q} at q=3:", [str(c) for c in poly_Xrq(2, Fraction(3)).coeffs])

print("\ngenerating-function residual at (x, t, q) = (1.0, 0.2, 3):")
for r_max in (10, 20, 40):
    print(f"  r_max={r_max}: {generating_function_residual(r_max, 1.0, 0.2, 3):.3e}")

for name, g in [("K4", complete_graph(4)), ("Petersen", petersen_graph())]:
    dev = verify_friedman_identity(g, 10)
    rep = trace_identities_report(g, 10)
    print(f"\n{name}: matrix identity deviation {dev:.2e}, "
          f"trace identities worst {rep.max_deviation:.2e}")

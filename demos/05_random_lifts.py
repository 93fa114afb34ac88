"""Random N-lifts: spectra converge to the Kesten-McKay law as N grows.

A lift is its (edges, N) array of permutations, one row per base edge: the
same array builds the covering graph and the permutation color, whose block
adjacency is the lift adjacency exactly.  Haar-unitary colors stay controlled
by the same NBW statistic.
"""

import numpy as np

from nbspectra.cli import lift_convergence
from nbspectra.multigraph import complete_graph
from nbspectra.random_models import (RngStream, haar_unitary_color,
                                     permutation_color, sample_lift)
from nbspectra.spectra import kesten_mckay, spectral_measure, wasserstein_p

k4 = complete_graph(4)
perms, lifted = sample_lift(k4, 8, RngStream(7))
mu_lift = spectral_measure(lifted)
mu_color = spectral_measure(k4, permutation_color(k4, perms))
print("lift of K4 with fold 8:", perms.shape, "permutation array,",
      lifted.n_vertices, "vertices;",
      "colored-matrix spectrum matches the lift spectrum to",
      f"{np.abs(mu_lift.points - mu_color.points).max():.2e}")

target = kesten_mckay(2.0)
print("\nW_1 distance to the Kesten-McKay law along an N ladder "
      "(10 trials each):")
result = lift_convergence(k4, [2, 8, 32], trials=10, seed=3, r_max=4,
                          p_list=[1.0])
for fold, p, mean, se, trials in result["distance_rows"]:
    print(f"  N={fold:>3}: mean W_1 = {mean:.5f} +- {se:.5f}")

haar = haar_unitary_color(k4, 3, RngStream(4))
mu_haar = spectral_measure(k4, haar)
print("\nHaar-colored K4 (blocks 3x3): measure has", mu_haar.size,
      "atoms inside [-2.122, 2.122]; W_1 to the law:",
      f"{wasserstein_p(mu_haar, target, 1):.5f}",
      "(uncolored:", f"{wasserstein_p(spectral_measure(k4), target, 1):.5f})")

"""Haar-colored complete graphs: a colored growing-degree family, no sampler.

K_{q+2} is (q+1)-regular for every q, and a Haar-unitary N x N block on each
edge turns it into an nN x nN Hermitian matrix whose normalized spectrum
follows Kesten-McKay(q) as N grows.  Along q that law tends to the
semicircle, at W_p(KM(q), SC) of order 1/q.  With no trivial atom at
(q+1)/sqrt(q), every W_p falls along q, W_8 included, and the triangle
inequality ties W_p(mu, SC), W_p(mu, KM(q)) and the law-law distance.
"""

import time

from nbspectra.multigraph import complete_graph
from nbspectra.random_models import RngStream, haar_unitary_color
from nbspectra.spectra import kesten_mckay, semicircle, spectral_measure, wasserstein_p

QS = (3, 7, 15, 31, 63, 127)
PS = (1.0, 2.0, 4.0, 8.0)
SC = semicircle()

for size in (256, 1024):
    start = time.perf_counter()
    print(f"one Haar draw per q at nN ~ {size}; W_p to the semicircle unless marked:")
    print(f"  {'q':>4} {'N':>4} {'W_1':>8} {'W_2':>8} {'W_4':>8} {'W_8':>8}"
          f" {'W_1 KM':>8} {'W_1(KM,SC)':>10} {'max|x|':>7}")
    for q in QS:
        g = complete_graph(q + 2)
        fold = max(1, round(size / g.n_vertices))
        mu = spectral_measure(g, haar_unitary_color(g, fold, RngStream(q)))
        km = kesten_mckay(float(q))
        w = [wasserstein_p(mu, SC, p) for p in PS]
        print(f"  {q:>4} {fold:>4} " + " ".join(f"{x:8.4f}" for x in w)
              + f" {wasserstein_p(mu, km, 1.0):8.4f} {wasserstein_p(km, SC, 1.0):10.4f}"
              + f" {abs(mu.points).max():7.3f}")
    print(f"  ({time.perf_counter() - start:.1f} s)\n")

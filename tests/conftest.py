"""Shared fixtures: named graphs, the random regular-graph corpus, and
closed-form oracles used by several test modules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nbspectra.multigraph import (MultiGraph, build_from_edge_list,
                                  complete_graph, cycle_graph, petersen_graph)
from nbspectra.random_models import RngStream, sample_regular_graph


def pairing_multigraph(n: int, d: int, seed: int) -> MultiGraph:
    """A uniform pairing of n cells of d points, loops and multi-edges kept."""
    points = np.random.default_rng(seed).permutation(n * d).reshape(-1, 2) // d
    return build_from_edge_list([(int(u), int(v)) for u, v in points], n)


def nbw_circuit_identity(f: list[int], c: list[int], q: int, r: int) -> bool:
    """f_r = c_r + (q-1) sum_{1 <= i < r/2} q^(i-1) c_{r-2i}, exactly: a
    closed NBW on a (q+1)-regular graph is a circuit with a tail at its start."""
    tails = sum(q ** (i - 1) * c[r - 2 * i] for i in range(1, (r + 1) // 2))
    return f[r] == c[r] + (q - 1) * tails


def trivial_color(g: MultiGraph, block_dim: int = 1) -> np.ndarray:
    """The coloring of ``g`` by N x N identity blocks: a read-only (edges, N, N) array."""
    eye = np.eye(block_dim, dtype=np.complex128)
    return np.broadcast_to(eye, (g.n_edges, block_dim, block_dim))


def cycle_idf_closed_form(m: int, p: float) -> float:
    """Step-function IDF of the m-cycle spectral measure, closed form.

    Derived from the sorted eigenvalue multiset {2 cos(2 pi k / m)}; stated for
    points away from the breakpoints.
    """
    if p > (m - 1) / m:
        return 2.0
    if m % 2 == 0:
        if p < 1.0 / m:
            return -2.0
        k = int(math.floor((p * m + 1.0) / 2.0))
        return -2.0 * math.cos(2.0 * k * math.pi / m)
    k = math.ceil(p * m / 2.0)
    return -2.0 * math.cos((2.0 * k - 1.0) * math.pi / m)


@pytest.fixture(scope="session")
def k4() -> MultiGraph:
    return complete_graph(4)


@pytest.fixture(scope="session")
def c4() -> MultiGraph:
    return cycle_graph(4)


@pytest.fixture(scope="session")
def c6() -> MultiGraph:
    return cycle_graph(6)


@pytest.fixture(scope="session")
def petersen() -> MultiGraph:
    return petersen_graph()


@pytest.fixture(scope="session")
def named_graphs(k4, c4, c6, petersen):
    return [("K4", k4), ("C4", c4), ("C6", c6), ("Petersen", petersen)]


def make_regular_corpus(count: int = 200) -> list[tuple[str, MultiGraph]]:
    """Uniform simple regular graphs with n <= 40 and d in {3, 4}."""
    corpus = []
    sizes = list(range(6, 41, 2))
    for i in range(count):
        degree = 3 if i % 2 == 0 else 4
        n = sizes[i % len(sizes)]
        g = sample_regular_graph(n, degree, RngStream(seed=1000 + i))
        corpus.append((f"rand{i}_n{n}_d{degree}", g))
    return corpus


@pytest.fixture(scope="session")
def regular_corpus():
    return make_regular_corpus()

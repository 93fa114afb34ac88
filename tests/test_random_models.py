"""Seeded samplers, lifts, colors, and Monte-Carlo estimators."""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from nbspectra import random_models
from nbspectra.multigraph import (build_from_edge_list, complete_graph,
                                  cycle_graph, enumerate_circles, girth)
from nbspectra.nbmatrix import adjacency, colored_adjacency
from nbspectra.random_models import (RetryBudgetError, RngStream,
                                     SamplerError, cycle_moment_estimate,
                                     haar_unitary_color, lift_graph,
                                     nica_trace_estimate, permutation_color,
                                     poisson_cycle_rate, sample_lift,
                                     sample_regular_graph)
from nbspectra.spectra import spectral_measure


# -- rng streams ---------------------------------------------------------------

def test_stream_determinism():
    a = RngStream(7, 3).generator().integers(0, 1 << 30, size=8)
    b = RngStream(7, 3).generator().integers(0, 1 << 30, size=8)
    assert (a == b).all()
    c = RngStream(7, 4).generator().integers(0, 1 << 30, size=8)
    assert (a != c).any()


def test_child_streams_distinct():
    root = RngStream(1)
    seen = {root.child(i).stream_id for i in range(100)}
    assert len(seen) == 100
    assert root.child(5) == root.child(5)


# -- regular graph sampler --------------------------------------------------------

def test_unique_cubic_graph_on_four_vertices():
    for seed in range(5):
        g = sample_regular_graph(4, 3, RngStream(seed))
        assert g.canonical_edge_list() == complete_graph(4).canonical_edge_list()


def test_sampler_determinism_and_simplicity():
    g1 = sample_regular_graph(100, 3, RngStream(12))
    g2 = sample_regular_graph(100, 3, RngStream(12))
    assert g1.canonical_edge_list() == g2.canonical_edge_list()
    assert list(g1.degrees) == [3] * 100
    assert girth(g1) >= 3
    z = enumerate_circles(g1, 2)
    assert z[1] == 0 and z[2] == 0


def test_sampler_parameter_validation():
    with pytest.raises(SamplerError):
        sample_regular_graph(5, 3, RngStream(0))  # odd n * d
    with pytest.raises(SamplerError):
        sample_regular_graph(4, 4, RngStream(0))  # d >= n
    with pytest.raises(SamplerError):
        sample_regular_graph(4, 0, RngStream(0))


def test_sampler_retry_budget_error(monkeypatch):
    monkeypatch.setattr(random_models, "DEFAULT_RETRY_BUDGET", 1)
    with pytest.raises(RetryBudgetError, match="attempts"):
        # budget 1 at d = 5 fails with overwhelming probability; seed chosen
        # so the first pairing is not simple
        sample_regular_graph(12, 5, RngStream(0))


def test_sampler_irregular_build_is_an_internal_error(monkeypatch):
    # a graph builder that loses an edge must trip the regularity trap, which
    # raises RuntimeError (exit 1) and survives python -O
    build = random_models.build_from_edge_list
    monkeypatch.setattr(random_models, "build_from_edge_list",
                        lambda edges, n: build(edges[:-1], n))
    with pytest.raises(RuntimeError, match="not 3-regular"):
        sample_regular_graph(20, 3, RngStream(5))


def test_samples_are_uniformish_over_labeled_cubic_graphs():
    # n=6, d=3 has 70 labeled simple cubic graphs in two isomorphism classes:
    # K_{3,3} (10 copies) and the prism/Mobius class (60 copies); check both appear
    triangle_free = 0
    trials = 60
    for seed in range(trials):
        g = sample_regular_graph(6, 3, RngStream(9000 + seed))
        triangle_free += int(girth(g) >= 4)
    assert 0 < triangle_free < trials


def _labeled_regular_graphs(n: int, d: int) -> list[tuple[tuple[int, int], ...]]:
    """Every labeled simple d-regular graph on n vertices, by brute force."""
    graphs = []
    for edges in itertools.combinations(itertools.combinations(range(n), 2),
                                        n * d // 2):
        degree = Counter(v for e in edges for v in e)
        if all(degree[v] == d for v in range(n)):
            graphs.append(edges)
    return graphs


@pytest.mark.parametrize("n, d, count", [(6, 3, 70), (7, 4, 465)])
def test_samples_are_uniform_over_all_labeled_graphs(n, d, count):
    # exhaustive oracle: every labeled graph equally likely.  These sizes are
    # too small for switchings (K_{3,3} is no switching's image), so the
    # sampler rejects every non-simple pairing here
    graphs = _labeled_regular_graphs(n, d)
    assert len(graphs) == count
    index = {g: i for i, g in enumerate(graphs)}
    hits = np.zeros(count)
    for trial in range(10 * count):
        g = sample_regular_graph(n, d, RngStream(4242, trial))
        hits[index[tuple(g.canonical_edge_list())]] += 1
    assert chisquare(hits).pvalue > 1e-3


def _cycle_type(g) -> tuple[int, ...]:
    """Sorted cycle lengths of a simple 2-regular graph."""
    nbrs = {v: [] for v in range(g.n_vertices)}
    for u, v in g.edge_list():
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, lengths = set(), []
    for start in range(g.n_vertices):
        if start in seen:
            continue
        prev, cur, size = None, start, 0
        while cur not in seen:
            seen.add(cur)
            size += 1
            prev, cur = cur, next(w for w in nbrs[cur] if w != prev)
        lengths.append(size)
    return tuple(sorted(lengths))


def _partitions(n: int, smallest: int = 3):
    if n == 0:
        yield ()
    for part in range(smallest, n + 1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _chisquare_pvalue(counts: Counter, weights: dict) -> float:
    """Chi-square of class counts against probabilities proportional to
    weights; the rarest classes share one bin of expected count >= 10."""
    classes = sorted(weights, key=weights.get)
    total = sum(weights.values())
    draws = sum(counts.values())
    expected = np.array([draws * weights[c] / total for c in classes])
    observed = np.array([counts[c] for c in classes], dtype=float)
    pool = np.cumsum(expected) < 10.0
    if pool.any():
        expected = np.append(expected[~pool], expected[pool].sum())
        observed = np.append(observed[~pool], observed[pool].sum())
    return chisquare(observed, expected).pvalue


def test_switched_samples_are_uniform_over_labeled_two_regular_graphs(caplog):
    # The switchings serve a class only where their inverse-count lower bound
    # is positive: from n = 10 at d = 2 and n = 12 at d = 3.  The 94 cubic
    # classes on 12 vertices have no cheap labels, but a 2-regular graph is a
    # union of cycles: its isomorphism class is its cycle type, with
    # n! / prod_k (2k)^{m_k} m_k! labelings.  At n = 10 the inverse counts of
    # the classes differ by up to 65%, so a sampler without b-rejection, or
    # with only its first stage, is visibly biased on the switched samples,
    # which are checked on their own.
    n = 10
    weights = {}
    for cycles in _partitions(n):
        aut = 1
        for k, m in Counter(cycles).items():
            aut *= (2 * k) ** m * math.factorial(m)
        weights[cycles] = math.factorial(n) // aut
    # independent total: the cycle through vertex 0 has k - 1 other vertices
    total = [1, 0, 0]
    for m in range(3, n + 1):
        total.append(sum(math.comb(m - 1, k - 1) * math.factorial(k - 1) // 2
                         * total[m - k] for k in range(3, m + 1)))
    assert sum(weights.values()) == total[n]

    caplog.set_level(logging.DEBUG, logger="nbspectra.random_models")
    every, switched = Counter(), Counter()
    for trial in range(20000):
        seen = len(caplog.records)
        cycles = _cycle_type(sample_regular_graph(n, 2, RngStream(31337, trial)))
        every[cycles] += 1
        if any(r.getMessage().startswith("switched away")
               for r in caplog.records[seen:]):
            switched[cycles] += 1
    assert sum(switched.values()) >= 3000, switched
    assert _chisquare_pvalue(every, weights) > 1e-3
    assert _chisquare_pvalue(switched, weights) > 1e-3


# -- lifts ------------------------------------------------------------------------

def test_identity_lift_is_disjoint_copies(k4):
    lifted = lift_graph(k4, np.tile(np.arange(3), (k4.n_edges, 1)))
    mu_base = spectral_measure(k4)
    mu_lift = spectral_measure(lifted)
    assert np.allclose(mu_lift.points, np.sort(np.tile(mu_base.points, 3)),
                       atol=1e-9)


def test_fold_one_lift_is_base(k4):
    perms, lifted = sample_lift(k4, 1, RngStream(2))
    assert np.array_equal(perms, np.zeros((k4.n_edges, 1)))
    assert lifted.canonical_edge_list() == k4.canonical_edge_list()


def test_loop_lift_three_cycle():
    base = build_from_edge_list([(0, 0)], 1)
    lifted = lift_graph(base, [(1, 2, 0)])
    assert lifted.canonical_edge_list() == cycle_graph(3).canonical_edge_list()


def test_lift_regularity_and_size(petersen):
    perms, lifted = sample_lift(petersen, 4, RngStream(3))
    assert perms.shape == (petersen.n_edges, 4)
    assert lifted.n_vertices == 40
    assert list(lifted.degrees) == [3] * 40


def test_permutation_color_reproduces_lift(c4):
    perms, lifted = sample_lift(c4, 2, RngStream(8))
    color = permutation_color(c4, perms)
    a_sigma = colored_adjacency(c4, color)
    assert np.abs(a_sigma.imag).max() == 0.0
    assert np.array_equal(a_sigma.real.astype(np.int64), adjacency(lifted))


def test_loop_base_lift_matches_colored_adjacency():
    # loops are the delicate convention: each one carries a block and its
    # adjoint, and fixed points of the permutation become lift loops
    base = build_from_edge_list([(0, 0), (0, 0)], 1)  # 4-regular bouquet
    perms, lifted = sample_lift(base, 5, RngStream(44))
    color = permutation_color(base, perms)
    a_sigma = colored_adjacency(base, color)
    assert np.abs(a_sigma.imag).max() == 0.0
    assert np.array_equal(a_sigma.real.astype(np.int64), adjacency(lifted))
    mu_lift = spectral_measure(lifted)
    mu_col = spectral_measure(base, color)
    assert np.abs(mu_lift.points - mu_col.points).max() <= 1e-9


def test_single_swap_lift_of_c4_is_c8(c4):
    perms = [(0, 1), (0, 1), (0, 1), (1, 0)]
    lifted = lift_graph(c4, perms)
    assert girth(lifted) == 8
    mu = spectral_measure(lifted)
    expect = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
    assert np.allclose(mu.points, expect, atol=1e-9)


_LOOPS_AND_DOUBLES = build_from_edge_list([(0, 0), (0, 1), (0, 1), (1, 1), (1, 2),
                                           (2, 2), (2, 0)], 3)


@pytest.mark.parametrize("bad, what", [
    (np.zeros((6, 3), dtype=np.int64), "one permutation of 0..N-1 per base edge"),    # repeated entries
    (np.tile([0, 1, 5], (6, 1)), "one permutation of 0..N-1 per base edge"),          # entry past N - 1
    (np.tile([0, -1, 2], (6, 1)), "one permutation of 0..N-1 per base edge"),         # negative entry
    (np.tile(np.arange(3), (5, 1)), "one permutation of 0..N-1 per base edge"),  # too few rows
    (np.arange(3), "one permutation of 0..N-1 per base edge"),            # not 2-D
    (np.zeros((6, 0), dtype=np.int64), "one permutation of 0..N-1 per base edge"),  # N = 0
    (np.tile([0.5, 1.0, 2.0], (6, 1)), "one permutation of 0..N-1 per base edge"),  # not integer
])
def test_lift_rejects_rows_that_are_not_permutations(k4, bad, what):
    with pytest.raises(SamplerError, match=what):
        lift_graph(k4, bad)
    with pytest.raises(SamplerError, match=what):
        permutation_color(k4, bad)


@pytest.mark.parametrize("fold", [0, -2])
def test_sample_lift_rejects_a_fold_below_one(k4, fold):
    with pytest.raises(SamplerError, match="one permutation of 0..N-1 per base edge"):
        sample_lift(k4, fold, RngStream(0))


@pytest.mark.parametrize("dim", [0, -2])
def test_haar_color_rejects_a_block_dimension_below_one(k4, dim):
    with pytest.raises(SamplerError, match="block dimension must be >= 1"):
        haar_unitary_color(k4, dim, RngStream(0))


def _lift_reference(base, n_fold, rng):
    """One ``permutation(N)`` draw per base edge, in edge order."""
    gen = rng.generator()
    return np.array([gen.permutation(n_fold) for _ in range(base.n_edges)])


def _haar_reference(g, block_dim, rng):
    """Per-edge Haar blocks: Gaussian real then imaginary part, QR, phase fix."""
    gen = rng.generator()
    blocks = []
    for _ in range(g.n_edges):
        z = (gen.standard_normal((block_dim, block_dim))
             + 1j * gen.standard_normal((block_dim, block_dim))) / math.sqrt(2.0)
        q_mat, r_mat = np.linalg.qr(z)
        d = np.diagonal(r_mat)
        blocks.append(q_mat * (d / np.abs(d)))
    return blocks


@pytest.mark.parametrize("fold", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 17])
def test_edge_arrays_match_the_per_edge_references(k4, petersen, fold, seed):
    for g in (k4, petersen, _LOOPS_AND_DOUBLES):
        rng = RngStream(seed, 3)
        perms, lifted = sample_lift(g, fold, rng)
        want = _lift_reference(g, fold, rng)
        assert perms.dtype == np.int64 and perms.tobytes() == want.tobytes()
        tails = np.repeat(g.origin[0::2], fold) * fold + np.tile(np.arange(fold), g.n_edges)
        heads = (g.head[0::2, None] * fold + want).ravel()
        assert lifted.canonical_edge_list() == build_from_edge_list(
            np.stack((tails, heads), axis=-1), g.n_vertices * fold).canonical_edge_list()
        color = permutation_color(g, perms)
        for k, pi in enumerate(want):
            block = np.zeros((fold, fold), dtype=np.complex128)
            block[np.arange(fold), pi] = 1.0
            assert color[k].tobytes() == block.tobytes()
        haar = haar_unitary_color(g, fold, rng)
        for k, block in enumerate(_haar_reference(g, fold, rng)):
            assert haar[k].tobytes() == block.tobytes()


# -- haar colors --------------------------------------------------------------------

def test_haar_blocks_unitary(petersen):
    color = haar_unitary_color(petersen, 4, RngStream(5))
    eye = np.eye(4)
    for dart in range(petersen.n_darts):
        b = color[dart // 2] if dart % 2 == 0 else color[dart // 2].conj().T
        assert np.abs(b @ b.conj().T - eye).max() < 1e-12
        svals = np.linalg.svd(b, compute_uv=False)
        assert np.abs(svals - 1.0).max() < 1e-12


def test_haar_phase_when_one_dimensional(k4):
    color = haar_unitary_color(k4, 1, RngStream(6))
    h = colored_adjacency(k4, color)
    assert np.abs(h - h.conj().T).max() < 1e-14
    for k in range(k4.n_edges):
        assert abs(abs(color[k, 0, 0]) - 1.0) < 1e-13


def test_haar_trace_power_moments():
    # Haar U in U(N) has E|tr U^k|^2 = min(k, N) (Diaconis & Shahshahani 1994);
    # a QR factor without the phase fix misses k = 1 by about 30 standard errors
    blocks, dim = 4000, 3
    loops = build_from_edge_list([(0, 0)] * blocks, 1)
    color = haar_unitary_color(loops, dim, RngStream(12345))
    unitaries = color
    power = unitaries
    for k in range(1, 7):
        sq = np.abs(np.trace(power, axis1=1, axis2=2)) ** 2
        stderr = sq.std(ddof=1) / math.sqrt(blocks)
        assert abs(sq.mean() - min(k, dim)) <= 4.0 * stderr, k
        power = power @ unitaries


# -- Nica estimates --------------------------------------------------------------------

def test_permutation_power_inverts_negative_exponents():
    perm = RngStream(6).generator().permutation(9)
    assert (random_models._permutation_power(perm, -1)[perm] == np.arange(9)).all()
    assert (random_models._permutation_power(perm, -3)[random_models._permutation_power(perm, 3)]
            == np.arange(9)).all()


def test_nica_empty_word_is_identity():
    assert nica_trace_estimate([], 10, 5, RngStream(0)) == 1.0


def test_nica_single_letter_fixed_points():
    trials, n = 2000, 100
    est = nica_trace_estimate([(1, 1)], n, trials, RngStream(3))
    sigma = 1.0 / (n * math.sqrt(trials))
    assert abs(est - 1.0 / n) <= 3.0 * sigma * 5  # generous: Var(fix) ~ 1


def test_nica_word_validation():
    with pytest.raises(SamplerError):
        nica_trace_estimate([(1, 0)], 10, 5, RngStream(0))
    with pytest.raises(SamplerError):
        nica_trace_estimate([(1, 1), (1, 2)], 10, 5, RngStream(0))
    with pytest.raises(SamplerError, match="dimension must be at least 1"):
        nica_trace_estimate([(1, 1)], 0, 5, RngStream(0))


def test_nica_two_letter_word_decreases():
    word = [(1, 1), (2, 1)]
    ests = [abs(nica_trace_estimate(word, n, 600, RngStream(4)))
            for n in (25, 100, 400)]
    assert ests[0] > ests[2]
    assert ests[2] < 0.02


def test_nica_inverse_exponent():
    # t^1 t^{-1} words with distinct letters still admissible
    est = nica_trace_estimate([(1, 2), (2, -1)], 50, 400, RngStream(5))
    assert abs(est) < 0.1


# -- cycle moments -----------------------------------------------------------------------

def test_cycle_moment_estimates_match_poisson_rate():
    lam = poisson_cycle_rate(3, 3)
    assert lam == pytest.approx(8.0 / 6.0)
    mean, mean_sq = cycle_moment_estimate(200, 3, 3, 400, RngStream(77))
    assert mean >= 0.0
    sigma = math.sqrt(lam / 400)
    assert abs(mean - lam) <= 5.0 * sigma
    assert mean_sq >= mean ** 2


def test_cycle_moment_validation():
    with pytest.raises(SamplerError):
        cycle_moment_estimate(20, 3, 0, 5, RngStream(0))
    with pytest.raises(SamplerError):
        cycle_moment_estimate(20, 3, 3, 0, RngStream(0))

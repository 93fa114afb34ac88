"""Non-backtracking matrices, trace identities, and unitary colors."""

from __future__ import annotations

import copy
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pairing_multigraph, trivial_color
from nbspectra import multigraph, nbmatrix
from nbspectra.multigraph import (GraphError, MultiGraph, RegularityError, brute_walk_counts,
                                  build_from_edge_list, complete_graph,
                                  cycle_graph, girth, petersen_graph,
                                  walk_census)
from nbspectra.nbmatrix import (ColorError,
                                ColorInvariantError, adjacency,
                                circuit_count_sequence, colored_adjacency,
                                exact_int_dot,
                                nb_matrix_sequence,
                                nb_trace_sequence,
                                trace_identities_report,
                                verify_friedman_identity)
from nbspectra.random_models import (RngStream, haar_unitary_color,
                                     permutation_color, sample_lift,
                                     sample_regular_graph)
from nbspectra.spectra import (DiscreteSpectralMeasure, eigenvalues_symmetric,
                               spectral_measure)


# -- adjacency ----------------------------------------------------------------

def test_adjacency_cycle():
    a = adjacency(cycle_graph(4))
    assert a.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def test_adjacency_complete():
    a = adjacency(complete_graph(4))
    assert (a == 1 - np.eye(4, dtype=np.int64) + np.diag([0, 0, 0, 0])).all()
    assert (a.diagonal() == 0).all()


def test_adjacency_loop_counts_twice():
    g = build_from_edge_list([(0, 0)], 1)
    assert adjacency(g).tolist() == [[2]]


def test_adjacency_symmetry_on_multigraph():
    g = build_from_edge_list([(0, 1), (0, 1), (1, 1), (1, 2)], 3)
    a = adjacency(g)
    assert (a == a.T).all()
    assert a[0, 1] == 2 and a[1, 1] == 2


# -- exact integer products ------------------------------------------------------

def _dense(table: np.ndarray, n_cols: int) -> np.ndarray:
    """The object matrix whose gather table is ``table``: entry (i, k) counts
    the slots of row i that list k."""
    out = np.zeros((table.shape[0], n_cols), dtype=object)
    for i, listed in enumerate(table.tolist()):
        for k in listed:
            out[i, k] += 1
    return out


def _bound(table: np.ndarray, a: np.ndarray) -> int:
    """The least bound ``exact_int_dot`` takes: max_j sum_k |a_kj| times the
    largest entry of the factor, or 1."""
    col_sums = [sum(abs(int(x)) for x in col) for col in a.T]
    return max(col_sums, default=0) * max([1, *_dense(table, a.shape[0]).flat])


def test_exact_dot_object_fallback_matches_small_case():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 5, size=(6, 6)).astype(np.int64).T
    table = rng.integers(0, 6, size=(6, 4))  # repeats
    fast = exact_int_dot(table, a, _bound(table, a))
    assert fast.dtype == np.int64
    assert (fast == np.dot(_dense(table, 6), a.astype(object))).all()
    # force the arbitrary-precision path with huge entries
    big = np.full((3, 3), 2 ** 62, dtype=np.int64)
    table = np.array([[0, 1, 2]] * 3)
    exact = exact_int_dot(table, big, _bound(table, big))
    assert exact.dtype == object
    assert exact[0, 0] == 3 * 2 ** 62


def test_exact_dot_bounds_negative_entries():
    # max(a) = 1 would bound the product by 2, but the negative entry takes
    # it below -2^63, out of int64: the bound sums |a_kj|
    a = np.array([[1], [-(2 ** 62 + 1)]], dtype=np.int64)
    table = np.array([[0, 1, 1]])
    exact = exact_int_dot(table, a, _bound(table, a))
    assert exact.dtype == object
    assert exact[0, 0] == 1 - 2 * (2 ** 62 + 1)


@st.composite
def _gather_products(draw):
    """An integer matrix a (m x n) and a gather table of p rows whose slots
    repeat rows of a: signed int64 entries of magnitude up to 3, 2^31 or the
    int64 range, zero entries, and object inputs scaled past int64."""
    n, m, p, width = (draw(st.integers(0, 5)) for _ in range(4))
    scale = draw(st.sampled_from((3, 2 ** 31, 2 ** 63 - 1)))
    entries = draw(st.lists(st.one_of(st.just(0), st.integers(-scale - 1, scale)),
                            min_size=n * m, max_size=n * m))
    a = np.array(entries, dtype=np.int64).reshape(m, n)
    if draw(st.booleans()):
        a = a.astype(object) * draw(st.sampled_from((1, 2 ** 40)))
    width *= m > 0  # an a with no rows has none to list
    slots = draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=p * width, max_size=p * width))
    return a, np.array(slots, dtype=np.int64).reshape(p, width)


@settings(max_examples=300, deadline=None)
@given(_gather_products())
@example((np.array([[2 ** 62], [2 ** 62 - 1]]), np.array([[0, 1]])))     # bound 2^63 - 1: int64
@example((np.array([[2 ** 62], [2 ** 62]]), np.array([[0, 1]])))         # bound 2^63: object
@example((np.array([[-2 ** 63]]), np.array([[0]])))                      # |int64 min| = 2^63: object
@example((np.array([[-1], [2 ** 40]]), np.array([[1, 1, 0], [0, 0, 0]])))  # repeats
def test_exact_dot_matches_object_oracle(case):
    # The least bound picks int64 below 2^63; any larger bound gives the
    # same values in objects.
    a, table = case
    oracle = np.dot(_dense(table, a.shape[0]), a.astype(object)).tolist()
    bound = _bound(table, a)
    for given in (bound, max(bound, 2 ** 63)):
        prod = exact_int_dot(table, a, given)
        assert prod.shape == (table.shape[0], a.shape[1])
        assert prod.tolist() == oracle
        assert prod.dtype == (np.int64 if given < 2 ** 63 else object)


@pytest.mark.parametrize("a, table, in_int64", [
    ([[2 ** 62 - 1]], [[0, 0]], True),                  # bound 2^63 - 2
    ([[2 ** 62], [2 ** 62 - 1]], [[0, 1]], True),       # bound 2^63 - 1
    ([[89547301328687144]], [[0] * 103], False),        # bound 2^63 + 24
    ([[-(2 ** 63 - 1)]], [[0]], True),                  # bound 2^63 - 1
    ([[-2 ** 63], [0]], [[0, 1]], False),               # |int64 min| = 2^63
], ids=["below-scaled", "below-summed", "above-scaled", "below-negative", "int64-min"])
def test_exact_dot_decides_by_the_exact_bound_near_two_to_the_63(a, table, in_int64):
    # The caller's bound, within a few units of 2^63, alone picks the path:
    # int64 exactly when it is below 2^63, for int64 and object a alike.
    table = np.array(table)
    for a in (np.array(a, dtype=np.int64), np.array(a, dtype=object)):
        bound = _bound(table, a)
        assert abs(bound - 2 ** 63) <= 24
        prod = exact_int_dot(table, a, bound)
        assert prod.dtype == (np.int64 if in_int64 else object)
        assert prod.tolist() == np.dot(_dense(table, a.shape[0]), a.astype(object)).tolist()


def test_exact_dot_rejects_a_slot_past_the_rows_of_a():
    a = np.arange(6, dtype=np.int64).reshape(3, 2)
    with pytest.raises(ValueError, match="index the 3 rows of a"):
        exact_int_dot(np.array([[0, 2], [3, 1]]), a, 1)


def hashimoto_matrix(g: MultiGraph) -> np.ndarray:
    """Dart transition matrix: B[d, d'] = 1 iff head(d) = origin(d'), d' != twin(d)."""
    table = g._nbw_table
    darts, slots = np.nonzero(table < g.n_darts)
    b = np.zeros((g.n_darts, g.n_darts), dtype=np.int64)
    b[darts, table[darts, slots]] = 1
    return b


def _dart_power_traces(g, r_max: int) -> list[int]:
    """tr(B^r) for r = 0..r_max from plain object powers of the dart matrix."""
    b = hashimoto_matrix(g).astype(object)
    power, traces = np.eye(g.n_darts, dtype=np.int64).astype(object), [0]
    for _ in range(r_max):
        power = power.dot(b)
        traces.append(int(np.trace(power)))
    return traces


@pytest.mark.parametrize("g", [build_from_edge_list([(0, 0)] * 4, 1),
                               pairing_multigraph(6, 5, 2),
                               build_from_edge_list([(0, 0), (0, 0), (0, 1), (0, 2), (1, 1),
                                                     (1, 2), (1, 2), (1, 2), (2, 2)], 3)],
                         ids=["bouquet", "pairing-d5", "loops-and-triple-edge"])
def test_circuit_counts_match_dart_power_traces(g):
    # Every r_max up to 38, odd and even, against plain object powers of the
    # dart matrix; the traces pass 2^63 on all three, so c is read off an f
    # whose products run in int64 first and in Python ints later.
    assert len(set(g.degrees)) == 1 and girth(g) == 1
    oracle = _dart_power_traces(g, 38)
    assert oracle[38] > 2 ** 63
    for r_max in range(39):
        assert circuit_count_sequence(g, r_max) == oracle[:r_max + 1], r_max


@pytest.mark.parametrize("g", [build_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5),
                               build_from_edge_list([(0, 0), (0, 1)], 2),
                               build_from_edge_list([(0, k) for k in range(1, 5)], 5)],
                         ids=["triangle-with-path", "loop-with-pendant", "star"])
def test_brute_counts_on_irregular_multigraphs(g):
    # A degree-1 vertex pads the NBW table with the phantom dart, and on the
    # star every path dies at a leaf by r = 3.  f against the irregular NB
    # recurrence A_2 = A^2 - D, A_r = A_{r-1} A - A_{r-2} (D - I) in Python
    # ints, c against tr(B^r).
    assert len(set(g.degrees)) > 1
    a = adjacency(g).astype(object)
    eye = np.eye(g.n_vertices, dtype=np.int64).astype(object)
    d = np.diag(g.degrees).astype(object)
    seq = [eye, a, a.dot(a) - d]
    for _ in range(3, 9):
        seq.append(seq[-1].dot(a) - seq[-2].dot(d - eye))
    f, c = brute_walk_counts(g, 8)
    assert f == [int(np.trace(m)) for m in seq]
    assert c == _dart_power_traces(g, 8)


@pytest.mark.parametrize("loops", [2, 4])
def test_bouquet_counts_match_closed_forms_across_int64(loops):
    # On a one-vertex bouquet A_r = [(q+1) q^(r-1)], so every product
    # A_{r-1} A meets its closed-form bound, and the dart matrix has
    # eigenvalues q (once), 1 (``loops`` times) and -1 (loops - 1 times),
    # so c_r = q^r + loops + (loops - 1)(-1)^r.  Both pass 2^63 by r = 60.
    g = build_from_edge_list([(0, 0)] * loops, 1)
    q = 2 * loops - 1
    assert [int(m[0, 0]) for m in list(nb_matrix_sequence(g, 60))[1:]] == [
        (q + 1) * q ** (r - 1) for r in range(1, 61)]
    assert circuit_count_sequence(g, 60) == [0] + [
        q ** r + loops + (loops - 1) * (-1) ** r for r in range(1, 61)]


def test_circuit_counts_take_half_the_products(monkeypatch):
    calls = []
    real = nbmatrix.exact_int_dot
    monkeypatch.setattr(nbmatrix, "exact_int_dot",
                        lambda table, a, bound: calls.append(1) or real(table, a, bound))
    for r_max, products in ((1, 0), (2, 0), (3, 1), (12, 5), (38, 18)):
        calls.clear()
        circuit_count_sequence(petersen_graph(), r_max)
        assert len(calls) == products, r_max


@pytest.mark.parametrize("g", [pairing_multigraph(12, 4, 0), pairing_multigraph(16, 4, 1),
                               build_from_edge_list([(0, 0), (0, 0)], 1)],
                         ids=["pairing12", "pairing16", "bouquet"])
def test_census_across_int64_matches_object_products(g, monkeypatch):
    # the counts pass 2^63 by r = 42, so the products switch from int64 to
    # Python ints partway through the A_r sequence that f and c are read from
    census = walk_census(g, 42)
    assert max(census.f) > 2 ** 63 and max(census.c) > 2 ** 63
    monkeypatch.setattr(nbmatrix, "exact_int_dot",
                        lambda table, a, bound: np.dot(_dense(table, a.shape[0]),
                                                       a.astype(object)))
    oracle = walk_census(g, 42)
    assert census.f == oracle.f
    assert census.c == oracle.c


# -- non-backtracking sequences ----------------------------------------------------

def test_nb_sequence_base_relations(k4):
    seq = list(nb_matrix_sequence(k4, 4))
    a = adjacency(k4)
    assert (seq[0] == np.eye(4, dtype=np.int64)).all()
    assert (seq[1] == a).all()
    assert (seq[2] + 3 * np.eye(4, dtype=np.int64) == a @ a).all()


@pytest.mark.parametrize("r_max", [-1, -2])
@pytest.mark.parametrize("fn", [
    lambda g, r_max: list(nb_matrix_sequence(g, r_max)), verify_friedman_identity,
    lambda g, r_max: verify_friedman_identity(g, r_max, trivial_color(g)),
    nb_trace_sequence, circuit_count_sequence, trace_identities_report, walk_census],
    ids=["nb_matrix_sequence", "verify_friedman_identity", "colored_nb_sequence",
         "nb_trace_sequence", "circuit_count_sequence", "trace_identities_report", "walk_census"])
def test_negative_r_max_is_rejected(petersen, fn, r_max):
    with pytest.raises(GraphError, match=f"r_max must be nonnegative, got {r_max}"):
        fn(petersen, r_max)


def test_nb_traces_equal_brute(k4, c4):
    assert int(np.trace(list(nb_matrix_sequence(k4, 3))[3])) == 24
    assert int(np.trace(list(nb_matrix_sequence(c4, 4))[4])) == 8
    for g in (k4, c4, petersen_graph()):
        traces = nb_trace_sequence(g, 7)
        f, _ = brute_walk_counts(g, 7)
        for r in range(8):
            assert traces[r] == f[r]


def _nb_traces_in_objects(g, r_max: int) -> list[int]:
    """tr(A_r) for r = 0..r_max from the recurrence in Python-int objects."""
    a = adjacency(g).astype(object)
    q = int(g.degrees[0]) - 1
    return [int(np.trace(m)) for m in nbmatrix._nb_recurrence(a, q, r_max, lambda m, r: m @ a)]


@pytest.mark.parametrize("g", [build_from_edge_list([(0, 0)] * 3, 1), pairing_multigraph(10, 5, 3),
                               pairing_multigraph(12, 4, 0), pairing_multigraph(9, 2, 1),
                               petersen_graph()],
                         ids=["bouquet", "pairing-d5", "pairing-d4", "pairing-d2", "petersen"])
def test_nb_traces_from_half_the_sequence_match_object_recurrence(g):
    # f_r is read from tr(A_j A_k), j = r // 2, k = r - j, for every r_max up
    # to 38, odd and even; the traces pass 2^63 from degree 5 on
    oracle = _nb_traces_in_objects(g, 38)
    assert (oracle[38] > 2 ** 63) == (g.degrees[0] >= 5)
    for r_max in range(39):
        assert nb_trace_sequence(g, r_max) == oracle[:r_max + 1], r_max


def test_nb_traces_take_half_the_products(monkeypatch):
    calls = []
    real = nbmatrix.exact_int_dot
    monkeypatch.setattr(nbmatrix, "exact_int_dot",
                        lambda table, a, bound: calls.append(1) or real(table, a, bound))
    for r_max, products in ((1, 0), (2, 0), (3, 1), (4, 1), (8, 3), (38, 18)):
        calls.clear()
        nb_trace_sequence(petersen_graph(), r_max)
        assert len(calls) == products, r_max
    # the census's only products are those of f: c follows in closed form
    calls.clear()
    walk_census(petersen_graph(), 38)
    assert len(calls) == 18


def test_nb_sequence_symmetric_nonnegative(petersen):
    for m in nb_matrix_sequence(petersen, 8):
        assert (m == m.T).all()
        assert (m >= 0).all()


def test_nb_sequence_row_sums(petersen, c4):
    # exactly (q+1) q^(r-1) NBWs of length r leave each vertex, which also
    # dominates the operator norm of A_r
    for g, q in ((petersen, 2), (c4, 1)):
        seq = list(nb_matrix_sequence(g, 8))
        for r in range(1, 9):
            assert (seq[r].sum(axis=1) == (q + 1) * q ** (r - 1)).all()


def test_nb_sequence_rejects_non_regular():
    path = build_from_edge_list([(0, 1), (1, 2)], 3)
    for sequence in (nb_matrix_sequence, nb_trace_sequence, circuit_count_sequence):
        with pytest.raises(RegularityError):
            sequence(path, 3)


# -- Hashimoto matrix ----------------------------------------------------------------

def test_hashimoto_traces_named(c4, k4):
    b = hashimoto_matrix(c4)
    assert (b.sum(axis=1) == 1).all()  # q = 1: single successor per dart
    assert circuit_count_sequence(c4, 4)[4] == 8
    assert circuit_count_sequence(k4, 3)[3] == 24


def test_hashimoto_matrix_matches_definition():
    g = build_from_edge_list([(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)], 3)
    darts = np.arange(g.n_darts)
    b = (g.head[:, None] == g.origin[None, :]) & (darts[None, :] != (darts ^ 1)[:, None])
    assert hashimoto_matrix(g).tolist() == b.astype(np.int64).tolist()


def test_hashimoto_matches_brute_on_samples():
    for seed in range(4):
        g = sample_regular_graph(12, 3, RngStream(400 + seed))
        c = circuit_count_sequence(g, 6)
        _, brute = brute_walk_counts(g, 6)
        for r in range(7):
            assert c[r] == brute[r]


# -- Friedman identity ------------------------------------------------------------------

def test_friedman_identity_named(petersen, c6):
    assert verify_friedman_identity(petersen, 10) < 1e-8
    assert verify_friedman_identity(c6, 12) < 1e-10
    assert verify_friedman_identity(petersen, 0) == 0.0


def test_friedman_identity_random_regular():
    for n, d, seed in ((16, 3, 0), (20, 4, 1), (12, 6, 2)):
        g = sample_regular_graph(n, d, RngStream(500 + seed))
        q = d - 1
        dev = verify_friedman_identity(g, 12)
        assert dev <= 1e-8 * (q + 1) * q ** 11


def test_friedman_check_refuses_r_max_past_float_range(k4):
    # A_r entries of K4 reach 3 * 2^(r-1), past the largest float at r = 1024;
    # the trace identities scale f_r and c_r, which pass it too, before rounding
    for r_max in (1024, 1100):
        with pytest.raises(ValueError, match="largest allowed r_max is 1023"):
            verify_friedman_identity(k4, r_max)
        with pytest.raises(ValueError, match="largest allowed r_max is 1023"):
            trace_identities_report(k4, r_max)
    with pytest.raises(ValueError, match="largest allowed r_max is 1023"):
        nb_matrix_sequence(k4, 1024, trivial_color(k4, 2))
    with pytest.raises(ValueError, match="largest allowed r_max is 1023"):
        verify_friedman_identity(k4, 1024, trivial_color(k4, 2))
    assert math.isfinite(verify_friedman_identity(k4, 1023))
    with np.errstate(all="raise"):
        assert math.isfinite(trace_identities_report(k4, 1023).max_deviation)


@pytest.mark.parametrize("q", [2, 3, 7, 1000])
def test_float_walk_bound_names_the_exact_largest_r_max(q):
    with pytest.raises(ValueError, match="largest allowed r_max") as info:
        nbmatrix._require_float_walks(q, 10 ** 6)
    largest = int(str(info.value).rsplit(" ", 1)[1])
    assert (q + 1) * q ** (largest - 1) <= sys.float_info.max < (q + 1) * q ** largest
    nbmatrix._require_float_walks(q, largest)


def test_friedman_deviation_keeps_nan(k4):
    seq = list(nb_matrix_sequence(k4, 4))
    seq[3] = seq[3].astype(np.float64)
    seq[3][0, 1] = np.nan
    devs = nbmatrix._friedman_deviations(2, seq)
    assert [math.isnan(dev) for dev in devs] == [False, False, False, True, False]
    assert math.isnan(np.max(devs))


def _stacked_friedman_deviations(a, q, seq) -> list[float]:
    """The earlier deviation pass: every X_r(A/sqrt(q)) stacked into one
    (r_max + 1) x n x n table, then the whole X_{r,q} table beside it."""
    m, r_max = a / math.sqrt(q), len(seq) - 1
    table = np.empty((r_max + 1,) + m.shape, dtype=m.dtype)
    table[0] = np.eye(m.shape[0])
    if r_max >= 1:
        table[1] = m
    for r in range(2, r_max + 1):
        table[r] = m @ table[r - 1] - table[r - 2]
    family = np.array(table)
    family[2:] -= table[:-2] / q
    return [float(np.abs(q ** (r / 2.0) * family[r] - np.asarray(s, dtype=family.dtype)).max())
            for r, s in enumerate(seq)]


def _assert_deviations_match_the_stacked_pass(a, q, seq):
    got = nbmatrix._friedman_deviations(q, seq)
    assert np.array(got).tobytes() == np.array(_stacked_friedman_deviations(a, q, seq)).tobytes()


@pytest.mark.parametrize("r_max", [0, 1, 2, 12])
def test_friedman_deviations_match_the_stacked_pass(named_graphs, regular_corpus, r_max):
    for _, g in [*named_graphs, *regular_corpus[::25]]:
        _assert_deviations_match_the_stacked_pass(
            adjacency(g), g.regular_degree - 1, list(nb_matrix_sequence(g, r_max)))


def test_friedman_deviations_match_the_stacked_pass_at_r_max_1023(k4):
    _assert_deviations_match_the_stacked_pass(adjacency(k4), 2, list(nb_matrix_sequence(k4, 1023)))


@pytest.mark.parametrize("fold", [4, 16])
def test_colored_friedman_deviations_match_the_stacked_pass(named_graphs, fold):
    for _, g in named_graphs:
        a = colored_adjacency(g, haar_unitary_color(g, fold, RngStream(fold)))
        q = g.regular_degree - 1
        _assert_deviations_match_the_stacked_pass(
            a, q, list(nbmatrix._nb_recurrence(a, q, 30, lambda m, r: m @ a)))


@pytest.mark.parametrize("fold, r_max", [(32, 12), (64, 30)])
def test_friedman_deviations_hold_a_few_matrices(k4, fold, r_max):
    # X_{r-2}, X_{r-1}, X_r, A / sqrt(q) and the terms of one deviation; the
    # stacked pass held 3 (r_max + 1) - 2 matrices
    a = colored_adjacency(k4, haar_unitary_color(k4, fold, RngStream(0)))
    seq = list(nbmatrix._nb_recurrence(a, 2, r_max, lambda m, r: m @ a))
    assert _traced_peak(nbmatrix._friedman_deviations, 2, seq) <= 8 * a.nbytes


def test_friedman_check_peak_at_n_256():
    # A_{r-2}, A_{r-1} and A_r as they stream, two adjacencies and the few
    # matrices of the deviation pass, whatever r_max; the whole A_r list held
    # 21 matrices at r_max 12 and 39 at r_max 30
    g = sample_regular_graph(256, 4, RngStream(1))
    for r_max in (12, 30):
        assert _traced_peak(verify_friedman_identity, g, r_max) <= 12 * 256 ** 2 * 8, r_max


def test_nb_traces_hold_a_few_matrices():
    # two A_j of the stream, the product being built and its terms; the list
    # A_0..A_6 held 10
    g = pairing_multigraph(1024, 8, 0)
    assert _traced_peak(nb_trace_sequence, g, 12) <= 6 * 1024 ** 2 * 8


def test_colored_friedman_check_holds_a_few_matrices(k4):
    # the stream's A_{r-2}, A_{r-1}, A_r and colored adjacency beside the deviation
    # pass, which reads M off A_1; the whole A_r^sigma list held 39 at r_max 30
    color = haar_unitary_color(k4, 64, RngStream(0))
    assert _traced_peak(verify_friedman_identity, k4, 30, color) <= 11 * (4 * 64) ** 2 * 16


def test_colored_sequence_rejects_a_nan_deviation(k4, monkeypatch):
    monkeypatch.setattr(nbmatrix, "_friedman_deviations", lambda q, seq: [math.nan for _ in seq])
    with pytest.raises(ColorInvariantError, match="nan"):
        verify_friedman_identity(k4, 4, trivial_color(k4))


def test_plain_friedman_check_rejects_a_nan_deviation(k4, monkeypatch):
    # the trap holds every r, colored or not
    monkeypatch.setattr(nbmatrix, "_friedman_deviations", lambda q, seq: [math.nan for _ in seq])
    with pytest.raises(ColorInvariantError, match="nan"):
        verify_friedman_identity(k4, 4)


# -- trace identities ---------------------------------------------------------------------

def test_trace_identities_named(k4, c4):
    assert trace_identities_report(k4, 8).max_deviation <= 1e-8
    assert trace_identities_report(k4, 0).max_deviation <= 1e-10  # no circuit term at r = 0
    rep = trace_identities_report(c4, 4)
    assert rep.max_deviation <= 1e-10
    # q = 1 on C4 at r = 4: Tr Y_4(A) = c_4 = 8, no even-term correction
    census = walk_census(c4, 4)
    assert census.c[4] == 8


def test_trace_identity_triangle_free(petersen):
    # girth 5: c_3 = 0 so Tr Y_3(q^{-1/2} A) must vanish
    rep = trace_identities_report(petersen, 3)
    assert rep.dev_circuit[2] <= 1e-10
    assert walk_census(petersen, 3).c[3] == 0


def test_trace_identities_reuse_census(petersen, monkeypatch):
    # f and c come off the traces, as in walk_census, with no circle enumeration
    def no_circles(g, r_max):
        raise AssertionError("trace identities enumerated circles")

    monkeypatch.setattr(multigraph, "enumerate_circles", no_circles)
    rep = trace_identities_report(petersen, 8)
    assert rep.max_deviation <= 1e-8


def test_negative_lengths_are_rejected(petersen):
    # the exact counts, and the identities read off them, reject a negative length
    for call in (nb_trace_sequence, circuit_count_sequence, trace_identities_report):
        with pytest.raises(GraphError, match="r_max must be nonnegative, got -1"):
            call(petersen, -1)


# -- one degree computation per graph -------------------------------------------------------

@pytest.fixture
def degree_computations(monkeypatch):
    """Runs of the ``MultiGraph.regular_degree`` body, keyed by graph id."""
    counts = {}
    real = vars(MultiGraph)["regular_degree"]

    def counted(g):
        counts[id(g)] = counts.get(id(g), 0) + 1
        return real.func(g)

    spy = copy.copy(real)  # caches as the real descriptor does
    spy.func = counted
    monkeypatch.setattr(MultiGraph, "regular_degree", spy)
    return counts


def test_census_pool_computes_each_degree_once(degree_computations):
    # the benchmark's census pool classes: six (n, d) at r_max 12, one at 38
    classes = [(40, 4, 12), (40, 3, 12), (36, 3, 12), (32, 4, 12), (28, 3, 12), (24, 4, 12),
               (64, 4, 38)]
    pool = [(pairing_multigraph(n, d, 1000 * n + 10 * d), r_max) for n, d, r_max in classes]
    for g, r_max in pool:
        walk_census(g, r_max)
    assert sorted(degree_computations.values()) == [1] * 7


def test_layers_compute_the_degree_once(degree_computations):
    calls = [lambda g: circuit_count_sequence(g, 10),
             lambda g: trace_identities_report(g, 10),
             lambda g: verify_friedman_identity(g, 10),
             lambda g: [spectral_measure(g, haar_unitary_color(g, 4, RngStream(t)))
                        for t in range(3)]]
    graphs = [petersen_graph() for _ in calls]
    for g, call in zip(graphs, calls):
        call(g)
    assert [degree_computations[id(g)] for g in graphs] == [1] * len(calls)


# -- colors -----------------------------------------------------------------------------------

def test_trivial_color_reproduces_adjacency(k4):
    color = trivial_color(k4)
    a_sigma = colored_adjacency(k4, color)
    assert np.abs(a_sigma - adjacency(k4)).max() == 0.0


def test_color_rejects_non_unitary(k4):
    for edge in (0, 3):
        blocks = [np.eye(2, dtype=np.complex128)] * k4.n_edges
        blocks[edge] = 2.0 * np.eye(2, dtype=np.complex128)
        with pytest.raises(ColorError, match=f"edge {edge}: block is not unitary"):
            colored_adjacency(k4, blocks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_color_rejects_non_finite_blocks(k4, bad):
    eye, broken = np.eye(2, dtype=np.complex128), np.diag([1.0, bad]).astype(np.complex128)
    for blocks, edge in (([np.full((2, 2), bad, dtype=np.complex128)] * k4.n_edges, 0),
                         ([eye] * (k4.n_edges - 1) + [broken], 5),
                         ([eye] * 3 + [broken, eye, broken], 3)):
        with pytest.raises(ColorError, match=f"edge {edge}: block has non-finite"):
            colored_adjacency(k4, blocks)


def test_color_rejects_wrong_edge_count(k4):
    with pytest.raises(ColorError, match="one block per edge"):
        colored_adjacency(k4, [np.eye(1, dtype=np.complex128)])


@pytest.mark.parametrize("blocks, message", [
    (np.zeros((6, 0, 0)), "one block per edge, N x N with N >= 1"),
    (np.broadcast_to(np.eye(0), (6, 0, 0)), "one block per edge, N x N with N >= 1"),
    ([np.eye(2)] * 3 + [np.eye(3)] * 3, r"edge 3: block shape \(3, 3\) != \(2, 2\)"),
    (np.zeros((6, 2, 3)), "one block per edge, N x N with N >= 1"),
    (np.ones(6), "one block per edge"),
], ids=["empty", "trivial-N0", "ragged", "non-square", "flat"])
def test_color_rejects_blocks_that_are_not_one_square_array(k4, blocks, message):
    with pytest.raises(ColorError, match=message):
        colored_adjacency(k4, blocks)


def test_color_twin_adjoint_exact(k4):
    # K4 is simple, so block (u, v) is edge k's block alone and block (v, u) its twin's
    dim = 3
    color = haar_unitary_color(k4, dim, RngStream(11))
    blocks = colored_adjacency(k4, color).reshape(4, dim, 4, dim)
    for k, (u, v) in enumerate(k4.edge_list()):
        assert np.array_equal(blocks[u, :, v], color[k])
        assert np.array_equal(blocks[v, :, u], blocks[u, :, v].conj().T)


def test_single_edge_phase_eigenvalues():
    g = build_from_edge_list([(0, 1)], 2)
    for theta in (0.0, 0.4, 2.2):
        color = [np.array([[np.exp(1j * theta)]])]
        h = colored_adjacency(g, color)
        eigs = np.linalg.eigvalsh(h)
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


def test_loop_coloring_diagonal_block():
    g = build_from_edge_list([(0, 0)], 1)  # 2-regular: one loop
    theta = 0.7
    color = [np.array([[np.exp(1j * theta)]])]
    h = colored_adjacency(g, color)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(2.0 * math.cos(theta), abs=1e-14)
    assert verify_friedman_identity(g, 6, color) <= 1e-8


def test_colored_sequence_trivial_matches_integer(k4):
    color = trivial_color(k4)
    assert verify_friedman_identity(k4, 8, color) <= 1e-8
    for got, want in zip(nb_matrix_sequence(k4, 8, color), nb_matrix_sequence(k4, 8)):
        assert np.abs(got - want).max() <= 1e-8


def test_colored_sequence_permutation_matches_lift(k4):
    perms, lifted = sample_lift(k4, 4, RngStream(21))
    color = permutation_color(k4, perms)
    assert verify_friedman_identity(k4, 8, color) <= 1e-8
    for got, want in zip(nb_matrix_sequence(k4, 8, color), nb_matrix_sequence(lifted, 8)):
        assert np.abs(got - want).max() <= 1e-7
        assert np.abs(got.imag).max() <= 1e-9


def test_colored_block_trace_bound(petersen):
    census = walk_census(petersen, 8)
    for fold, seed in ((3, 5), (2, 6)):
        color = haar_unitary_color(petersen, fold, RngStream(seed))
        seq = list(nb_matrix_sequence(petersen, 8, color))
        for r in range(1, 9):
            assert abs(np.trace(seq[r])) <= fold * census.f[r] + 1e-6


def test_colored_rejects_non_regular():
    path = build_from_edge_list([(0, 1), (1, 2)], 3)
    color = trivial_color(path)
    with pytest.raises(RegularityError):
        nb_matrix_sequence(path, 3, color)


def test_colored_identity_failure_is_an_internal_error(k4, monkeypatch):
    monkeypatch.setattr(nbmatrix, "COLOR_IDENTITY_TOL", -1.0)
    color = trivial_color(k4)
    with pytest.raises(ColorInvariantError, match="polynomial identity"):
        verify_friedman_identity(k4, 4, color)
    assert issubclass(ColorInvariantError, RuntimeError)
    assert not issubclass(ColorInvariantError, ValueError)


@pytest.mark.parametrize("g", [complete_graph(4), petersen_graph()], ids=["K4", "Petersen"])
def test_colored_identity_holds_to_r_max_60_relative_to_the_walk_count(g, monkeypatch):
    # A_r entries reach (q+1) q^(r-1) = 3 * 2^59 by r = 60, and both float
    # recurrences round relative to that: the deviation, which stays
    # absolute, passes COLOR_IDENTITY_TOL from r = 23 (trivial) or 42 (Haar),
    # so the check scales the tolerance by the walk count at each r.
    bound = nbmatrix.COLOR_IDENTITY_TOL * 3 * 2 ** 59
    colors = [trivial_color(g), haar_unitary_color(g, 4, RngStream(0))]
    for color in colors:
        assert len(list(nb_matrix_sequence(g, 60, color))) == 61
        assert nbmatrix.COLOR_IDENTITY_TOL < verify_friedman_identity(g, 60, color) <= bound
    # a term off by 1e-6 of its walk count still raises at r = 60
    real = nbmatrix._nb_recurrence
    monkeypatch.setattr(nbmatrix, "_nb_recurrence", lambda a, q, r_max, times_a: [
        m + 1e-6 * 3 * 2 ** 59 * (r == 60) for r, m in enumerate(real(a, q, r_max, times_a))])
    with pytest.raises(ColorInvariantError, match="polynomial identity .* at r=60"):
        verify_friedman_identity(g, 60, colors[1])


# -- one buffer per spectral matrix ---------------------------------------------------------

# 6-regular: two loops at each vertex and a double edge between them
_LOOPS = build_from_edge_list([(0, 0), (0, 0), (0, 1), (0, 1), (1, 1), (1, 1)], 2)


@st.composite
def _pairing_multigraphs(draw):
    """Regular pairing multigraphs, loops and parallel edges kept."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 9))
    return pairing_multigraph(n + (n * d) % 2, d, draw(st.integers(0, 2 ** 16)))


def _colored_reference(g, blocks):
    """colored_adjacency as a per-edge loop of block sums: edge k's block at
    (origin, head) of dart 2k, in edge order, then the conjugate transpose added."""
    n, dim = g.n_vertices, blocks.shape[1]
    out = np.zeros((n * dim, n * dim), dtype=np.complex128)
    for k in range(g.n_edges):
        i, j = int(g.origin[2 * k]), int(g.head[2 * k])
        out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += blocks[k]
    return out + out.conj().T


def _per_dart_reference(g, blocks):
    """The earlier construction: every dart's block (the twin's the adjoint of
    edge k's), summed in dart order, then averaged with its adjoint."""
    n, dim = g.n_vertices, blocks.shape[1]
    out = np.zeros((n * dim, n * dim), dtype=np.complex128)
    for dart in range(g.n_darts):
        i, j = int(g.origin[dart]), int(g.head[dart])
        block = blocks[dart // 2] if dart % 2 == 0 else blocks[dart // 2].conj().T
        out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += block
    return (out + out.conj().T) / 2.0


@settings(max_examples=25, deadline=None)
@given(_pairing_multigraphs())
@example(_LOOPS)
def test_float_adjacency_and_measure_match_the_int64_cast(g):
    want = adjacency(g).astype(np.float64)
    got = adjacency(g, np.float64)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    q = g.n_darts // g.n_vertices - 1
    cast = DiscreteSpectralMeasure(points=eigenvalues_symmetric(want) / math.sqrt(q), q=q)
    assert spectral_measure(g).points.tobytes() == cast.points.tobytes()


@settings(max_examples=25, deadline=None)
@given(_pairing_multigraphs(), st.sampled_from(["trivial", "haar", "permutation"]),
       st.integers(1, 4), st.integers(0, 2 ** 16))
@example(_LOOPS, "haar", 3, 7)
@example(build_from_edge_list([(0, 0), (0, 0), (0, 0)], 1), "haar", 5, 1)  # three loops
def test_colored_adjacency_matches_the_loop_reference(g, kind, fold, seed):
    if kind == "trivial":
        color = trivial_color(g, fold)
    elif kind == "haar":
        color = haar_unitary_color(g, fold, RngStream(seed))
    else:
        color = permutation_color(g, sample_lift(g, fold, RngStream(seed))[0])
    got = colored_adjacency(g, color)
    assert got.tobytes() == _colored_reference(g, color).tobytes()
    assert np.array_equal(got, got.conj().T)
    assert np.abs(got - _per_dart_reference(g, color)).max() <= 1e-14


def _traced_peak(fn, *args) -> int:
    """Peak bytes numpy and Python allocate during fn(*args); LAPACK's own
    workspace is not traced."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_measure_takes_one_buffer():
    # an int64 build followed by a float64 cast would hold 2.0 matrices
    assert _traced_peak(spectral_measure, cycle_graph(512)) <= 1.5 * 512 ** 2 * 8


def test_colored_adjacency_takes_two_buffers():
    # the sum and its adjoint; averaging the two as well would hold 3.0 matrices
    g = complete_graph(4)
    color = haar_unitary_color(g, 128, RngStream(0))
    assert _traced_peak(colored_adjacency, g, color) <= 2.1 * (4 * 128) ** 2 * 16

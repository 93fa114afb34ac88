"""Censuses and brute-force oracles for the half-edge multigraph layer."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nbw_circuit_identity, pairing_multigraph
from nbspectra import multigraph
from nbspectra.multigraph import (BRUTE_R_CAP, CapExceededError, GraphError,
                                  GraphFormatError, MultiGraph, RegularityError,
                                  build_from_edge_list, brute_walk_counts,
                                  complete_graph, cycle_graph,
                                  enumerate_circles,
                                  format_graph_text, girth, parse_graph_text,
                                  petersen_graph, walk_census)
from nbspectra.random_models import RngStream, sample_regular_graph


def circles_by_edge_subsets(g: MultiGraph, r_max: int) -> list[int]:
    """Independent circle oracle: enumerate all edge subsets and test the
    connected-degree-2 definition directly (tiny graphs only)."""
    edges = g.edge_list()
    z = [0] * (r_max + 1)
    for size in range(1, r_max + 1):
        for combo in combinations(range(len(edges)), size):
            deg: dict[int, int] = {}
            parent: dict[int, int] = {}

            def find(x):
                while parent.get(x, x) != x:
                    parent[x] = parent.get(parent[x], parent[x])
                    x = parent[x]
                return x

            for idx in combo:
                u, v = edges[idx]
                deg[u] = deg.get(u, 0) + (2 if u == v else 1)
                if u != v:
                    deg[v] = deg.get(v, 0) + 1
                parent.setdefault(u, u)
                parent.setdefault(v, v)
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            if all(d == 2 for d in deg.values()):
                roots = {find(v) for v in deg}
                if len(roots) == 1:
                    z[size] += 1
    return z


# -- construction -----------------------------------------------------------

def test_build_cycle_graph():
    g = build_from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    assert g.n_darts == 8
    assert g.regular_degree == 2
    assert g.canonical_edge_list() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_build_single_loop():
    g = build_from_edge_list([(0, 0)], 1)
    assert g.n_darts == 2
    assert list(g.head) == [0, 0]
    assert list(g.origin) == [0, 0]
    assert g.degrees[0] == 2


def test_build_complete_graph():
    g = complete_graph(4)
    assert g.n_darts == 12
    assert list(g.degrees) == [3, 3, 3, 3]


def test_twin_involution_fixed_point_free():
    g = petersen_graph()
    for d in range(g.n_darts):
        assert g.head[d ^ 1] == g.origin[d]


def test_out_dart_counts_sum_to_darts():
    g = build_from_edge_list([(0, 0), (0, 1), (1, 2), (1, 2)], 3)
    assert int(g.degrees.sum()) == g.n_darts


def test_build_rejects_bad_endpoint():
    with pytest.raises(GraphError, match="edge 1"):
        build_from_edge_list([(0, 1), (0, 5)], 3)


def test_build_rejects_an_endpoint_past_int64():
    with pytest.raises(GraphError, match=r"edge 1: endpoint \(0, 18446744073709551616\)"):
        build_from_edge_list([(0, 1), (0, 2 ** 64), (1, 2)], 3)


def test_edge_list_round_trip():
    edges = [(0, 1), (1, 1), (0, 1), (2, 0)]
    g = build_from_edge_list(edges, 3)
    expect = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert g.canonical_edge_list() == expect


# -- file format -------------------------------------------------------------

def test_graph_text_round_trip():
    g = build_from_edge_list([(0, 1), (1, 1), (0, 1)], 2)
    again = parse_graph_text(format_graph_text(g))
    assert again.canonical_edge_list() == g.canonical_edge_list()


def test_parse_skips_blank_lines():
    g = parse_graph_text("3 2\n\n0 1\n   \n1 2\n\n")
    assert g.canonical_edge_list() == [(0, 1), (1, 2)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph_text("not a header\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph_text("3 2\n0 1\n0 9\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph_text("2 1\n0 one\n")


# -- regularity and girth ----------------------------------------------------

def test_regular_degree_values():
    assert cycle_graph(4).regular_degree == 2
    assert complete_graph(4).regular_degree == 3
    path = build_from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(RegularityError, match="vertex 1 has degree 2"):
        path.regular_degree


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))))
@example((3, []))
@example((4, [(0, 1), (1, 2), (2, 0)]))  # vertex 3 has no dart
@example((4, [(1, 2), (2, 3), (3, 1)]))  # vertex 0 has no dart
def test_regularity_names_the_vertex_the_degree_counts_name(case):
    # oracle: the per-vertex degree counts, which the check itself never sizes by n
    n, edges = case
    g = build_from_edge_list(edges, n)
    deg = g.degrees
    bad = np.flatnonzero(deg != deg[0])
    if bad.size:
        message = f"vertex {bad[0]} has degree {deg[bad[0]]}, vertex 0 has degree {deg[0]}$"
    elif deg[0] < 2:
        message = f"degree {deg[0]} below required minimum 2"
    else:
        assert g.regular_degree == deg[0]
        return
    with pytest.raises(RegularityError, match=message):
        g.regular_degree


@pytest.mark.parametrize("graph,expected", [
    (complete_graph(4), 3),
    (cycle_graph(4), 4),
    (petersen_graph(), 5),
    (build_from_edge_list([(0, 1), (1, 2)], 3), math.inf),
    (build_from_edge_list([(0, 0)], 1), 1),
    (build_from_edge_list([(0, 1), (0, 1)], 2), 2),
    (build_from_edge_list([], 3), math.inf),
    # padded neighbour rows: the phantom repeats, and must not read as a
    # parallel pair
    (build_from_edge_list([(0, 1), (1, 2), (1, 2), (2, 3)], 4), 2),
    (build_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], 4), 3),
])
def test_girth(graph, expected):
    assert girth(graph) == expected


# -- brute oracles ------------------------------------------------------------

def test_closed_nbw_counts_named():
    assert brute_walk_counts(cycle_graph(4), 4)[0][4] == 8
    assert brute_walk_counts(complete_graph(4), 0)[0][0] == 4
    assert brute_walk_counts(complete_graph(4), 3)[0][3] == 24


def test_circuit_counts_named():
    assert brute_walk_counts(cycle_graph(4), 4)[1][4] == 8
    assert brute_walk_counts(complete_graph(4), 3)[1][3] == 24
    assert brute_walk_counts(petersen_graph(), 1)[1][1] == 0
    assert brute_walk_counts(complete_graph(4), 0)[1][0] == 0


def test_brute_cap_rejections():
    with pytest.raises(CapExceededError):
        brute_walk_counts(complete_graph(4), BRUTE_R_CAP + 1)
    big = sample_regular_graph(66, 3, RngStream(5))
    with pytest.raises(CapExceededError):
        brute_walk_counts(big, 3)


def test_brute_counts_match_matrix_paths_on_multigraphs():
    # regular, with two loops and a double edge: both counts against the census
    g = build_from_edge_list([(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3)], 4)
    census = walk_census(g, 6)
    f, c = brute_walk_counts(g, 6)
    assert f == list(census.f)
    assert c == list(census.c)
    assert census.z[1] == 2 and census.z[2] == 1


# -- circle enumeration --------------------------------------------------------

def test_circles_named_graphs():
    assert enumerate_circles(complete_graph(4), 4) == [0, 0, 0, 4, 3]
    assert enumerate_circles(cycle_graph(5), 5) == [0, 0, 0, 0, 0, 1]
    dbl = build_from_edge_list([(0, 1), (0, 1)], 2)
    assert enumerate_circles(dbl, 2)[2] == 1
    loop = build_from_edge_list([(0, 0)], 1)
    assert enumerate_circles(loop, 1)[1] == 1


def test_circles_match_edge_subset_oracle():
    graphs = [
        complete_graph(4),
        build_from_edge_list([(0, 0), (0, 1), (1, 2), (2, 0)], 3),
        build_from_edge_list([(0, 1), (0, 1), (1, 2), (2, 0), (2, 0)], 3),
        build_from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)], 4),
        build_from_edge_list([(0, 0), (1, 1), (0, 1), (0, 1)], 2),
    ]
    for g in graphs:
        assert enumerate_circles(g, 6)[:7] == circles_by_edge_subsets(g, 6)


small_multigraphs = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)))


@settings(max_examples=200, deadline=None)
@given(small_multigraphs, st.integers(0, 6))
def test_circles_match_edge_subset_oracle_on_random_multigraphs(graph, r):
    n, edges = graph
    g = build_from_edge_list(edges, n)
    assert enumerate_circles(g, r) == circles_by_edge_subsets(g, r)



def _padded(rows: list[list[int]], fill: int) -> list[list[int]]:
    width = max(map(len, rows), default=0)
    return [row + [fill] * (width - len(row)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(small_multigraphs)
@example((3, [(0, 0), (0, 1), (0, 1), (1, 2)]))  # loop, parallel pair, phantom rows
def test_incidence_tables_match_plain_oracle(graph):
    # Row v of the out-dart table lists the darts leaving v; row d of the
    # successor table lists the darts leaving head(d) other than its twin;
    # both ascending, padded with the phantom dart n_darts to the widest row.
    n, edges = graph
    g = build_from_edge_list(edges, n)
    darts, phantom = range(g.n_darts), g.n_darts
    out = [[e for e in darts if g.origin[e] == v] for v in range(n)]
    successors = [[e for e in darts if g.origin[e] == g.head[d] and e != d ^ 1] for d in darts]
    assert g._heads.tolist() == g.head.tolist() + [n]
    assert g._out_table.tolist() == _padded(out, phantom)
    assert g._out_table.shape == (n, max(map(len, out), default=0))
    assert g._nbw_table.tolist() == _padded(successors, phantom)
    assert g._nbw_table.shape == (g.n_darts, max(map(len, successors), default=0))


def test_regular_multigraph_tables_carry_no_padding():
    g = pairing_multigraph(20, 4, 5)
    assert girth(g) <= 2  # loops or parallel edges present
    assert g._nbw_table.shape == (g.n_darts, 3) and (g._nbw_table < g.n_darts).all()
    assert g._out_table.shape == (20, 4) and (g._out_table < g.n_darts).all()


def _relabelled(g: MultiGraph, labels: list[int]) -> list[tuple[int, int]]:
    return [(labels[u], labels[v]) for u, v in g.edge_list()]


def test_circles_across_bitset_words():
    # Circles cross the 63/64 word boundary, use labels >= 128 and hold
    # vertices 32 apart in one word (64 and 96).
    k4, pet, c11 = complete_graph(4), petersen_graph(), cycle_graph(11)
    edges = _relabelled(k4, [96, 64, 5, 128])
    edges += _relabelled(pet, [130, 1, 147, 63, 100, 69, 135, 30, 140, 127])
    edges += _relabelled(c11, list(range(58, 69)))
    g = build_from_edge_list(edges, 150)
    parts = [enumerate_circles(h, 12) for h in (k4, pet, c11)]
    assert enumerate_circles(g, 12) == [sum(col) for col in zip(*parts)]
    # Past 64 vertices the signature bits v mod 64 collide.  Here a half-path
    # reaches an end 64 labels away from a vertex already on it, and a test
    # that trusted the bits alone would drop it and count z_10 = 39.
    assert (enumerate_circles(pairing_multigraph(70, 3, 0), 10)
            == [0, 0, 0, 3, 1, 3, 4, 13, 9, 28, 41])


def test_circle_counts_do_not_depend_on_r_max():
    # The lookahead prunes by the steps left before r_max, so every shorter
    # enumeration must agree with the longest one on its prefix.
    pairing = pairing_multigraph(14, 4, 3)
    assert girth(pairing) <= 2  # loops or parallel edges present
    for g in (complete_graph(4), petersen_graph(), pairing):
        full = enumerate_circles(g, BRUTE_R_CAP)
        for r in range(3, BRUTE_R_CAP + 1):
            assert enumerate_circles(g, r) == full[:r + 1]


def test_circles_in_single_root_chunks(monkeypatch):
    # A root starts at most 4 * 3^(ceil(r/2) - 1) half-paths here.  Limit 1
    # runs every root alone and joins one path at a time.  Limit 108 at r = 6
    # takes chunks of 3 roots, whose joins hold at most 39 pairs, so only the
    # chunks bind.  Limit 100 at r = 14 takes one root per chunk, and its
    # joins reach 2,374 pairs, so slices of several paths bind as well.
    g = pairing_multigraph(14, 4, 3)
    for limit, r in ((1, 10), (108, 6), (100, 14)):
        whole = enumerate_circles(g, r)
        with monkeypatch.context() as patch:
            patch.setattr(multigraph, "_LAYER_LIMIT", limit)
            assert enumerate_circles(g, r) == whole, (limit, r)


class _GatherRecorder:
    """Stands in for a graph's NBW table and records how many paths each
    gather extends."""

    def __init__(self, table: np.ndarray):
        self.table, self.shape, self.sizes = table, table.shape, []

    def __getitem__(self, paths):
        self.sizes.append(len(paths))
        return self.table[paths]


@pytest.mark.parametrize("g", [complete_graph(4), petersen_graph(), cycle_graph(7),
                               sample_regular_graph(16, 3, RngStream(5))],
                         ids=["k4", "petersen", "c7", "random-3-regular"])
def test_circles_grow_paths_to_half_length(g):
    # A circle of r edges is two paths of ceil(r/2) and floor(r/2) edges from
    # its least vertex, so one root chunk extends paths ceil(r/2) - 1 times
    # past their first edge.  A search that walks whole circles extends them
    # up to r - 1 times.
    for r in range(3, 11):
        recorder = _GatherRecorder(g._nbw_table)
        g.__dict__["_nbw_table"] = recorder
        try:
            enumerate_circles(g, r)
        finally:
            g.__dict__["_nbw_table"] = recorder.table
        assert len(recorder.sizes) <= math.ceil(r / 2) - 1, r


def test_circles_cap_rejection():
    with pytest.raises(CapExceededError):
        enumerate_circles(complete_graph(4), BRUTE_R_CAP + 1)
    with pytest.raises(GraphError, match="r_max must be nonnegative"):
        enumerate_circles(complete_graph(4), -1)


# -- census ---------------------------------------------------------------------

def test_census_matches_brute_on_named(named_graphs):
    for _, g in named_graphs:
        census = walk_census(g, 8)
        f, c = brute_walk_counts(g, 8)
        assert list(census.f) == f
        assert list(census.c) == c
        assert census.z == tuple(enumerate_circles(g, 8))


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_census_matches_benchmark_reference(monkeypatch):
    # The benchmark's census pool against its recorded counts; the benchmark
    # files are only read (no bytecode is written next to them).
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((BENCHMARKS / "reference" / "census.json").read_text(encoding="utf-8"))
    pool = workloads.census_pool()
    assert sorted(pool) == sorted(reference)
    for gid, (n, edges, r_max) in pool.items():
        census = walk_census(build_from_edge_list(edges, n), r_max)
        z = list(census.z) if census.z is not None else [None] * (r_max + 1)
        assert {"f": list(census.f), "c": list(census.c), "z": z} == reference[gid], gid


def test_census_base_cases(k4):
    census = walk_census(k4, 5)
    assert census.f[0] == 4
    assert census.c[0] == 0


def test_census_identities_on_sampled_graphs():
    for i in range(12):
        n = 10 + 2 * (i % 6)
        d = 3 if i % 2 == 0 else 4
        g = sample_regular_graph(n, d, RngStream(seed=200 + i))
        census = walk_census(g, 8)
        census.check_all()
        f, c = brute_walk_counts(g, 8)
        for r in range(1, 9):
            assert nbw_circuit_identity(f, c, census.q, r)
            assert census.identity_circle_bounds(r)


def test_census_girth_cross_check(named_graphs):
    for _, g in named_graphs:
        census = walk_census(g, 8)
        first = next((r for r in range(1, 9) if census.c[r] > 0), math.inf)
        assert girth(g) == first


def test_census_rejects_non_regular():
    path = build_from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(RegularityError, match="vertex"):
        walk_census(path, 4)


def test_census_multigraph_with_loops():
    # 2-regular multigraph: a loop and a double edge
    g = build_from_edge_list([(0, 0), (1, 2), (1, 2)], 3)
    census = walk_census(g, 6)
    f, c = brute_walk_counts(g, 6)
    assert list(census.f) == f
    assert list(census.c) == c
    assert census.z[1] == 1 and census.z[2] == 1


def test_frzr_right_bound_tightness(k4):
    census = walk_census(k4, 6)
    q = census.q
    for r in range(1, 7):
        weight = sum(k * census.z[k] for k in range(1, r + 1))
        assert census.f[r] <= (q + 1) ** 2 * q ** (2 * r - 2) * weight
        assert 2 * r * census.z[r] <= census.c[r] <= census.f[r]

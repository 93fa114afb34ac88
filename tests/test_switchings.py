"""McKay-Wormald switchings: exact inverse counts, bounds and invariant guards."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nbspectra import cli, switchings
from nbspectra.random_models import RngStream, sample_regular_graph
from nbspectra.switchings import (SwitchingInvariantError, double_inverse_bound,
                                  double_inverse_count, loop_inverse_bound,
                                  loop_inverse_count, switch_to_simple,
                                  switching_caps)


def _pairs_between(pairs, d):
    """Loop count, double pair count and multiplicity of each cell pair."""
    loops, mult = Counter(), Counter()
    for a, b in pairs:
        u, v = a // d, b // d
        if u == v:
            loops[u] += 1
        else:
            mult[min(u, v), max(u, v)] += 1
    return loops, mult


def _in_class(pairs, d, loops_wanted, doubles_wanted):
    loops, mult = _pairs_between(pairs, d)
    return (sum(loops.values()) == loops_wanted
            and all(c == 1 for c in loops.values())
            and all(c <= 2 for c in mult.values())
            and sum(c == 2 for c in mult.values()) == doubles_wanted)


def _swap(pairs, old, new):
    gone = {frozenset(p) for p in old}
    return [p for p in pairs if frozenset(p) not in gone] + list(new)


def _brute_loop_inverse(pairs, n, d):
    """Labeled l-switchings into ``pairs``, straight from the definition: every
    (p1, p2, p4) undone, the pre-image checked for class and validity."""
    partner = {a: b for p in pairs for a, b in (p, p[::-1])}
    loops, mult = _pairs_between(pairs, d)
    l, m = sum(loops.values()), sum(c == 2 for c in mult.values())
    count = 0
    for v1 in range(n):
        for p1, p2 in itertools.permutations(range(v1 * d, v1 * d + d), 2):
            for p4 in range(n * d):
                p3, p5, p6 = partner[p1], partner[p2], partner[p4]
                if len({p1, p2, p3, p4, p5, p6}) != 6:
                    continue
                before = _swap(pairs, [(p1, p3), (p2, p5), (p4, p6)],
                               [(p1, p2), (p3, p4), (p5, p6)])
                if not _in_class(before, d, l + 1, m):
                    continue
                _, mb = _pairs_between(before, d)
                v2, v3, v4, v5 = p3 // d, p5 // d, p4 // d, p6 // d

                def between(a, b):
                    return mb[min(a, b), max(a, b)]
                count += (len({v1, v2, v3, v4, v5}) == 5
                          and between(v2, v4) == 1 and between(v3, v5) == 1
                          and not (between(v1, v2) or between(v1, v3)
                                   or between(v4, v5)))
    return count


def _brute_double_inverse(pairs, n, d):
    """Labeled d-switchings into ``pairs``, straight from the definition."""
    partner = {a: b for p in pairs for a, b in (p, p[::-1])}
    _, mult = _pairs_between(pairs, d)
    m = sum(c == 2 for c in mult.values())
    count = 0
    for v1, v2 in itertools.permutations(range(n), 2):
        for p1, p3 in itertools.permutations(range(v1 * d, v1 * d + d), 2):
            for p2, p4 in itertools.permutations(range(v2 * d, v2 * d + d), 2):
                p5, p7, p6, p8 = partner[p1], partner[p3], partner[p2], partner[p4]
                if len({p1, p2, p3, p4, p5, p6, p7, p8}) != 8:
                    continue
                before = _swap(pairs, [(p1, p5), (p3, p7), (p2, p6), (p4, p8)],
                               [(p1, p2), (p3, p4), (p5, p6), (p7, p8)])
                if not _in_class(before, d, 0, m + 1):
                    continue
                _, mb = _pairs_between(before, d)
                v3, v4, v5, v6 = p5 // d, p6 // d, p7 // d, p8 // d

                def between(a, b):
                    return mb[min(a, b), max(a, b)]
                count += (len({v1, v2, v3, v4, v5, v6}) == 6
                          and between(v3, v4) == 1 and between(v5, v6) == 1
                          and not (between(v1, v3) or between(v2, v4)
                                   or between(v1, v5) or between(v2, v6)))
    return count


def _random_pairings(n, d, seed, count, loops_allowed=True):
    """Pairings without triple pairs or double loops (loopless on request)."""
    gen = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        pairs = gen.permutation(n * d).reshape(-1, 2)
        loops, mult = _pairs_between(pairs.tolist(), d)
        if (max(loops.values(), default=0) > 1 or max(mult.values()) > 2
                or (loops and not loops_allowed)):
            continue
        found.append(pairs)
    return found


@pytest.fixture(params=["one chunk", "one vertex per chunk"])
def chunks(request, monkeypatch):
    """The walk enumerations give the same counts however they are chunked."""
    if request.param != "one chunk":
        monkeypatch.setattr(switchings, "_CHUNK", 1)


@pytest.mark.parametrize("n, d", [(7, 2), (8, 3), (9, 4), (6, 5)])
def test_loop_inverse_count_matches_definition(n, d, chunks):
    for pairs in _random_pairings(n, d, seed=10 * n + d, count=4):
        cells = pairs // d
        assert loop_inverse_count(cells[:, 0], cells[:, 1], n) == \
            _brute_loop_inverse([tuple(p) for p in pairs.tolist()], n, d)


@pytest.mark.parametrize("n, d", [(8, 2), (8, 3), (9, 4), (6, 5)])
def test_double_inverse_count_matches_definition(n, d, chunks):
    for pairs in _random_pairings(n, d, seed=20 * n + d, count=4,
                                  loops_allowed=False):
        cells = pairs // d
        assert double_inverse_count(cells[:, 0], cells[:, 1], n) == \
            _brute_double_inverse([tuple(p) for p in pairs.tolist()], n, d)


def _dense_inverse_counts(cells, n):
    """Both inverse counts from dense vertex relations: S the single-pair
    adjacency and C = I + the distinct adjacency.  The l-count sums, over
    v2 != v3, the ordered single 2-paths v2 v1 v3 at loopless v1 times the
    oriented single pairs v4 v5 with v4, v5 outside C of v2, v3.  The
    d-count enumerates, for each apart ordered pair (v1, v2), the
    x != x' and y != y' of their single neighbourhoods with x y and x' y'
    apart, x != y' and x' != y.  The d-count drops the loops of ``cells``."""
    mult = np.zeros((n, n), dtype=np.int64)
    np.add.at(mult, (cells[:, 0], cells[:, 1]), 1)
    np.add.at(mult, (cells[:, 1], cells[:, 0]), 1)
    loopless = np.diag(mult) == 0
    np.fill_diagonal(mult, 0)
    single = (mult == 1).astype(np.int64)
    apart = (mult == 0).astype(np.int64)
    np.fill_diagonal(apart, 0)
    paths = (single * loopless) @ single
    pairs = apart @ single @ apart.T
    loop_count = int((paths * pairs).sum() - (np.diag(paths) * np.diag(pairs)).sum())
    # row v of nbrs: v's single neighbours, then n, which no vertex is apart from
    nbrs = np.sort(np.where(single > 0, np.arange(n), n), axis=1)
    nbrs = nbrs[:, :int(single.sum(axis=1).max(initial=0))]
    far = np.zeros((n + 1, n + 1), dtype=np.int64)
    far[:n, :n] = apart
    double_count = 0
    for v1 in range(n):  # axes: v2 apart from v1, x, x', y, y'
        x, x2 = nbrs[v1][:, None, None, None], nbrs[v1][:, None, None]
        ys = nbrs[apart[v1] > 0]
        y, y2 = ys[:, None, None, :, None], ys[:, None, None, None, :]
        double_count += int((far[x, y] & far[x2, y2] & (x != x2) & (y != y2)
                             & (x != y2) & (x2 != y)).sum())
    return loop_count, double_count


@pytest.mark.parametrize("n, d", [(24, 5), (40, 6), (64, 8)])
def test_inverse_counts_match_dense_oracle(n, d, chunks):
    # past the point-level oracles' n <= 9, on vertex-level relations
    for pairs in _random_pairings(n, d, seed=30 * n + d, count=4):
        cells = pairs // d
        loopless = cells[cells[:, 0] != cells[:, 1]]
        assert (loop_inverse_count(cells[:, 0], cells[:, 1], n),
                double_inverse_count(loopless[:, 0], loopless[:, 1], n)) == \
            _dense_inverse_counts(cells, n)


@pytest.mark.parametrize("n, d", [(40, 3), (60, 5), (120, 8)])
def test_inverse_counts_lie_within_their_bounds(n, d):
    loop_caps, double_caps = switching_caps(n, d)
    assert loop_caps > 0 and double_caps > 0
    for pairs in _random_pairings(n, d, seed=n + d, count=40):
        loops, mult = _pairs_between(pairs.tolist(), d)
        l, m = sum(loops.values()), sum(c == 2 for c in mult.values())
        cells = pairs // d
        paths, single_pairs = switchings._Pairing(pairs, n, d).two_paths_and_pairs()
        if l <= loop_caps and m <= double_caps:
            assert paths * single_pairs >= \
                loop_inverse_count(cells[:, 0], cells[:, 1], n) >= \
                loop_inverse_bound(n, d, l, m) > 0
        if l == 0 and m <= double_caps:
            assert paths * paths >= \
                double_inverse_count(cells[:, 0], cells[:, 1], n) >= \
                double_inverse_bound(n, d, m) > 0


class _ScriptedDraws:
    """Stands in for a generator: ``integers(high)`` returns scripted values."""

    def __init__(self, *values):
        self.values = list(values)
        self.highs = []

    def integers(self, high):
        self.highs.append(high)
        return self.values[len(self.highs) - 1]


@pytest.mark.parametrize("bound, exact, upper", [(2, 3, 5), (7, 7, 9), (3, 8, 8),
                                                 (5, 6, 20), (4, 4, 4)])
def test_two_stage_b_rejection_keeps_with_probability_bound_over_count(
        bound, exact, upper):
    # sum the probabilities of the draw sequences that keep the pairing
    def keeps(draws):
        kept = not switchings._backward_rejects("test", bound, upper,
                                                lambda: exact, draws)
        assert len(draws.highs) == len(draws.values)
        return kept

    kept = Fraction(0)
    second_high = exact * (upper - bound)
    for first in range(upper):
        if first < bound:
            kept += Fraction(int(keeps(_ScriptedDraws(first))), upper)
            continue
        for second in range(second_high):
            kept += Fraction(int(keeps(_ScriptedDraws(first, second))),
                             upper * second_high)
    assert kept == Fraction(bound, exact)


@pytest.mark.parametrize("exact", [4, 10])
def test_exact_count_outside_its_bounds_is_an_internal_error(exact):
    # the first draw (7 >= 5) does not keep the pairing, so the count is taken
    with pytest.raises(SwitchingInvariantError, match="outside"):
        switchings._backward_rejects("test", 5, 9, lambda: exact, _ScriptedDraws(7, 0))


def test_caps_fall_back_to_plain_rejection_on_small_graphs():
    assert switching_caps(6, 3) == (0, 0)
    assert switching_caps(7, 4) == (0, 0)
    assert switching_caps(12, 3) == (2, 2)
    assert switching_caps(1024, 8) == (7, 49)
    gen = np.random.default_rng(0)
    loop = np.array([[0, 1], [2, 4], [3, 5]])  # a loop at cell 0, a double pair
    assert switch_to_simple(loop, 3, 2, (0, 0), gen) is None


def test_switched_graphs_are_simple_and_regular():
    for trial in range(20):
        g = sample_regular_graph(64, 6, RngStream(8, trial))
        edges = g.canonical_edge_list()
        assert all(u != v for u, v in edges)
        assert len(set(edges)) == len(edges)
        assert np.all(g.degrees == 6)


def test_degree_ten_sample_draws_past_int64(monkeypatch):
    # the second b-rejection stage draws below exact * (upper - bound) ~ 2^70
    # here, past the int64 range of a single gen.integers call
    wide = []
    below = switchings._below

    def spy(b, gen):
        wide.append(b >= 2 ** 63)
        return below(b, gen)

    monkeypatch.setattr(switchings, "_below", spy)
    g = sample_regular_graph(2048, 10, RngStream(0))
    assert any(wide)
    edges = g.canonical_edge_list()
    assert all(u != v for u, v in edges)
    assert len(set(edges)) == len(edges)
    assert np.all(g.degrees == 10)


def test_uniform_draw_is_one_integers_call_below_int64():
    for b in (1, 7, 2 ** 40 + 3, 2 ** 63 - 1):
        gen, twin = np.random.default_rng(b), np.random.default_rng(b)
        assert ([switchings._below(b, gen) for _ in range(5)]
                == [int(twin.integers(b)) for _ in range(5)])


def test_uniform_draw_frequencies_near_two_to_the_hundred():
    b = 2 ** 100 + 2 ** 98 + 12345
    gen = np.random.default_rng(11)
    trials = 20000
    draws = [switchings._below(b, gen) for _ in range(trials)]
    assert all(0 <= x < b for x in draws)
    # Bernoulli(a/b) with a = b // 3, as b-rejection uses it; 5 sigma = 333
    assert abs(sum(x < b // 3 for x in draws) - trials / 3) < 333
    # each eighth of [0, b), top bits included; 5 sigma = 234
    eighths = Counter(8 * x // b for x in draws)
    assert sorted(eighths) == list(range(8))
    assert all(abs(count - trials / 8) < 234 for count in eighths.values())


def test_sampler_draws_no_more_pairings_than_whole_rejection(caplog):
    # the switching choices use their own stream, so the pairings are those of
    # whole-pairing rejection and the first simple one is always accepted
    n, d = 64, 5
    caplog.set_level("DEBUG", logger="nbspectra.random_models")
    for trial in range(10):
        rng = RngStream(3, trial)
        gen = rng.generator()
        first_simple = 1
        while True:
            cells = gen.permutation(n * d).reshape(-1, 2) // d
            codes = np.sort(cells.min(axis=1) * n + cells.max(axis=1))
            if (cells[:, 0] != cells[:, 1]).all() and (np.diff(codes) != 0).all():
                break
            first_simple += 1
        caplog.clear()
        sample_regular_graph(n, d, rng)
        accepted = [r for r in caplog.records
                    if r.msg.startswith("pairing model accepted")]
        assert len(accepted) == 1
        assert 1 <= accepted[0].args[0] <= first_simple


def test_broken_bound_is_an_internal_error(monkeypatch, tmp_path):
    monkeypatch.setattr(switchings, "double_inverse_bound",
                        lambda n, d, doubles: 10 ** 30)
    with pytest.raises(SwitchingInvariantError, match="below the lower bound"):
        for trial in range(50):
            sample_regular_graph(64, 5, RngStream(5, trial))
    assert issubclass(SwitchingInvariantError, RuntimeError)
    assert not issubclass(SwitchingInvariantError, ValueError)
    code = cli.main(["grow", "--n", "64", "--schedule", "fixed", "--q", "4",
                     "--trials", "3", "--seed", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_RUNTIME

"""McKay-Wormald switchings: from a random pairing to a uniform simple one.

A pairing of ``n`` cells with ``d`` points each is a perfect matching of the
``M = n d`` points (point ``p`` lies in cell ``p // d``).  Every simple
d-regular graph arises from exactly ``(d!)^n`` pairings, so a uniform simple
pairing gives a uniform simple graph.  Algorithm REG of McKay & Wormald
("Uniform generation of random regular graphs of moderate degree",
J. Algorithms 11, 1990) starts from a uniform pairing and works in the classes
``C(l, m)``: pairings with ``l`` loops, ``m`` double pairs, no triple pair and
no double loop.  It removes the loops one by one with l-switchings, then the
double pairs with d-switchings; each step maps ``C(l, m)`` into
``C(l - 1, m)`` or ``C(0, m)`` into ``C(0, m - 1)``, so the sequence of classes
is fixed by the starting class.  Two rejections keep every step uniform:

* f-rejection: a labeled switching is drawn uniformly from the ``fbar``
  candidates of the pairing (each labeled loop or double pair, with every
  ordered choice of the other points) and an invalid one restarts.  Every
  pairing of ``C(l, m)`` has exactly ``fbar = 2 l M^2`` l-switching candidates
  (two labels per loop) or ``fbar = 4 m M^2`` d-switching candidates (four
  labels per double pair), so a valid switching from ``P`` is taken with
  probability ``1/fbar``, the same for every ``P`` of the class.
* b-rejection: the result ``P'`` is kept with probability ``blow / b(P')``,
  where ``b(P')`` is the exact number of labeled switchings into ``P'`` from
  the previous class and ``blow`` is a lower bound of ``b`` over the new class.
  The draw is made in two stages against a cheap upper bound of ``b(P')``,
  so the exact count is needed only when the first stage does not keep
  ``P'`` (a few percent of steps).

If ``P`` is uniform on its class, ``P'`` is reached with probability
``b(P') / (|C| fbar) * blow / b(P')``, which is the same for every ``P'`` of the
new class; by induction the output is uniform on simple pairings.

The switchings (vertices are cells; ``{a, b}`` is a pair of points):

* l-switching: a loop ``{p1, p2}`` at ``v1`` and pairs ``{p3, p4}``,
  ``{p5, p6}`` with ``p3, p4, p5, p6`` in ``v2, v4, v3, v5`` become
  ``{p1, p3}, {p2, p5}, {p4, p6}``.  Valid when the five cells are distinct,
  ``v2v4`` and ``v3v5`` are single pairs and ``v1v2, v1v3, v4v5`` are absent.
* d-switching: a double pair ``{p1, p2}, {p3, p4}`` between ``v1`` (holding
  ``p1, p3``) and ``v2``, and pairs ``{p5, p6}``, ``{p7, p8}`` with ends
  ``v3, v4`` and ``v5, v6``, become ``{p1, p5}, {p2, p6}, {p3, p7}, {p4, p8}``.
  Valid when the six cells are distinct, ``v3v4`` and ``v5v6`` are single
  pairs and ``v1v3, v2v4, v1v5, v2v6`` are absent.

Both inverse counts are computed exactly from walks gathered through padded
vertex neighbour tables, and both lower bounds are derived in the docstrings
of the bound functions.  A count outside its bounds would silently bias the
sampler, so it raises :class:`SwitchingInvariantError` instead.
"""

from __future__ import annotations

import numpy as np

from .multigraph import _padded_rows


class SwitchingInvariantError(RuntimeError):
    """A switching count broke its bound or a switching left its class."""


# -- bounds ----------------------------------------------------------------------------

def _two_path_floor(d: int, loopless: int, doubles: int) -> int:
    """Lower bound of the number of ordered single-pair 2-paths at the
    ``loopless`` centers without a loop.  Such a center meeting ``t`` double
    pairs has ``d - 2t`` single points, and ``g(t) = (d-2t)(d-2t-1)`` is
    convex, so ``g(t) >= g(0) - t (4d - 6)``; the ``t`` sum to at most
    ``2 * doubles``."""
    return loopless * d * (d - 1) - 2 * doubles * (4 * d - 6)


def loop_inverse_bound(n: int, d: int, loops: int, doubles: int) -> int:
    """Lower bound of the inverse l-switching count over C(loops, doubles).

    An inverse l-switching is an ordered single 2-path ``v2 v1 v3`` at a
    loopless ``v1`` with an oriented single pair ``v4 v5``, where ``v4`` is
    outside the closed neighbourhood of ``v2`` and ``v5`` outside that of
    ``v3`` (distinctness follows).  There are ``M - 2 loops - 4 doubles``
    oriented single pairs; at most ``(d+1) d`` of them start in a closed
    neighbourhood and as many end in one.  Returns 0 when the bound is not
    positive: the class cannot be served.
    """
    paths = _two_path_floor(d, n - loops, doubles)
    spare = n * d - 2 * loops - 4 * doubles - 2 * d * (d + 1)
    return paths * spare if paths > 0 and spare > 0 else 0


def double_inverse_bound(n: int, d: int, doubles: int) -> int:
    """Lower bound of the inverse d-switching count over C(0, doubles).

    An inverse d-switching is a pair of ordered single 2-paths ``v3 v1 v5`` and
    ``v4 v2 v6`` with ``v2`` outside the closed neighbourhood of ``v1``,
    ``v4`` outside that of ``v3``, ``v6`` outside that of ``v5``,
    ``v6 != v3`` and ``v4 != v5``.  For a fixed first path, at most
    ``(d+1) d (d-1)`` second paths meet the first condition, and at most
    ``d (d-1)^2``, ``d (d-1)^2``, ``(d-1)^2``, ``(d-1)^2`` of the rest break
    one of the others: ``(d-1)(d+1)(3d-2)`` in all.  With ``A`` 2-paths the
    count is at least ``A (A - (d-1)(d+1)(3d-2))``, increasing in ``A`` there.
    Returns 0 when the bound is not positive.
    """
    paths = _two_path_floor(d, n, doubles)
    spare = paths - (d - 1) * (d + 1) * (3 * d - 2)
    return paths * spare if spare > 0 else 0


def switching_caps(n: int, d: int) -> tuple[int, int]:
    """Most loops and double pairs a starting pairing may have.

    Twice and four times the expected counts ``(d-1)/2`` and ``(d-1)^2/4``,
    lowered until every class the switchings pass through has a positive
    inverse bound (they fall as loops and double pairs grow).  Small graphs
    get ``(0, 0)``: plain rejection of non-simple pairings.
    """
    loops, doubles = d - 1, (d - 1) ** 2
    while doubles > 0 and double_inverse_bound(n, d, doubles - 1) == 0:
        doubles -= 1
    while loops > 0 and loop_inverse_bound(n, d, loops - 1, doubles) == 0:
        loops -= 1
    return loops, doubles


# -- padded neighbour tables of a pairing --------------------------------------------------

_CHUNK = 1 << 16  # walks materialised at a time


class _Multiset:
    """A multiset of keys below ``n^2`` (ordered vertex pairs) with counts."""

    def __init__(self, keys: np.ndarray):
        self.keys, self.counts = np.unique(keys, return_counts=True)

    def __call__(self, queries: np.ndarray) -> np.ndarray:
        """How often each query key occurs."""
        if self.keys.size == 0:
            return np.zeros(queries.shape, dtype=np.int64)
        pos = np.searchsorted(self.keys, queries)
        pos[pos == self.keys.size] = 0
        return np.where(self.keys[pos] == queries, self.counts[pos], 0)

    def between(self, lo: int, hi: int) -> slice:
        """The distinct keys in [lo, hi)."""
        return slice(int(np.searchsorted(self.keys, lo)),
                     int(np.searchsorted(self.keys, hi)))


class _Structure:
    """Loops and two neighbour tables of the multigraph of a pairing.

    ``closed`` holds each vertex and its distinct neighbours, ``single`` its
    single-pair neighbours: ``(n + 1, w)`` tables whose row v ascends, padded
    with the phantom vertex n, and whose row n is all phantom.  So a gather
    such as ``closed[single[closed[v]]]`` holds the ends of every walk
    v -closed- x -single- y -closed- w, the real ones below n.
    """

    def __init__(self, cu: np.ndarray, cv: np.ndarray, n: int):
        loop = cu == cv
        lo = np.minimum(cu, cv)[~loop]
        hi = np.maximum(cu, cv)[~loop]
        codes, mult = np.unique(lo * n + hi, return_counts=True)
        a, b = np.divmod(codes, n)
        own, one = np.arange(n), mult == 1
        self.n = n
        self.looped = np.zeros(n, dtype=bool)
        self.looped[cu[loop]] = True
        self.closed = _padded_rows(np.concatenate([own, a, b]), np.concatenate([own, b, a]),
                                   n + 1, n)
        self.single = _padded_rows(np.concatenate([a[one], b[one]]),
                                   np.concatenate([b[one], a[one]]), n + 1, n)
        self.s = (self.single[:n] < n).sum(axis=1)

    def sums(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row sums of ``x`` over the partners in ``table``, the phantom's 0."""
        return np.append(x, 0)[table[:self.n]].sum(axis=1)

    def walks(self, starts: np.ndarray, ends: np.ndarray) -> _Multiset:
        """Walks by (start, end) key, from the ``ends`` gathered at ``starts``."""
        ends = ends.reshape(starts.size, -1)
        return _Multiset((starts[:, None] * self.n + ends)[ends < self.n])

    def two_paths(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ordered single 2-paths (x, center, y), x != y, at the given centers."""
        nbr = self.single[centers]
        x, y = nbr[:, :, None], nbr[:, None, :]
        keep = (x < self.n) & (y < self.n) & (x != y)
        rows, i, j = np.nonzero(keep)
        return nbr[rows, i], centers[rows], nbr[rows, j]

    def blocks(self):
        """Vertex ranges small enough that the three-step walks from each
        range fit in one chunk."""
        reach = self.closed.shape[1] ** 2 * max(1, self.single.shape[1])
        step = max(1, _CHUNK // reach)
        for lo in range(0, self.n, step):
            yield lo, min(self.n, lo + step)


def _holds(table: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether row ``rows[i]`` of ``table`` holds ``v[i]``, by a row compare."""
    return (table[rows] == v[..., None]).any(axis=-1)


# -- exact inverse counts --------------------------------------------------------------------

def loop_inverse_count(cu: np.ndarray, cv: np.ndarray, n: int) -> int:
    """Labeled l-switchings into the pairing with pair cells (cu, cv).

    Counts ordered single 2-paths ``v2 v1 v3`` at loopless ``v1`` times
    oriented single pairs ``v4 v5``, less those with ``v4`` in the closed
    neighbourhood of ``v2`` (set a) or ``v5`` in that of ``v3`` (set b), by
    inclusion-exclusion: ``A E - |a| - |b| + |a & b|`` with ``|a| = |b|``.
    ``|a & b|`` sums, over the 2-paths, the walks ``v2 -closed- x -single- y
    -closed- v3``.
    """
    g = _Structure(cu, cv, n)
    s, loopless = g.s, ~g.looped
    centers = np.flatnonzero(loopless & (s >= 2))
    paths = int((s[centers] * (s[centers] - 1)).sum())
    edges = int(s.sum())
    closed_s = g.sums(g.closed, s)
    in_a = int(((s - 1) * g.sums(g.single, closed_s))[loopless].sum())
    x, _, y = g.two_paths(centers)
    ends = _Multiset(x * n + y)
    in_both = 0
    for lo, hi in g.blocks():
        walks = g.walks(np.arange(lo, hi), g.closed[g.single[g.closed[lo:hi]]])
        here = ends.between(lo * n, hi * n)
        in_both += int((ends.counts[here] * walks(ends.keys[here])).sum())
    return paths * edges - 2 * in_a + in_both


def double_inverse_count(cu: np.ndarray, cv: np.ndarray, n: int) -> int:
    """Labeled d-switchings into the loopless pairing with pair cells (cu, cv).

    For an ordered pair ``(v1, v2)`` of distinct non-adjacent vertices (an
    apart pair) let ``S1, S2`` be their single neighbours (sizes ``s1, s2``)
    and ``K[x, y] = 1`` when ``x`` in ``S1`` and ``y`` in ``S2`` are distinct
    and non-adjacent.  The count for the pair is the number of ``x != x'`` in
    ``S1`` and ``y != y'`` in ``S2`` with ``K[x, y] K[x', y']`` and
    ``x != y', x' != y``; by inclusion-exclusion it equals
    ``s1(s1-1) s2(s2-1) - T (2 (s1-1)(s2-1) - 1) + T^2 - G12 - G21 - 2 Z + P``,
    where ``T`` counts pairs ``x, y`` that are equal or adjacent, ``G12`` sums
    over ``x`` the square of ``R(x, v2)``, the number of such ``y`` for ``x``,
    ``Z`` sums ``(s2 - R(z, v2)) (s1 - R(z, v1))`` over common single
    neighbours ``z`` and ``P`` counts ordered non-adjacent pairs of distinct
    common single neighbours.  Each term is summed over all ordered pairs (the
    first in closed form, the others from walk enumerations, as they vanish
    beyond distance 3) less the pairs that are equal or adjacent.
    """
    g = _Structure(cu, cv, n)
    s, closed, single = g.s, g.closed, g.single
    everyone = np.arange(n)
    w = s * (s - 1)
    # the near pairs, equal or adjacent, in ascending key order
    near = (everyone[:, None] * n + closed[:n])[closed[:n] < n]
    nu, nv = np.divmod(near, n)
    total = int(w.sum()) ** 2 - int((w[nu] * w[nv]).sum())

    # T: walks v1 -single- x -closed- y -single- v2.  Over all pairs, the sum
    # of T (2(s1-1)(s2-1) - 1) is 2 u.J.u - s.J.s, with J the closed
    # adjacency and u the single-neighbour sums of s - 1
    u = g.sums(single, s) - s
    total -= 2 * int(u @ g.sums(closed, u)) - int(s @ g.sums(closed, s))
    coef_near = 2 * (s[nu] - 1) * (s[nv] - 1) - 1
    for lo, hi in g.blocks():
        t = g.walks(np.arange(lo, hi), single[closed[single[lo:hi]]])
        here = slice(*np.searchsorted(near, [lo * n, hi * n]))
        t_near = t(near[here])
        total += int((t.counts * t.counts).sum()) - int((t_near * t_near).sum())
        total += int((coef_near[here] * t_near).sum())

    # G: R(x, v2) counts walks x -closed- y -single- v2
    r = g.walks(everyone, single[closed[:n]])
    g_all = int((s[r.keys // n] * r.counts * r.counts).sum())
    x, v2 = single[:n, :, None], closed[:n, None, :]
    r_near = r((x * n + v2)[(x < n) & (v2 < n)])
    total -= 2 * (g_all - int((r_near * r_near).sum()))

    # Z and P: single 2-paths v1 - z - v2 between apart vertices
    v1, z, v2 = g.two_paths(everyone)
    keep = ~_holds(closed, v1, v2)
    v1, z, v2 = v1[keep], z[keep], v2[keep]
    total -= 2 * int(((s[v2] - r(z * n + v2)) * (s[v1] - r(z * n + v1))).sum())
    c = _Multiset(v1 * n + v2)
    total += int((c.counts * (c.counts - 1)).sum())
    shared = c(v1 * n + v2) >= 2
    v1, z, v2 = v1[shared], z[shared], v2[shared]
    z2 = closed[z]
    linked = ((z2 < n) & (z2 != z[:, None]) & _holds(single, v1[:, None], z2)
              & _holds(single, z2, v2[:, None]))
    return total - int(linked.sum())


# -- the switching phases ----------------------------------------------------------------------

class _Pairing:
    """A pairing as slots of two points, with its class read off the cells."""

    def __init__(self, pairs: np.ndarray, n: int, d: int):
        self.pairs, self.n, self.d = pairs, n, d
        self.slot = np.empty(n * d, dtype=np.int64)
        self.slot[pairs.ravel()] = np.repeat(np.arange(pairs.shape[0]), 2)
        self.classify()

    def classify(self) -> None:
        cells = self.pairs // self.d
        cu, cv = cells[:, 0], cells[:, 1]
        loop = cu == cv
        self.loop_slots = np.flatnonzero(loop)
        self.double_loop = np.unique(cu[loop]).size < self.loop_slots.size
        key = np.where(loop, -1, np.minimum(cu, cv) * self.n + np.maximum(cu, cv))
        order = np.argsort(key, kind="stable")
        keys, first, counts = np.unique(key[order], return_index=True,
                                        return_counts=True)
        plain = keys >= 0
        self.keys, self.counts = keys[plain], counts[plain]
        self.triple = bool((self.counts >= 3).any())
        doubled = first[plain & (counts == 2)]
        self.double_slots = np.stack([order[doubled], order[doubled + 1]], axis=1)
        self.cu, self.cv = cu, cv

    @property
    def loops(self) -> int:
        return int(self.loop_slots.size)

    @property
    def doubles(self) -> int:
        return int(self.double_slots.shape[0])

    def two_paths_and_pairs(self) -> tuple[int, int]:
        """Ordered single-pair 2-paths at loopless centers, and oriented
        single pairs: every inverse switching picks two 2-paths (d) or a
        2-path and an oriented pair (l), so these bound the inverse counts."""
        ends = np.divmod(self.keys[self.counts == 1], self.n)
        s = np.bincount(np.concatenate(ends), minlength=self.n)
        paths = s * (s - 1)
        paths[self.cu[self.loop_slots]] = 0
        return int(paths.sum()), int(s.sum())

    def pairs_between(self, u: int, v: int) -> int:
        key = min(u, v) * self.n + max(u, v)
        pos = int(np.searchsorted(self.keys, key))
        return int(self.counts[pos]) if pos < self.keys.size and self.keys[pos] == key else 0

    def partner(self, p: int) -> int:
        a, b = self.pairs[self.slot[p]]
        return int(b if a == p else a)

    def replace(self, slots, new_pairs) -> None:
        for k, (p, q) in zip(slots, new_pairs):
            self.pairs[k] = (p, q)
            self.slot[p] = self.slot[q] = k
        self.classify()

    def require_class(self, loops: int, doubles: int) -> None:
        if (self.loops, self.doubles, self.triple, self.double_loop) != (
                loops, doubles, False, False):
            raise SwitchingInvariantError(
                f"switching left class C({loops}, {doubles}): got "
                f"{self.loops} loops, {self.doubles} double pairs, "
                f"triple={self.triple}, double loop={self.double_loop}")


def _below(b: int, gen: np.random.Generator) -> int:
    """Uniform integer in ``[0, b)`` for a positive Python int ``b`` of any size.

    Below 2^63 this is the single ``gen.integers(b)`` draw.  Above it, 63-bit
    words make a uniform integer of ``b.bit_length()`` bits, redrawn until it
    is below ``b`` (each draw is kept with probability above 1/2).
    """
    if b < 2 ** 63:
        return int(gen.integers(b))
    bits = b.bit_length()
    words = -(-bits // 63)
    while True:
        x = 0
        for w in gen.integers(2 ** 63, size=words):
            x = (x << 63) | int(w)
        x >>= 63 * words - bits
        if x < b:
            return x


def _backward_rejects(kind: str, bound: int, upper: int, count, gen) -> bool:
    """b-rejection: True (reject) with probability ``1 - bound / count()``.

    ``upper`` is a cheap upper bound of the exact inverse count ``count()``.
    The draw first keeps the pairing with probability ``bound / upper``;
    only otherwise is the count computed, and the pairing then kept with
    probability ``(bound/count - bound/upper) / (1 - bound/upper)``, which
    makes the total exactly ``bound / count``.
    """
    if upper < bound:
        raise SwitchingInvariantError(
            f"{kind}: at most {upper} inverse switchings, below the lower bound {bound}")
    if _below(upper, gen) < bound:
        return False
    exact = count()
    if not bound <= exact <= upper:
        raise SwitchingInvariantError(
            f"{kind}: {exact} inverse switchings outside [{bound}, {upper}], "
            "below the lower bound or above the upper one")
    return _below(exact * (upper - bound), gen) >= bound * (upper - exact)


def _loop_switching(pairing: _Pairing, gen: np.random.Generator) -> bool:
    """One f-rejected l-switching, in place.

    Draws one of the pairing's ``fbar`` labeled candidates (a loop label and
    ``p3``, ``p5``); False (reject) when it is not a valid switching.
    """
    d, points = pairing.d, pairing.n * pairing.d
    label, p3, p5 = (int(v) for v in gen.integers(0, [2 * pairing.loops, points, points]))
    s0 = int(pairing.loop_slots[label // 2])
    p1, p2 = (int(v) for v in pairing.pairs[s0])
    if label % 2:
        p1, p2 = p2, p1
    p4, p6 = pairing.partner(p3), pairing.partner(p5)
    v1, v2, v3, v4, v5 = p1 // d, p3 // d, p5 // d, p4 // d, p6 // d
    if (len({v1, v2, v3, v4, v5}) != 5
            or pairing.pairs_between(v2, v4) != 1 or pairing.pairs_between(v3, v5) != 1
            or pairing.pairs_between(v1, v2) or pairing.pairs_between(v1, v3)
            or pairing.pairs_between(v4, v5)):
        return False
    pairing.replace((s0, int(pairing.slot[p3]), int(pairing.slot[p5])),
                    ((p1, p3), (p2, p5), (p4, p6)))
    return True


def _double_switching(pairing: _Pairing, gen: np.random.Generator) -> bool:
    """One f-rejected d-switching, in place: a double pair label and ``p5``,
    ``p7``, as ``_loop_switching`` draws."""
    d, points = pairing.d, pairing.n * pairing.d
    label, p5, p7 = (int(v) for v in gen.integers(0, [4 * pairing.doubles, points, points]))
    sa, sb = (int(v) for v in pairing.double_slots[label // 4])
    if label & 1:
        sa, sb = sb, sa
    v1 = int(pairing.cu[sa]) if label & 2 else int(pairing.cv[sa])
    p1, p2 = (int(v) for v in pairing.pairs[sa])
    if p1 // d != v1:
        p1, p2 = p2, p1
    p3, p4 = (int(v) for v in pairing.pairs[sb])
    if p3 // d != v1:
        p3, p4 = p4, p3
    p6, p8 = pairing.partner(p5), pairing.partner(p7)
    v2, v3, v4, v5, v6 = p2 // d, p5 // d, p6 // d, p7 // d, p8 // d
    if (len({v1, v2, v3, v4, v5, v6}) != 6
            or pairing.pairs_between(v3, v4) != 1 or pairing.pairs_between(v5, v6) != 1
            or pairing.pairs_between(v1, v3) or pairing.pairs_between(v2, v4)
            or pairing.pairs_between(v1, v5) or pairing.pairs_between(v2, v6)):
        return False
    pairing.replace((sa, sb, int(pairing.slot[p5]), int(pairing.slot[p7])),
                    ((p1, p5), (p3, p7), (p2, p6), (p4, p8)))
    return True


def switch_to_simple(pairs: np.ndarray, n: int, d: int, caps: tuple[int, int],
                     gen: np.random.Generator) -> tuple[np.ndarray, int, int] | None:
    """Run REG on one pairing (an array of point pairs, one row per pair).

    Returns the simple pairing (same row order; switched rows rewritten) with
    the numbers of loops and double pairs switched away, or None when the
    pairing is rejected: initially (a triple pair, a double loop, or more
    loops or double pairs than ``caps``) or by an f- or b-rejection.
    """
    cells = pairs // d
    u, v = cells[:, 0], cells[:, 1]
    codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    if not (u == v).any() and not (codes[1:] == codes[:-1]).any():
        return pairs, 0, 0
    if caps == (0, 0):
        return None
    pairing = _Pairing(np.array(pairs, dtype=np.int64), n, d)
    loops, doubles = pairing.loops, pairing.doubles
    if pairing.triple or pairing.double_loop or loops > caps[0] or doubles > caps[1]:
        return None
    for left in range(loops - 1, -1, -1):
        if not _loop_switching(pairing, gen):
            return None
        pairing.require_class(left, doubles)
        paths, single_pairs = pairing.two_paths_and_pairs()
        if _backward_rejects("l-switching", loop_inverse_bound(n, d, left, doubles),
                             paths * single_pairs,
                             lambda: loop_inverse_count(pairing.cu, pairing.cv, n), gen):
            return None
    for left in range(doubles - 1, -1, -1):
        if not _double_switching(pairing, gen):
            return None
        pairing.require_class(0, left)
        paths, _ = pairing.two_paths_and_pairs()
        if _backward_rejects("d-switching", double_inverse_bound(n, d, left),
                             paths * paths,
                             lambda: double_inverse_count(pairing.cu, pairing.cv, n), gen):
            return None
    return pairing.pairs, loops, doubles

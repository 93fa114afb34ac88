"""Half-edge multigraphs and exact non-backtracking walk/circuit/circle censuses.

A multigraph is stored as an array of darts (half-edges): edge k of the input
list becomes darts 2k and 2k+1, and the twin involution is the XOR-with-1 map
on dart indices.  Loops and parallel edges are allowed throughout; a loop at v
contributes two darts, both with origin and head v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# Caps for the brute-force walk oracle and the circle enumeration.
BRUTE_R_CAP = 14
BRUTE_VERTEX_CAP = 64

_LAYER_LIMIT = 1 << 22  # max paths per enumeration chunk, or circle join pairs per slice


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class GraphFormatError(GraphError):
    """Malformed graph file; carries a 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class RegularityError(GraphError):
    """Operation requires a regular graph; names one violating vertex."""


class CapExceededError(GraphError):
    """Brute-force enumeration request above the safety caps."""


class CensusInvariantError(RuntimeError):
    """A census failed one of its combinatorial identities (internal bug trap)."""


def _padded_rows(rows: np.ndarray, values: np.ndarray, n_rows: int, pad: int) -> np.ndarray:
    """The incidence form: an (n_rows, widest row) int64 table whose row i
    lists the values v of the pairs (i, v), ascending, padded with ``pad``."""
    order = np.lexsort((values, rows))
    rows, values = rows[order], values[order]
    count = np.bincount(rows, minlength=n_rows)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    table = np.full((n_rows, int(count.max(initial=0))), pad, dtype=np.int64)
    table[rows, slot] = values
    return table


class MultiGraph:
    """Immutable half-edge multigraph.

    Darts are integers 0..2m-1 with twin(d) = d ^ 1.  head[d] is the terminus
    of dart d, and the origin of d is head[d ^ 1].
    """

    def __init__(self, n_vertices: int, head: np.ndarray):
        if not 0 <= n_vertices < 2 ** 63:  # checked before any array is sized by it
            raise GraphError(f"n_vertices must be nonnegative and fit in int64, got {n_vertices}")
        head = np.asarray(head, dtype=np.int64)
        if head.ndim != 1 or head.size % 2 != 0:
            raise GraphError("head array must be one-dimensional with even length")
        if head.size and (head.min() < 0 or head.max() >= n_vertices):
            raise GraphError("dart head out of vertex range")
        self.n_vertices = int(n_vertices)
        self.head = head.copy()
        self.head.setflags(write=False)

    @property
    def n_darts(self) -> int:
        return self.head.size

    @property
    def n_edges(self) -> int:
        return self.head.size // 2

    @cached_property
    def origin(self) -> np.ndarray:
        orig = self.head[np.arange(self.n_darts) ^ 1]
        orig.setflags(write=False)
        return orig

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.origin, minlength=self.n_vertices)
        deg.setflags(write=False)
        return deg

    @cached_property
    def regular_degree(self) -> int:
        """The common degree, at least 2, read off the darts with no array sized by n: the
        least vertex with no dart, of degree 0, is the first gap in the sorted origins."""
        if self.n_vertices == 0:
            raise RegularityError("empty graph has no degree")
        verts, deg = np.unique(self.origin, return_counts=True)
        gap = int(np.count_nonzero(verts == np.arange(verts.size)))
        if gap < self.n_vertices:
            verts, deg = np.insert(verts, gap, gap), np.insert(deg, gap, 0)
        d = int(deg[0])
        bad = np.nonzero(deg != d)[0]
        if bad.size:
            raise RegularityError(
                f"graph is not regular: vertex {int(verts[bad[0]])} has degree "
                f"{int(deg[bad[0]])}, vertex 0 has degree {d}")
        if d < 2:
            raise RegularityError(f"degree {d} below required minimum 2")
        return d

    # Incidence tables: row i lists the out-darts of vertex i or the NBW
    # successors of dart i, ascending, padded to the widest row with the
    # phantom dart n_darts, whose head is the phantom vertex n_vertices
    # (``_heads``).  On a regular graph no row is padded.

    @cached_property
    def _heads(self) -> np.ndarray:
        """head with the phantom dart's head n_vertices appended."""
        heads = np.append(self.head, self.n_vertices)
        heads.setflags(write=False)
        return heads

    @cached_property
    def _out_table(self) -> np.ndarray:
        """Out-darts per vertex, one row each."""
        table = _padded_rows(self.origin, np.arange(self.n_darts), self.n_vertices, self.n_darts)
        table.setflags(write=False)
        return table

    @cached_property
    def _nbw_table(self) -> np.ndarray:
        """NBW successors per dart: the out-darts of its head but its twin,
        which every row of ``_out_table[head]`` holds exactly once."""
        cand = self._out_table[self.head]
        keep = cand != (np.arange(self.n_darts) ^ 1)[:, None]
        table = cand[keep].reshape(self.n_darts, max(0, cand.shape[1] - 1))
        table.setflags(write=False)
        return table

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in construction order as (origin, head) of the even dart."""
        return [(int(self.origin[2 * k]), int(self.head[2 * k]))
                for k in range(self.n_edges)]

    def canonical_edge_list(self) -> list[tuple[int, int]]:
        return sorted((min(u, v), max(u, v)) for u, v in self.edge_list())

    def __repr__(self) -> str:
        return f"MultiGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def build_from_edge_list(edges: Sequence[tuple[int, int]], n_vertices: int) -> MultiGraph:
    """Build a multigraph from unordered vertex pairs (repeats and loops allowed)."""
    try:
        ends = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    except OverflowError:  # an endpoint past int64: out of range, or n is past it too
        ends = np.array(edges, dtype=object).reshape(len(edges), 2)
    bad = ((ends < 0) | (ends >= n_vertices)).any(axis=1)
    if bad.any():
        idx = int(bad.argmax())
        u, v = edges[idx]
        raise GraphError(f"edge {idx}: endpoint ({u}, {v}) out of range for n={n_vertices}")
    return MultiGraph(n_vertices, ends[:, ::-1].ravel())  # dart 2k: u -> v, 2k+1: v -> u


# ---------------------------------------------------------------------------
# graph file format: first line "n m", then m lines "u v" (0-based)

def parse_graph_text(text: str) -> MultiGraph:
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty graph file", 1)
    first = lines[0].split()
    if len(first) != 2:
        raise GraphFormatError("expected header 'n m'", 1)
    try:
        n, m = int(first[0]), int(first[1])
    except ValueError:
        raise GraphFormatError("expected integer header 'n m'", 1) from None
    edges: list[tuple[int, int]] = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError("expected edge line 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("expected integer endpoints", lineno) from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"endpoint ({u}, {v}) out of range for n={n}", lineno)
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(edges)}", 1)
    return build_from_edge_list(edges, n)


def format_graph_text(g: MultiGraph) -> str:
    lines = [f"{g.n_vertices} {g.n_edges}"]
    lines += [f"{u} {v}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"


def load_graph_file(path) -> MultiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def save_graph_file(g: MultiGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g))


# ---------------------------------------------------------------------------
# girth

def girth(g: MultiGraph):
    """Length of the shortest nontrivial closed NBW; math.inf for forests.

    Computed combinatorially off each vertex's sorted neighbour row
    ``_heads[_out_table]``, where the phantom n sorts last (loops, parallel
    pairs, then BFS shortest cycle), independently of the census machinery.
    """
    if g.n_darts == 0:
        return math.inf
    n = g.n_vertices
    rows = np.sort(g._heads[g._out_table], axis=1)
    if (rows == np.arange(n)[:, None]).any():
        return 1
    if ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] < n)).any():
        return 2
    # simple graph from here on: row v opens with its deg(v) neighbours
    adj = [row[:k] for row, k in zip(rows.tolist(), g.degrees.tolist())]
    best = math.inf
    for s in range(n):
        dist, parent = [-1] * n, [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                if dist[u] * 2 >= best:
                    continue
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


# ---------------------------------------------------------------------------
# brute-force oracle (exhaustive dart enumeration)

def _roots_per_chunk(g: MultiGraph, depth: int, width: int = 1) -> int:
    """Roots per chunk: chunk * width * (most NBW successors of a dart)^depth
    <= _LAYER_LIMIT, for roots that start ``width`` paths each."""
    growth = max(1, g._nbw_table.shape[1]) ** max(0, depth)
    return max(1, _LAYER_LIMIT // (growth * width))


def brute_walk_counts(g: MultiGraph, r_max: int) -> tuple[list[int], list[int]]:
    """Exact (f, c) for r = 0..r_max by exhaustive dart-path enumeration.

    f_r counts closed non-backtracking walks of length r, c_r those whose
    closing step does not backtrack either (circuits).  Paths are materialized
    level by level so large sweeps stay fast; the oracle is independent of the
    matrix census path.
    """
    if r_max < 0:
        raise GraphError("walk length must be nonnegative")
    if r_max > BRUTE_R_CAP:
        raise CapExceededError(f"brute-force length {r_max} above cap {BRUTE_R_CAP}")
    if g.n_vertices > BRUTE_VERTEX_CAP:
        raise CapExceededError(
            f"brute-force enumeration capped at {BRUTE_VERTEX_CAP} vertices, got {g.n_vertices}")
    f = [0] * (r_max + 1)
    c = [0] * (r_max + 1)
    f[0] = g.n_vertices
    if r_max == 0 or g.n_darts == 0:
        return f, c
    table = g._nbw_table
    width = table.shape[1]
    padded = bool((table == g.n_darts).any())
    head, origin = g.head, g.origin
    per_chunk = _roots_per_chunk(g, r_max - 1)
    for lo in range(0, g.n_darts, per_chunk):
        cur = fst = np.arange(lo, min(lo + per_chunk, g.n_darts), dtype=np.int64)
        for r in range(1, r_max + 1):
            if r > 1:
                cur, fst = table[cur].ravel(), np.repeat(fst, width)
                if padded:  # drop the phantom dart
                    real = cur != g.n_darts
                    cur, fst = cur[real], fst[real]
                if cur.size == 0:
                    break
            closed = head[cur] == origin[fst]
            f[r] += int(np.count_nonzero(closed))
            c[r] += int(np.count_nonzero(closed & (cur != (fst ^ 1))))
    return f, c


def _half_paths(g: MultiGraph, lo: int, hi: int, depth: int) -> list[tuple]:
    """Simple paths of 1..depth edges from each root s in lo..hi-1 through
    vertices above s.  Entry l-1 holds the l-edge paths as (key, vertices,
    interior), sorted by key = ((s - lo) * n + end) * n + first: vertices is
    the (paths, l) array of the vertices after s, and interior ORs bit (v mod 64)
    of the vertices strictly between s and the end into one uint64."""
    n, heads, table = g.n_vertices, g._heads, g._nbw_table
    bit = np.left_shift(np.uint64(1), (np.arange(n) & 63).astype(np.uint64))
    darts = g._out_table[lo:hi]
    ends = heads[darts]
    roots, cols = np.nonzero((ends > np.arange(lo, hi)[:, None]) & (ends < n))  # not the phantom
    darts, verts = darts[roots, cols], ends[roots, cols][:, None]
    interior = np.zeros(roots.size, dtype=np.uint64)
    layers = []
    for length in range(1, depth + 1):
        if length > 1:
            cand = table[darts]
            ends = heads[cand]
            fresh = (ends > (roots + lo)[:, None]) & (ends < n)
            for col in verts.T:
                fresh &= ends != col[:, None]
            rows, cols = np.nonzero(fresh)
            interior = interior[rows] | bit[verts[rows, -1]]
            roots, darts = roots[rows], cand[rows, cols]
            verts = np.column_stack((verts[rows], ends[rows, cols]))
        key = (roots * n + verts[:, -1]) * n + verts[:, 0]
        order = np.argsort(key)
        layers.append((key[order], verts[order], interior[order]))
    return layers


def _joined(p_paths: tuple, q_paths: tuple, n: int) -> int:
    """Pairs (P, Q) of ``_half_paths`` entries with one root and end,
    first(P) < first(Q) and no shared interior vertex, taken in slices of at
    most _LAYER_LIMIT pairs (or one P)."""
    p_key, p_verts, p_interior = p_paths
    q_key, q_verts, q_interior = q_paths
    lo = np.searchsorted(q_key, p_key, "right")          # same root and end, larger first
    hi = np.searchsorted(q_key, p_key - p_verts[:, 0] + n, "left")
    count = hi - lo
    bounds = np.concatenate(([0], np.cumsum(count)))
    pairs, start = int(bounds[-1]), 0
    while start < count.size and bounds[start] < bounds[-1]:
        stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + _LAYER_LIMIT, "right")) - 1)
        i = np.repeat(np.arange(start, stop), count[start:stop])
        j = np.repeat(lo[start:stop] - bounds[start:stop], count[start:stop])
        j += np.arange(bounds[start], bounds[stop])
        meet = np.flatnonzero(p_interior[i] & q_interior[j])
        if n > 64:                                      # bits v mod 64 collide: confirm
            inner_p, inner_q = p_verts[i[meet], :-1], q_verts[j[meet], :-1]
            meet = meet[(inner_p[:, :, None] == inner_q[:, None, :]).any(axis=(1, 2))]
        pairs -= meet.size
        start = stop
    return pairs


def enumerate_circles(g: MultiGraph, r_max: int) -> list[int]:
    """z[r] = number of circle subgraphs (connected, all degrees 2) with r edges.

    Index 0 is always 0.  Loops are size-1 circles and parallel-edge pairs are
    size-2 circles.  A circle of size k >= 3 through its least vertex s is one
    pair of simple paths from s through vertices above s: P of ceil(k/2) edges
    and Q of floor(k/2), with one end, first(P) < first(Q) (which picks one of
    the circle's splits) and no shared vertex between s and the end.  So paths
    grow only to depth ceil(r_max/2) (``_half_paths``) and are joined on the
    sort key (root, end, first) by ``searchsorted`` (``_joined``); an interior
    meeting is read off the paths' uint64 signatures, exact for n <= 64 and
    confirmed on the vertex lists above.  Roots go in chunks of consecutive
    vertices whose deepest half-paths stay within _LAYER_LIMIT and whose keys
    stay within int64.
    """
    if r_max < 0:
        raise GraphError("r_max must be nonnegative")
    if r_max > BRUTE_R_CAP:
        raise CapExceededError(f"circle enumeration length {r_max} above cap {BRUTE_R_CAP}")
    z = [0] * (r_max + 1)
    if g.n_darts == 0 or r_max == 0:
        return z
    head, origin = g.head, g.origin
    z[1] = int((head == origin).sum()) // 2
    if r_max >= 2:
        mask = head[0::2] != origin[0::2]
        u = np.minimum(head[0::2][mask], origin[0::2][mask])
        v = np.maximum(head[0::2][mask], origin[0::2][mask])
        codes = u * g.n_vertices + v
        _, mult = np.unique(codes, return_counts=True)
        z[2] = int((mult * (mult - 1) // 2).sum())
    if r_max < 3:
        return z
    n, depth = g.n_vertices, (r_max + 1) // 2
    chunk = min(_roots_per_chunk(g, depth - 1, g._out_table.shape[1]),
                max(1, np.iinfo(np.int64).max // (n * n)))
    for lo in range(0, n, chunk):
        layers = _half_paths(g, lo, min(n, lo + chunk), depth)
        for k in range(3, r_max + 1):
            z[k] += _joined(layers[(k + 1) // 2 - 1], layers[k // 2 - 1], n)
    return z


# ---------------------------------------------------------------------------
# census

@dataclass(frozen=True)
class WalkCensus:
    """Exact per-length counts: f (closed NBWs), c (circuits), z (circles)."""

    r_max: int
    q: int
    n_vertices: int
    f: tuple[int, ...]
    c: tuple[int, ...]
    z: Optional[tuple[int, ...]]

    def identity_circle_bounds(self, r: int) -> bool:
        """2 r z_r <= c_r <= f_r <= (q+1)^2 q^(2r-2) * sum_{k<=r} k z_k, exactly."""
        if self.z is None:
            raise GraphError("census was built without circle counts")
        left = 2 * r * self.z[r] <= self.c[r] <= self.f[r]
        weight = sum(k * self.z[k] for k in range(1, r + 1))
        right = self.f[r] <= (self.q + 1) ** 2 * self.q ** max(0, 2 * r - 2) * weight
        return left and right

    def check_all(self) -> None:
        if self.c[0] != 0 or self.f[0] != self.n_vertices:
            raise CensusInvariantError("census base cases violated")
        for r in range(1, self.r_max + 1):
            if not 0 <= self.c[r] <= self.f[r]:
                raise CensusInvariantError(f"0 <= c_r <= f_r failed at r={r}")
            if self.z is not None and not self.identity_circle_bounds(r):
                raise CensusInvariantError(f"circle bound failed at r={r}")


def walk_census(g: MultiGraph, r_max: int) -> WalkCensus:
    """Exact census on a regular graph: f via the non-backtracking matrix
    recurrence, c from f in closed form (``nbmatrix._circuits_from_traces``),
    z by joining half-paths (``enumerate_circles``) when r_max is within the
    brute cap."""
    from . import nbmatrix  # deferred: nbmatrix imports MultiGraph from here

    f = nbmatrix.nb_trace_sequence(g, r_max)  # checks regularity, then r_max
    q = g.regular_degree - 1
    c = nbmatrix._circuits_from_traces(f, q)
    z = tuple(enumerate_circles(g, r_max)) if r_max <= BRUTE_R_CAP else None
    census = WalkCensus(r_max=r_max, q=q, n_vertices=g.n_vertices,
                        f=tuple(f), c=tuple(c), z=z)
    census.check_all()
    return census


# convenient named graphs (used by tests, demos, and docs)

def cycle_graph(m: int) -> MultiGraph:
    if m < 3:
        raise GraphError("cycle graph needs at least 3 vertices")
    return build_from_edge_list([(i, (i + 1) % m) for i in range(m)], m)


def complete_graph(n: int) -> MultiGraph:
    return build_from_edge_list(
        [(i, j) for i in range(n) for j in range(i + 1, n)], n)


def petersen_graph() -> MultiGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_from_edge_list(edges, 10)

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

_LAYER_LIMIT = 1 << 22  # max materialized dart paths per enumeration chunk


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


class MultiGraph:
    """Immutable half-edge multigraph.

    Darts are integers 0..2m-1 with twin(d) = d ^ 1.  head[d] is the terminus
    of dart d, and the origin of d is head[d ^ 1].
    """

    def __init__(self, n_vertices: int, head: np.ndarray):
        head = np.asarray(head, dtype=np.int64)
        if head.ndim != 1 or head.size % 2 != 0:
            raise GraphError("head array must be one-dimensional with even length")
        if n_vertices < 0:
            raise GraphError("n_vertices must be nonnegative")
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
    def _out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Darts sorted by origin as (flat darts, offsets per vertex)."""
        order = np.lexsort((np.arange(self.n_darts), self.origin))
        flat = np.arange(self.n_darts, dtype=np.int64)[order]
        counts = np.bincount(self.origin, minlength=self.n_vertices)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        flat.setflags(write=False)
        offsets.setflags(write=False)
        return flat, offsets

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.origin, minlength=self.n_vertices)
        deg.setflags(write=False)
        return deg

    @cached_property
    def _nbw_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Allowed NBW successors per dart: out-darts of head(d) minus twin(d)."""
        cand, counts = _expand_csr(*self._out_csr, self.head)
        out = cand[cand != np.repeat(np.arange(self.n_darts) ^ 1, counts)]
        offsets = np.concatenate(([0], np.cumsum(counts - 1))).astype(np.int64)
        out.setflags(write=False)
        offsets.setflags(write=False)
        return out, offsets

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
    head = np.empty(2 * len(edges), dtype=np.int64)
    for idx, (u, v) in enumerate(edges):
        if not (0 <= u < n_vertices) or not (0 <= v < n_vertices):
            raise GraphError(f"edge {idx}: endpoint ({u}, {v}) out of range for n={n_vertices}")
        head[2 * idx] = v      # dart 2k: u -> v
        head[2 * idx + 1] = u  # dart 2k+1: v -> u
    return MultiGraph(n_vertices, head)


def _require_regular(g: MultiGraph) -> int:
    deg = g.degrees
    if g.n_vertices == 0:
        raise RegularityError("empty graph has no degree")
    d = int(deg[0])
    bad = np.nonzero(deg != d)[0]
    if bad.size:
        raise RegularityError(
            f"graph is not regular: vertex {int(bad[0])} has degree "
            f"{int(deg[bad[0]])}, vertex 0 has degree {d}")
    if d < 2:
        raise RegularityError(f"degree {d} below required minimum 2")
    return d


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

    Computed combinatorially (loops, parallel pairs, then BFS shortest cycle),
    independently of the census machinery.
    """
    if g.n_darts == 0:
        return math.inf
    if bool((g.head == g.origin).any()):
        return 1
    pairs = {}
    for u, v in g.edge_list():
        key = (min(u, v), max(u, v))
        pairs[key] = pairs.get(key, 0) + 1
        if pairs[key] >= 2:
            return 2
    # simple graph from here on
    adj: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    best = math.inf
    for s in range(g.n_vertices):
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                if dist[u] * 2 >= best:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


# ---------------------------------------------------------------------------
# brute-force oracle (exhaustive dart enumeration)

def _expand_csr(flat: np.ndarray, off: np.ndarray, cur: np.ndarray):
    """Gather flat[off[c]:off[c+1]] for every c in cur; also return repeat counts."""
    counts = off[cur + 1] - off[cur]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=flat.dtype), counts
    base = np.repeat(off[cur], counts)
    csum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(csum - counts, counts)
    return flat[base + within], counts


def _roots_per_chunk(g: MultiGraph, depth: int, width: int = 1) -> int:
    """Root darts per chunk: chunk * width * (most NBW successors of a dart)^depth
    <= _LAYER_LIMIT, for paths that hold ``width`` entries each."""
    widths = np.diff(g._nbw_csr[1])
    growth = max(1, int(widths.max(initial=0))) ** max(0, depth)
    return max(1, _LAYER_LIMIT // (growth * width))


_FAR = np.iinfo(np.uint8).max  # distance entry of a vertex at or below the root


def _root_distances(g: MultiGraph, s_lo: int, s_hi: int, depth: int) -> np.ndarray:
    """uint8 (s_hi - s_lo) x n table: row s - s_lo holds, for each v > s, the
    fewest edges from v back to s through vertices above s when that is at
    most ``depth``, else depth + 1 (a lower bound); entries for v <= s are
    _FAR.  A breadth-first search from every root of the range at once."""
    n, head = g.n_vertices, g.head
    flat, off = g._out_csr
    dist = np.full((s_hi - s_lo, n), depth + 1, dtype=np.uint8)
    for s in range(s_lo, s_hi):
        dist[s - s_lo, :s + 1] = _FAR
    dist = dist.ravel()
    rows = np.arange(s_hi - s_lo)
    front = rows + s_lo
    for k in range(1, depth + 1):
        darts, counts = _expand_csr(flat, off, front)
        codes = np.repeat(rows, counts) * n + head[darts]
        codes = np.unique(codes[dist[codes] == depth + 1])  # above the root, not yet reached
        if codes.size == 0:
            break
        dist[codes] = k
        rows, front = np.divmod(codes, n)
    return dist.reshape(s_hi - s_lo, n)


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
    nxt_flat, nxt_off = g._nbw_csr
    head, origin = g.head, g.origin
    per_chunk = _roots_per_chunk(g, r_max - 1)
    for lo in range(0, g.n_darts, per_chunk):
        first = np.arange(lo, min(lo + per_chunk, g.n_darts), dtype=np.int64)
        cur = first.copy()
        fst = first.copy()
        for r in range(1, r_max + 1):
            if r > 1:
                cur, counts = _expand_csr(nxt_flat, nxt_off, cur)
                fst = np.repeat(fst, counts)
                if cur.size == 0:
                    break
            closed = head[cur] == origin[fst]
            f[r] += int(closed.sum())
            c[r] += int((closed & (cur != (fst ^ 1))).sum())
    return f, c


def enumerate_circles(g: MultiGraph, r_max: int) -> list[int]:
    """z[r] = number of circle subgraphs (connected, all degrees 2) with r edges.

    Index 0 is always 0.  Loops are size-1 circles and parallel-edge pairs are
    size-2 circles; sizes >= 3 are vertex-disjoint cycles enumerated once each
    via min-vertex rooting and a fixed orientation (first vertex after the
    root below the last).  Paths grow along non-backtracking darts with their
    visited vertices in a bitset of ceil(n/64) uint64 words.  A path that
    reaches v with ``left`` steps to go is kept only if v is above the root s
    and dist(v, s) <= left, the fewest edges from v back to s through vertices
    above s.  A path is never farther from s than its length, so the test can
    fail only for left <= (r_max - 1) // 2, and distances are searched to that
    depth.  Root darts go sorted by root in chunks whose bitsets (chunk *
    max_branch^(r_max-2) paths of ceil(n/64) words) and whose distance rows
    (one of n entries per root vertex in the chunk's range) each stay within
    _LAYER_LIMIT entries.
    """
    if r_max < 0:
        raise GraphError("r_max must be nonnegative")
    if r_max > BRUTE_R_CAP:
        raise CapExceededError(f"circle enumeration length {r_max} above cap {BRUTE_R_CAP}")
    z = [0] * (r_max + 1)
    if g.n_darts == 0 or r_max == 0:
        return z
    head, origin = g.head, g.origin
    if r_max >= 1:
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
    n = g.n_vertices
    nxt_flat, nxt_off = g._nbw_csr
    word = np.arange(n) >> 6
    bit = np.left_shift(np.uint64(1), (np.arange(n) & 63).astype(np.uint64))
    flat = g._out_csr[0]
    roots = flat[head[flat] > origin[flat]]     # first step ascends; sorted by root
    root_of = origin[roots]
    per_chunk = _roots_per_chunk(g, r_max - 2, (n + 63) >> 6)
    span = max(1, _LAYER_LIMIT // n)            # root vertices (distance rows) per chunk
    lo = 0
    while lo < roots.size:
        s_lo = int(root_of[lo])
        hi = min(lo + per_chunk, int(np.searchsorted(root_of, s_lo + span)))
        dist = _root_distances(g, s_lo, int(root_of[hi - 1]) + 1, (r_max - 1) // 2)
        live, lo = roots[lo:hi], hi
        starts, firsts = origin[live], head[live]
        bits = np.zeros((live.size, (n + 63) >> 6), dtype=np.uint64)
        bits[np.arange(live.size), word[firsts]] = bit[firsts]
        for k in range(1, r_max):
            cand, counts = _expand_csr(nxt_flat, nxt_off, live)
            ends = head[cand]
            s_rep = np.repeat(starts, counts)
            if k >= 2:                          # close at the root, first vertex below last
                z[k + 1] += int(((ends == s_rep) & np.repeat(firsts < head[live], counts)).sum())
            left = r_max - k - 1                # steps left after this one
            if left == 0:
                break
            rows = np.repeat(np.arange(live.size), counts)
            keep = np.flatnonzero(dist[s_rep - s_lo, ends] <= left)  # so also ends > root
            keep = keep[(bits[rows[keep], word[ends[keep]]] & bit[ends[keep]]) == 0]
            rows, live = rows[keep], cand[keep]
            starts, firsts, bits = s_rep[keep], firsts[rows], bits[rows]
            bits[np.arange(keep.size), word[ends[keep]]] |= bit[ends[keep]]
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

    def identity_nbw_circuit(self, r: int) -> bool:
        """f_r = c_r + (q-1) * sum_{1 <= i < r/2} q^(i-1) c_{r-2i}, exactly."""
        rhs = self.c[r]
        i = 1
        while 2 * i < r:
            rhs += (self.q - 1) * self.q ** (i - 1) * self.c[r - 2 * i]
            i += 1
        return self.f[r] == rhs

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
            if not self.identity_nbw_circuit(r):
                raise CensusInvariantError(f"NBW/circuit identity failed at r={r}")
            if self.z is not None and not self.identity_circle_bounds(r):
                raise CensusInvariantError(f"circle bound failed at r={r}")


def walk_census(g: MultiGraph, r_max: int) -> WalkCensus:
    """Exact census on a regular graph: f via the non-backtracking matrix
    recurrence, c via powers of the dart (Hashimoto) matrix, z via subgraph
    enumeration when r_max is within the brute cap."""
    from . import nbmatrix  # deferred: nbmatrix imports MultiGraph from here

    if r_max < 0:
        raise GraphError(f"r_max must be nonnegative, got {r_max}")
    d = _require_regular(g)
    q = d - 1
    f = nbmatrix.nb_trace_sequence(g, r_max)
    c = nbmatrix.circuit_count_sequence(g, r_max)
    z = tuple(enumerate_circles(g, r_max)) if r_max <= BRUTE_R_CAP else None
    census = WalkCensus(r_max=r_max, q=q, n_vertices=g.n_vertices,
                        f=tuple(f), c=tuple(c), z=z)
    census.check_all()
    return census


def census_to_csv(census: WalkCensus) -> str:
    lines = ["r,f,c,z"]
    for r in range(census.r_max + 1):
        zval = "" if census.z is None else str(census.z[r])
        lines.append(f"{r},{census.f[r]},{census.c[r]},{zval}")
    return "\n".join(lines) + "\n"


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

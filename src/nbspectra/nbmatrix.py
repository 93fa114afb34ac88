"""Non-backtracking matrices, exact walk and circuit counts, and unitary colors.

Exact integer arithmetic backs every count.  The census multiplies on the
left by A as the graph stores it: the heads of each vertex's out-darts.
Entries of A_r count walks, so the caller bounds each product in closed form:
below 2^63 it runs in int64, else in Python-int object arrays.  The closed-NBW
counts f_r are traces of products of two A_j, summed under the same rule; on
a regular graph the circuit counts c_r = tr(B^r) of the dart matrix B follow
from them in closed form, so B itself is never multiplied.

A unitary coloring is a complex (edges, N, N) array: row k is the block of
edge k's even dart, and the twin dart carries its adjoint; no coloring is
the coloring by 1 x 1 identity blocks, with exact A_r.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .chebyshev import eval_X_table, xrq_from_x
from .multigraph import GraphError, MultiGraph

UNITARY_TOL = 1e-12
COLOR_IDENTITY_TOL = 1e-8


class ColorError(ValueError):
    """Invalid unitary color assignment."""


class ColorInvariantError(RuntimeError):
    """An A_r, colored or not, broke an identity its construction guarantees
    (internal bug trap)."""


def exact_int_dot(table: np.ndarray, a: np.ndarray, bound: int) -> np.ndarray:
    """Exact product T a of a count matrix T and an integer (int64 or object) a.

    Row i of T a sums the rows of ``a`` that row i of ``table`` lists, each
    listing once; its entries are nonnegative, and one past the last row of
    ``a`` raises ValueError.  ``bound`` is at least max_j sum_k |a_kj| times
    the largest entry of T (or 1), so it bounds every entry of a, term and
    partial sum: below 2^63 the product runs in int64, else in Python-int
    objects.
    """
    if table.size and table.max() >= a.shape[0]:
        raise ValueError(f"table entries must index the {a.shape[0]} rows of a")
    dtype = np.int64 if bound < 2 ** 63 else object
    a = a.astype(dtype, copy=False)
    out = np.zeros((table.shape[0], a.shape[1]), dtype=dtype)
    term = np.empty_like(out)  # the one temporary, reused by every slot
    for k in table.T:
        np.take(a, k, axis=0, out=term, mode="clip")  # "raise" would buffer out=: slower
        out += term
    return out


def adjacency(g: MultiGraph, dtype=np.int64) -> np.ndarray:
    """Adjacency matrix, a loop adding 2 to its diagonal entry: int64 for exact
    counts, float64 for the one buffer an eigensolve reads (no cast copy)."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=dtype)
    np.add.at(a, (g.origin, g.head), 1)
    return a


def _nb_recurrence(a: np.ndarray, q: int, r_max: int, times_a) -> Iterator[np.ndarray]:
    """Yield A_0..A_{r_max}, each as the caller reads it, from A_0 = I, A_1 = A,
    A_2 = A^2 - (q+1) I and A_r = A A_{r-1} - q A_{r-2} for r >= 3, holding only
    A_{r-2}, A_{r-1} and the product ``times_a(A_{r-1}, r)``: that is A A_{r-1},
    which is A_{r-1} A, both polynomials in A."""
    if r_max < 0:
        raise GraphError(f"r_max must be nonnegative, got {r_max}")
    older = np.eye(a.shape[0], dtype=a.dtype)
    yield older
    if r_max >= 1:
        yield (old := a.copy())
    for r in range(2, r_max + 1):
        prod = times_a(old, r)  # q * A_{r-2} may pass int64 once prod is object
        prod -= (q + 1 if r == 2 else q) * older.astype(prod.dtype, copy=False)
        older, old = old, prod
        yield prod


def nb_matrix_sequence(g: MultiGraph, r_max: int, color=None) -> Iterator[np.ndarray]:
    """Stream A_0..A_{r_max} of a regular graph.  With no ``color``, the exact A_r:
    A_{r-1} is symmetric with rows summing to (q+1) q^(r-2), so (q+1) q^(r-2) max A
    bounds the product A A_{r-1}.  Else the complex A_r of ``colored_adjacency``."""
    q = g.regular_degree - 1
    if color is not None:
        _require_float_walks(q, r_max)
        a = colored_adjacency(g, color)
        return _nb_recurrence(a, q, r_max, lambda m, r: m @ a)
    a = adjacency(g)
    heads, top = g.head[g._out_table], int(a.max())
    return _nb_recurrence(a, q, r_max,
                          lambda m, r: exact_int_dot(heads, m, (q + 1) * q ** (r - 2) * top))


def nb_trace_sequence(g: MultiGraph, r_max: int) -> list[int]:
    """Closed-NBW counts f_0..f_{r_max}, f_r = tr(A_r), from A_0..A_{ceil(r_max/2)} as they stream.

    For 1 <= j <= k, A_j A_k = A_{j+k} + sum_{i=1}^{j-1} (q-1) q^(i-1) A_{j+k-2i}
    + c_j A_{k-j}, with c_j = q^j if j < k and (q+1) q^(j-1) if j = k, so f_r
    is tr(A_j A_k) at j = r // 2, k = r - j, less the lower terms' traces, carried by parity
    as L_r = (q-1) f_{r-2} + q L_{r-2} from r = 4 (L_2 = L_3 = 0): f_{2k-1} and f_{2k} read
    A_{k-1} and A_k, so two A_j are held.  Entries of A_j count walks, so they are nonnegative,
    and a row of A_j sums to (q+1) q^(j-1): its entries sum to n (q+1) q^(j-1), the bound
    ``_pair_trace`` takes.
    """
    q = g.regular_degree - 1
    stream = nb_matrix_sequence(g, r_max)
    f, lower, a_k = [], [0, 0], next(stream)  # reading A_0 checks r_max
    for r in range(r_max + 1):
        j, k = r // 2, r - r // 2
        a_j, a_k = (a_k, next(stream)) if r % 2 else (a_k, a_k)
        if r < 2:  # f_0 = tr(A_0), f_1 = tr(A_1)
            f.append(int(np.trace(a_k, dtype=object)))
            continue
        total = _pair_trace(a_j, a_k, g.n_vertices * (q + 1) * q ** (j - 1))
        lower[r % 2] = (q - 1) * f[r - 2] + q * lower[r % 2] if r >= 4 else 0
        c_j = q ** j if j < k else (q + 1) * q ** (j - 1)
        f.append(total - lower[r % 2] - c_j * f[k - j])
    return f


def _pair_trace(x: np.ndarray, y: np.ndarray, x_sum: int) -> int:
    """tr(x y) = sum_ij x_ij y_ji of nonnegative integer matrices, where the
    entries of x sum to at most ``x_sum``.  Every term and partial sum is at
    most the total, itself at most x_sum * max(y): below 2^63 the sum runs in
    int64, else in Python ints."""
    if x.dtype != object and y.dtype != object and x_sum * int(y.max(initial=0)) < 2 ** 63:
        return int(np.einsum("ij,ji->", x, y))
    return int((x.astype(object) * y.T.astype(object)).sum())


def _circuits_from_traces(f: list[int], q: int) -> list[int]:
    """c_0..c_r from f_0..f_r in Python ints: f_r = c_r + (q-1) S_r, where the tail sum S_r
    of ``circuit_count_sequence`` is 0 at r <= 2 and c_{r-2} + q S_{r-2} from r = 3, so c_0 = 0,
    c_r = f_r at r = 1, 2 and c_r = f_r - q f_{r-2} + c_{r-2} from r = 3."""
    c = [0] + f[1:3]
    for r in range(3, len(f)):
        c.append(f[r] - q * f[r - 2] + c[r - 2])
    return c


def circuit_count_sequence(g: MultiGraph, r_max: int) -> list[int]:
    """Circuit counts c_0..c_{r_max}, c_r = tr(B^r), of a (q+1)-regular graph.

    A closed NBW that is not a circuit is a circuit of length r - 2i with one
    of (q-1) q^(i-1) tails of length i >= 1 hung at its start, so f_r = c_r + (q-1) S_r
    with the tail sum S_r = sum_{1 <= i < r/2} q^(i-1) c_{r-2i}, and c is read off f
    exactly.  The tail count needs q+1 darts at every vertex: like
    ``nb_trace_sequence``, this raises RegularityError on an irregular graph."""
    return _circuits_from_traces(nb_trace_sequence(g, r_max), g.regular_degree - 1)


def _require_float_walks(q: int, r_max: int) -> None:
    """Reject an r_max at which an A_r entry, colored or not, can pass the largest
    float: it is at most (q+1) q^(r-1), the NB walks of length r from a vertex."""
    largest = r_max if q < 2 else int(math.log(sys.float_info.max / (q + 1), q)) + 1
    if r_max > largest:
        raise ValueError(f"r_max {r_max} takes A_r entries past float range (q={q}): "
                         f"the largest allowed r_max is {largest}")


def _friedman_deviations(q: int, seq: Iterable[np.ndarray]) -> list[float]:
    """Max entrywise |q^{r/2} X_{r,q}(A/sqrt(q)) - A_r| at each r, NaN where a
    deviation is NaN: the left side in floating point, X_r(M) of M = A_1/sqrt(q)
    walked by X_r = M X_{r-1} - X_{r-2} as ``seq`` (a list, or ``nb_matrix_sequence``)
    yields A_r, so only M, X_{r-2}, X_{r-1}, X_r and the A_r read are held."""
    devs, older, old, m = [], None, None, None
    for r, a_r in enumerate(seq):
        m = a_r / math.sqrt(q) if r == 1 else m
        x = (m @ old - older if r >= 2 else m if r == 1
             else np.eye(len(a_r), dtype=np.result_type(a_r, 1.0)))
        dev = q ** (r / 2.0) * (x - older / q if r >= 2 else x)  # X_{r,q} = X_r - X_{r-2} / q
        devs.append(float(np.abs(dev - np.asarray(a_r, dtype=x.dtype)).max()))
        older, old = old, x
    return devs


def verify_friedman_identity(g: MultiGraph, r_max: int, color=None) -> float:
    """Max entrywise |q^{r/2} X_{r,q}(A/sqrt(q)) - A_r| over r <= r_max against
    ``nb_matrix_sequence(g, r_max, color)``, streamed one r at a time.  A deviation
    past ``COLOR_IDENTITY_TOL`` times max(1, (q+1) q^(r-1)), the bound
    ``_require_float_walks`` puts on an A_r entry, or a NaN one, raises ColorInvariantError."""
    q = g.regular_degree - 1
    _require_float_walks(q, r_max)
    devs = _friedman_deviations(q, nb_matrix_sequence(g, r_max, color))
    for r, dev in enumerate(devs):  # a NaN deviation fails too
        if not dev <= COLOR_IDENTITY_TOL * max(1, (q + 1) * q ** (r - 1)):
            raise ColorInvariantError(f"polynomial identity deviates by {dev:.3e} at r={r}")
    return float(np.max(devs))


@dataclass(frozen=True)
class TraceIdentityReport:
    """Per-length deviations of the three Chebyshev trace identities."""

    r_max: int
    q: int
    dev_nbw: tuple[float, ...]       # Tr X_{r,q}(A/sqrt(q)) = q^{-r/2} f_r
    dev_geometric: tuple[float, ...]  # Tr X_r(A/sqrt(q)) = q^{-r/2} sum f_{r-2k}
    dev_circuit: tuple[float, ...]    # Tr Y_r(A/sqrt(q)) = q^{-r/2} c_r - correction

    @property
    def max_deviation(self) -> float:
        return max(self.dev_nbw + self.dev_geometric + self.dev_circuit)  # dev_nbw holds r = 0


def trace_identities_report(g: MultiGraph, r_max: int) -> TraceIdentityReport:
    """Check the three trace identities against the exact closed-NBW counts f
    (``nb_trace_sequence``) and the circuit counts c read off them, each
    Tr X_r(A/sqrt(q)) summed over the spectrum as the moment statistics are; a count
    is divided by q^(r//2) exactly before it is rounded, so none passes float range."""
    from .spectra.eigen import eigenvalues_symmetric  # deferred: spectra.measures imports nbmatrix
    q = g.regular_degree - 1
    _require_float_walks(q, r_max)
    f = nb_trace_sequence(g, r_max)
    c = _circuits_from_traces(f, q)
    eigs = eigenvalues_symmetric(adjacency(g, np.float64))
    traces = eval_X_table(r_max, eigs / math.sqrt(q)).sum(axis=1)
    t_xrq = xrq_from_x(traces, q)
    t_y = xrq_from_x(traces, 1.0)

    dev_nbw, dev_geo, dev_circ, geo = [], [], [], [0, 0]  # geo[r % 2] = sum_k f_{r-2k}
    for r in range(r_max + 1):
        half, odd = q ** (r // 2), q ** (-(r % 2) / 2.0)  # q^{-r/2} = odd / half
        dev_nbw.append(abs(t_xrq[r] - f[r] / half * odd))
        geo[r % 2] += f[r]
        dev_geo.append(abs(traces[r] - geo[r % 2] / half * odd))
        if r >= 1:
            correction = (q - 1) * g.n_vertices / half * odd if (r % 2 == 0 and r >= 2) else 0.0
            dev_circ.append(abs(t_y[r] - (c[r] / half * odd - correction)))
    return TraceIdentityReport(r_max=r_max, q=q, dev_nbw=tuple(dev_nbw),
                               dev_geometric=tuple(dev_geo), dev_circuit=tuple(dev_circ))


# ---------------------------------------------------------------------------
# unitary colors

def _require_color(g: MultiGraph, blocks) -> np.ndarray:
    """``blocks`` as a complex128 (edges, N, N) unitary array; errors name the first bad edge."""
    try:
        blocks = np.asarray(blocks, dtype=np.complex128)
    except ValueError:  # ragged blocks do not stack
        k = next((k for k, b in enumerate(blocks) if np.shape(b) != np.shape(blocks[0])), 0)
        raise ColorError(f"edge {k}: block shape {np.shape(blocks[k])} != {np.shape(blocks[0])}")
    if blocks.shape != (g.n_edges,) + blocks.shape[-1:] * 2 or blocks.shape[-1] < 1:
        raise ColorError(f"need one block per edge, N x N with N >= 1: got shape {blocks.shape} "
                         f"for {g.n_edges} edges")
    bad = ~np.isfinite(blocks).all(axis=(1, 2))
    if bad.any():
        raise ColorError(f"edge {bad.argmax()}: block has non-finite (NaN or inf) entries")
    dev = np.abs(blocks @ blocks.conj().swapaxes(1, 2) - np.eye(blocks.shape[1])).max(axis=(1, 2))
    bad = dev > UNITARY_TOL
    if bad.any():
        raise ColorError(f"edge {bad.argmax()}: block is not unitary to {UNITARY_TOL:g}")
    return blocks


def colored_adjacency(g: MultiGraph, color: np.ndarray) -> np.ndarray:
    """Hermitian block adjacency of the (edges, N, N) unitary array ``color``: one scatter into
    an (n, N, n, N) view puts edge k's block at (origin, head) of dart 2k, then the adjoint of the
    whole sum adds each twin's, so entry (j, i) is exactly the conjugate of entry (i, j)."""
    blocks = _require_color(g, color)
    n, dim = g.n_vertices, blocks.shape[1]
    out = np.zeros((n * dim, n * dim), dtype=np.complex128)
    np.add.at(out.reshape(n, dim, n, dim), (g.origin[::2], slice(None), g.head[::2], slice(None)),
              blocks)
    out += out.conj().T
    return out


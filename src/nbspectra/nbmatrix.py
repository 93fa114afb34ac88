"""Non-backtracking matrices, the dart (Hashimoto) matrix, and unitary colors.

Exact integer arithmetic backs every count: products route through BLAS when a
rigorous bound keeps all intermediates below 2^53 (where float64 arithmetic on
integers is exact) and fall back to Python-int object arrays otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .multigraph import MultiGraph, _require_regular

_FLOAT_EXACT_LIMIT = 2 ** 53

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
COLOR_IDENTITY_TOL = 1e-8


class MatrixError(ValueError):
    """Invalid matrix-level operation input."""


class ColorError(ValueError):
    """Invalid unitary color assignment."""


def exact_int_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer matrices.

    Uses float64 BLAS when inner_dim * max|a| * max|b| < 2^53 (every partial
    sum is then exactly representable); otherwise switches to
    arbitrary-precision object arrays.
    """
    if a.dtype == object or b.dtype == object:
        return np.dot(a, b)
    amax = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    bmax = max(int(b.max(initial=0)), -int(b.min(initial=0)))
    inner = a.shape[1]
    if inner * amax * bmax < _FLOAT_EXACT_LIMIT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(prod).astype(np.int64)
    return np.dot(a.astype(object), b.astype(object))


def adjacency(g: MultiGraph) -> np.ndarray:
    """Integer adjacency matrix; a loop contributes 2 to its diagonal entry."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    np.add.at(a, (g.origin, g.head), 1)
    return a


def nb_matrix_sequence(g: MultiGraph, r_max: int) -> list[np.ndarray]:
    """Exact non-backtracking matrices A_0..A_{r_max} on a regular graph.

    A_0 = I, A_1 = A, A_2 = A^2 - (q+1) I, and
    A_r = A_{r-1} A - q A_{r-2} for r >= 3.
    """
    d = _require_regular(g)
    q = d - 1
    n = g.n_vertices
    a = adjacency(g)
    seq = [np.eye(n, dtype=np.int64)]
    if r_max >= 1:
        seq.append(a.copy())
    if r_max >= 2:
        seq.append(exact_int_dot(a, a) - (q + 1) * np.eye(n, dtype=np.int64))
    for _ in range(3, r_max + 1):
        seq.append(exact_int_dot(seq[-1], a) - q * seq[-2])
    return seq


def nb_trace_sequence(g: MultiGraph, r_max: int) -> list[int]:
    """Closed-NBW counts f_0..f_{r_max} as traces of the A_r sequence."""
    return [int(np.trace(m)) for m in nb_matrix_sequence(g, r_max)]


def hashimoto_matrix(g: MultiGraph) -> np.ndarray:
    """Dart transition matrix: B[d, d'] = 1 iff head(d) = origin(d'), d' != twin(d)."""
    nd = g.n_darts
    darts = np.arange(nd)
    b = (g.head[:, None] == g.origin[None, :]).astype(np.int64)
    b[darts, darts ^ 1] = 0
    return b


def circuit_count_sequence(g: MultiGraph, r_max: int) -> list[int]:
    """Circuit counts c_0..c_{r_max} as traces of powers of the dart matrix."""
    c = [0] * (r_max + 1)
    if r_max == 0 or g.n_darts == 0:
        return c
    b = hashimoto_matrix(g)
    power = b.copy()
    c[1] = int(np.trace(power))
    for r in range(2, r_max + 1):
        power = exact_int_dot(power, b)
        c[r] = int(np.trace(power))
    return c


def _chebyshev_matrix_table(m: np.ndarray, r_max: int) -> list[np.ndarray]:
    """Float X_0(M)..X_{r_max}(M) via the matrix three-term recurrence."""
    n = m.shape[0]
    table = [np.eye(n)]
    if r_max >= 1:
        table.append(m.copy())
    for _ in range(2, r_max + 1):
        table.append(m @ table[-1] - table[-2])
    return table


def verify_friedman_identity(g: MultiGraph, r_max: int) -> float:
    """Max entrywise |q^{r/2} X_{r,q}(A/sqrt(q)) - A_r| over r <= r_max.

    The left side is evaluated in floating point through the polynomial
    recurrence; the right side is the exact integer matrix.
    """
    d = _require_regular(g)
    q = d - 1
    exact = nb_matrix_sequence(g, r_max)
    m = adjacency(g).astype(np.float64) / math.sqrt(q)
    table = _chebyshev_matrix_table(m, r_max)
    worst = 0.0
    for r in range(r_max + 1):
        poly = table[r] - table[r - 2] / q if r >= 2 else table[r]
        approx = q ** (r / 2.0) * poly
        dev = float(np.abs(approx - exact[r].astype(np.float64)).max())
        worst = max(worst, dev)
    return worst


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
        return max(max(self.dev_nbw), max(self.dev_geometric), max(self.dev_circuit))


def trace_identities_report(g: MultiGraph, r_max: int,
                            census=None) -> TraceIdentityReport:
    """Check the three trace identities against the exact walk census."""
    from .multigraph import walk_census

    d = _require_regular(g)
    q = d - 1
    n = g.n_vertices
    if census is None or census.r_max < r_max:
        census = walk_census(g, r_max)
    m = adjacency(g).astype(np.float64) / math.sqrt(q)
    traces = [float(np.trace(t)) for t in _chebyshev_matrix_table(m, r_max)]

    dev_nbw, dev_geo, dev_circ = [], [], []
    for r in range(r_max + 1):
        t_xrq = traces[r] - traces[r - 2] / q if r >= 2 else traces[r]
        dev_nbw.append(abs(t_xrq - q ** (-r / 2.0) * census.f[r]))
        approx_sum = sum(census.f[r - 2 * k] for k in range(r // 2 + 1))
        dev_geo.append(abs(traces[r] - q ** (-r / 2.0) * approx_sum))
        if r >= 1:
            t_y = traces[r] - (traces[r - 2] if r >= 2 else 0.0)
            correction = (q - 1) * q ** (-r / 2.0) * n if (r % 2 == 0 and r >= 2) else 0.0
            dev_circ.append(abs(t_y - (q ** (-r / 2.0) * census.c[r] - correction)))
    return TraceIdentityReport(r_max=r_max, q=q, dev_nbw=tuple(dev_nbw),
                               dev_geometric=tuple(dev_geo), dev_circuit=tuple(dev_circ))


# ---------------------------------------------------------------------------
# unitary colors

class ColorAssignment:
    """Unitary N x N block per dart with twin darts carrying adjoints.

    Blocks are stored once per undirected edge (for the even dart); the twin's
    block is the conjugate transpose by construction, so the symmetric
    condition holds exactly as stored.
    """

    def __init__(self, g: MultiGraph, edge_blocks: Sequence[np.ndarray]):
        if len(edge_blocks) != g.n_edges:
            raise ColorError(
                f"need one block per edge: got {len(edge_blocks)} for {g.n_edges} edges")
        blocks = [np.asarray(b, dtype=np.complex128) for b in edge_blocks]
        if not blocks:
            raise ColorError("color assignment needs at least one edge")
        dim = blocks[0].shape[0]
        eye = np.eye(dim)
        for k, b in enumerate(blocks):
            if b.shape != (dim, dim):
                raise ColorError(f"edge {k}: block shape {b.shape} != ({dim}, {dim})")
            if np.abs(b @ b.conj().T - eye).max() > UNITARY_TOL:
                raise ColorError(f"edge {k}: block is not unitary to {UNITARY_TOL:g}")
        self.graph = g
        self.block_dim = dim
        self._blocks = blocks

    def sigma(self, dart: int) -> np.ndarray:
        """Block of a dart; twin darts return exact adjoints."""
        block = self._blocks[dart // 2]
        return block if dart % 2 == 0 else block.conj().T

    @classmethod
    def trivial(cls, g: MultiGraph, block_dim: int = 1) -> "ColorAssignment":
        return cls(g, [np.eye(block_dim, dtype=np.complex128)] * g.n_edges)


def colored_adjacency(g: MultiGraph, color: ColorAssignment) -> np.ndarray:
    """Hermitian block adjacency: block (i, j) sums sigma(d) over darts i -> j."""
    if color.graph is not g and color.graph.n_edges != g.n_edges:
        raise ColorError("color assignment does not cover this graph's darts")
    n, dim = g.n_vertices, color.block_dim
    out = np.zeros((n * dim, n * dim), dtype=np.complex128)
    for dart in range(g.n_darts):
        i, j = int(g.origin[dart]), int(g.head[dart])
        out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += color.sigma(dart)
    dev = float(np.abs(out - out.conj().T).max())
    if dev > HERMITIAN_TOL:
        raise ColorError(f"colored adjacency deviates from Hermitian by {dev:.3e}")
    return (out + out.conj().T) / 2.0


def colored_nb_sequence(g: MultiGraph, color: ColorAssignment, r_max: int,
                        identity_tol: float = COLOR_IDENTITY_TOL):
    """Colored non-backtracking matrices A_r^sigma with the polynomial check.

    Returns (sequence, max polynomial deviation).  The sequence follows the
    colored recurrence A_2^s = (A^s)^2 - (q+1) I and
    A_r^s = A_{r-1}^s A^s - q A_{r-2}^s; each term is compared against
    q^{r/2} X_{r,q}(A^s / sqrt(q)) and the run rejects past ``identity_tol``.
    """
    d = _require_regular(g)
    q = d - 1
    a_sigma = colored_adjacency(g, color)
    size = a_sigma.shape[0]
    eye = np.eye(size, dtype=np.complex128)
    seq = [eye.copy()]
    if r_max >= 1:
        seq.append(a_sigma.copy())
    if r_max >= 2:
        seq.append(a_sigma @ a_sigma - (q + 1) * eye)
    for _ in range(3, r_max + 1):
        seq.append(seq[-1] @ a_sigma - q * seq[-2])

    m = a_sigma / math.sqrt(q)
    table = _chebyshev_matrix_table(m, r_max)
    worst = 0.0
    for r in range(r_max + 1):
        poly = table[r] - table[r - 2] / q if r >= 2 else table[r]
        dev = float(np.abs(q ** (r / 2.0) * poly - seq[r]).max())
        worst = max(worst, dev)
    if worst > identity_tol:
        raise ColorError(f"colored polynomial identity deviates by {worst:.3e}")
    return seq, worst


# ---------------------------------------------------------------------------
# debug fixture format: order on the first line, then row-major entries

def dump_matrix(m: np.ndarray) -> str:
    arr = np.asarray(m)
    lines = [str(arr.shape[0])]
    if np.iscomplexobj(arr):
        entries = [f"{float(v.real)!r},{float(v.imag)!r}" for v in arr.ravel()]
    else:
        entries = [repr(float(v)) for v in arr.astype(np.float64).ravel()]
    lines.extend(entries)
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    order = int(lines[0])
    vals = lines[1:]
    if len(vals) != order * order:
        raise MatrixError(f"expected {order * order} entries, found {len(vals)}")
    if vals and "," in vals[0]:
        data = [complex(float(a), float(b)) for a, b in
                (v.split(",") for v in vals)]
        return np.array(data, dtype=np.complex128).reshape(order, order)
    return np.array([float(v) for v in vals]).reshape(order, order)

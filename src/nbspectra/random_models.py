"""Seeded samplers: uniform simple regular graphs, random lifts, unitary colors,
and the Monte-Carlo estimators behind the convergence experiments.

Every sampler is a pure function of its inputs and an :class:`RngStream`;
identical (seed, stream_id) pairs reproduce identical output on every platform
(the streams are PCG64 generators keyed by a SeedSequence spawn key).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from math import fsum
from typing import Callable, Sequence

import numpy as np

from .multigraph import BRUTE_R_CAP, MultiGraph, build_from_edge_list, enumerate_circles
from .nbmatrix import ColorAssignment
from .switchings import switch_to_simple, switching_caps

DEFAULT_RETRY_BUDGET = 1_000_000

#: How experiment streams are derived; recorded in experiment manifests.
STREAM_POLICY = ("pcg64 seeded by SeedSequence(seed, spawn_key=(stream_id,)); "
                 "cells derive children by splitmix64(stream_id, key), "
                 "trials use child(trial_index)")

logger = logging.getLogger(__name__)


class SamplerError(ValueError):
    """Invalid sampler parameters."""


class RetryBudgetError(RuntimeError):
    """The sampler drew its budget of pairings and rejected every one."""

    def __init__(self, attempts: int, context: str):
        super().__init__(
            f"rejection sampling gave up after {attempts} attempts ({context})")
        self.attempts = attempts


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style combination of two 64-bit values (platform independent)."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngStream":
        return RngStream(seed=self.seed, stream_id=_mix64(self.stream_id, index))


def trial_means(rng: RngStream, trials: int,
                draw: Callable[[RngStream], Sequence[float]]
                ) -> tuple[list[float], list[float]]:
    """Mean and standard error of each statistic over ``trials`` draws.

    Trial t calls ``draw(rng.child(t))`` (the :data:`STREAM_POLICY` rule),
    which returns the trial's statistics in a fixed order.  The standard
    error is that of the mean, 0 for a single trial.
    """
    if trials < 1:
        raise SamplerError(f"trials must be at least 1, got {trials}")
    columns = list(zip(*[draw(rng.child(t)) for t in range(trials)]))
    means = [fsum(col) / trials for col in columns]
    errors = [math.sqrt(fsum((v - m) ** 2 for v in col) / (trials - 1) / trials)
              if trials > 1 else 0.0 for col, m in zip(columns, means)]
    return means, errors


def sample_regular_graph(n: int, degree: int, rng: RngStream,
                         retry_budget: int = DEFAULT_RETRY_BUDGET) -> MultiGraph:
    """Uniform simple degree-regular graph: McKay-Wormald switchings (REG).

    Stubs are paired by a uniform random permutation.  A simple pairing is
    accepted as it is.  Otherwise loops and double pairs are switched away
    with f- and b-rejection (see :mod:`nbspectra.switchings`), which keeps the
    output exactly uniform on simple regular graphs; a pairing with a triple
    pair, a double loop, more loops or double pairs than
    :func:`~nbspectra.switchings.switching_caps` allows, or a rejected
    switching is discarded for a fresh one.  ``retry_budget`` bounds the
    pairings drawn.  The switching choices come from a child of the pairing
    generator, so the pairings drawn are those of whole-pairing rejection and
    no seed needs more of them.  The expected number of pairings stays bounded
    while ``degree^3 / n`` is small (0.5 at n=1024, degree 8).
    """
    if degree < 1:
        raise SamplerError(f"degree must be positive, got {degree}")
    if degree >= n:
        raise SamplerError(f"need degree < n for a simple graph, got d={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise SamplerError(f"n * degree must be even, got n={n}, d={degree}")
    caps = switching_caps(n, degree)
    gen = rng.generator()
    switch_gen = gen.spawn(1)[0]
    for attempt in range(1, retry_budget + 1):
        pairs = gen.permutation(n * degree).reshape(-1, 2)
        switched = switch_to_simple(pairs, n, degree, caps, switch_gen)
        if switched is None:
            continue
        pairs, loops, doubles = switched
        g = build_from_edge_list((pairs // degree).tolist(), n)
        if (g.degrees != degree).any():
            raise RuntimeError(f"sampled graph is not {degree}-regular (n={n})")
        if loops or doubles:
            logger.debug("switched away %d loop(s) and %d double pair(s) "
                         "(n=%d, d=%d)", loops, doubles, n, degree)
        logger.debug("pairing model accepted after %d attempt(s) (n=%d, d=%d)",
                     attempt, n, degree)
        return g
    raise RetryBudgetError(retry_budget, f"n={n}, degree={degree}")


@dataclass(frozen=True)
class LiftSpec:
    """An N-lift: one permutation of {0..N-1} per undirected base edge."""

    base: MultiGraph
    fold: int
    permutations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.fold < 1:
            raise SamplerError(f"fold must be >= 1, got {self.fold}")
        if len(self.permutations) != self.base.n_edges:
            raise SamplerError("need one permutation per base edge")


def lift_graph(spec: LiftSpec) -> MultiGraph:
    """Explicit covering graph: fiber vertex (u, i) is index u * N + i."""
    base, n_fold = spec.base, spec.fold
    edges = []
    for k, (u, v) in enumerate(base.edge_list()):
        pi = spec.permutations[k]
        for i in range(n_fold):
            edges.append((u * n_fold + i, v * n_fold + pi[i]))
    return build_from_edge_list(edges, base.n_vertices * n_fold)


def sample_lift(base: MultiGraph, n_fold: int, rng: RngStream) -> tuple[LiftSpec, MultiGraph]:
    """Uniform random N-lift: independent uniform permutation per base edge."""
    if base.n_edges < 1:
        raise SamplerError("base graph needs at least one edge")
    if n_fold < 1:
        raise SamplerError(f"fold must be >= 1, got {n_fold}")
    gen = rng.generator()
    perms = tuple(tuple(int(x) for x in gen.permutation(n_fold))
                  for _ in range(base.n_edges))
    spec = LiftSpec(base=base, fold=n_fold, permutations=perms)
    return spec, lift_graph(spec)


def permutation_color(spec: LiftSpec) -> ColorAssignment:
    """Permutation-matrix color whose block adjacency is the lift adjacency."""
    blocks = []
    for pi in spec.permutations:
        mat = np.zeros((spec.fold, spec.fold), dtype=np.complex128)
        mat[np.arange(spec.fold), np.asarray(pi)] = 1.0
        blocks.append(mat)
    return ColorAssignment(spec.base, blocks)


def haar_unitary_color(g: MultiGraph, block_dim: int, rng: RngStream) -> ColorAssignment:
    """Independent Haar-distributed unitary block per undirected edge.

    Complex Gaussian matrix, QR factorization, then the diagonal phase fix
    that makes the distribution exactly Haar.
    """
    if block_dim < 1:
        raise SamplerError(f"block dimension must be >= 1, got {block_dim}")
    gen = rng.generator()
    blocks = []
    for _ in range(g.n_edges):
        z = (gen.standard_normal((block_dim, block_dim))
             + 1j * gen.standard_normal((block_dim, block_dim))) / math.sqrt(2.0)
        q_mat, r_mat = np.linalg.qr(z)
        d = np.diagonal(r_mat)
        blocks.append(q_mat * (d / np.abs(d)))
    return ColorAssignment(g, blocks)


def _permutation_power(perm: np.ndarray, exponent: int) -> np.ndarray:
    if exponent < 0:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        perm, exponent = inv, -exponent
    out = np.arange(perm.size)
    for _ in range(exponent):
        out = perm[out]
    return out


def nica_trace_estimate(word: Sequence[tuple[int, int]], n_dim: int, trials: int,
                        rng: RngStream) -> float:
    """Monte-Carlo mean of (1/N) Tr(t_{c_1}^{a_1} ... t_{c_m}^{a_m}).

    The letters t_i are independent uniform permutations of {0..N-1}; the word
    must have nonzero exponents and distinct adjacent letters.  The empty word
    is the identity, with trace ratio exactly 1.
    """
    word = list(word)
    if not word:
        return 1.0
    letters = sorted({c for c, _ in word})
    if any(a == 0 for _, a in word):
        raise SamplerError("word exponents must be nonzero")
    for (c1, _), (c2, _) in zip(word, word[1:]):
        if c1 == c2:
            raise SamplerError("adjacent word letters must be distinct")
    if n_dim < 1:
        raise SamplerError(f"dimension must be at least 1, got {n_dim}")

    def draw(stream: RngStream) -> list[float]:
        gen = stream.generator()
        perms = {c: gen.permutation(n_dim) for c in letters}
        composite = np.arange(n_dim)
        for c, a in word:
            composite = _permutation_power(perms[c], a)[composite]
        return [int((composite == np.arange(n_dim)).sum()) / n_dim]

    return trial_means(rng, trials, draw)[0][0]


def cycle_moment_estimate(n: int, degree: int, k: int, trials: int,
                          rng: RngStream) -> tuple[float, float]:
    """Monte-Carlo (mean Z_k, mean Z_k^2) over uniform simple regular graphs."""
    if k < 1 or k > BRUTE_R_CAP:
        raise SamplerError(f"circle size must lie in 1..{BRUTE_R_CAP}, got {k}")

    def draw(stream: RngStream) -> list[int]:
        z = enumerate_circles(sample_regular_graph(n, degree, stream), k)[k]
        return [z, z * z]

    return tuple(trial_means(rng, trials, draw)[0])


def poisson_cycle_rate(degree: int, k: int) -> float:
    """Limiting Poisson parameter q^k / (2k) for the k-circle count."""
    q = degree - 1
    return q ** k / (2.0 * k)

"""Experiment harness: census checks and convergence experiments.

Every run serializes one manifest (experiment id, parameters, seed) that lists
all of its data files, and every row carries the manifest hash, so outputs can
be replayed byte-for-byte from the manifest alone.  Subcommands:

* ``census``   exact walk census of a regular graph file plus identity checks
* ``lift``     Kesten-McKay convergence of random N-lifts along an N ladder
* ``grow``     semicircle convergence of random regular graphs of growing degree
* ``laws``     closed-form law comparisons (density gaps, cycle IDF bounds)

``lift --color`` picks the unitary coloring of the base graph's edges:
``permutation`` (a random N-lift), ``haar`` (Haar-unitary N x N blocks) or
``trivial`` (identity blocks: N disjoint copies of the base, read off its spectrum).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .multigraph import (MultiGraph, enumerate_circles, format_graph_text, girth,
                         load_graph_file, walk_census)
from .random_models import (DEFAULT_RETRY_BUDGET, STREAM_POLICY, RngStream,
                            haar_unitary_color, sample_lift, sample_regular_graph,
                            trial_means)
from .spectra import (arcsine, cycle_spectral_measure, kesten_mckay,
                      moment_criterion_report, semicircle, spectral_measure,
                      wasserstein_p)
from .spectra.wasserstein import _validate_p
from .switchings import switching_caps

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

MAX_SAMPLER_DEGREE = 8
_MAX_X_TABLE_ENTRIES = 1 << 22  # (r_max + 1) x atoms entries of one cell's X_r table


class CliInputError(ValueError):
    """Bad experiment input or contract violation (exit code 2)."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass(frozen=True)
class ExperimentManifest:
    """Replay record: (experiment, parameters, seed) determines all outputs."""

    experiment: str
    parameters: dict
    seed: int | None

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def document(self, outputs: list[str]) -> str:
        payload = {**asdict(self), "manifest_hash": self.hash, "stream_policy": STREAM_POLICY,
                   "outputs": outputs, "package_version": __version__}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_outputs(out_dir, tables: list, manifest: ExperimentManifest,
                  fmt: str = "csv") -> list[Path]:
    """Write each ``(name, header, rows)`` table a row at a time, then one manifest, named
    after the first table, that lists every data file in table order; return the data paths."""
    if fmt not in ("csv", "json"):
        raise CliInputError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag, paths = manifest.hash, []
    for name, header, rows in tables:
        tagged_header = ["manifest_hash"] + header
        formatted = ([tag] + [_fmt(v) for v in row] for row in rows)
        paths.append(out / f"{name}.{fmt}")
        with paths[-1].open("w", encoding="utf-8") as data:
            if fmt == "csv":
                data.write(",".join(tagged_header) + "\n")
                for cells in formatted:
                    data.write(",".join(cells) + "\n")
            else:
                sep = "[\n  "
                for cells in formatted:
                    record = json.dumps(dict(zip(tagged_header, cells)), sort_keys=True, indent=2)
                    data.write(sep + record.replace("\n", "\n  "))
                    sep = ",\n  "
                data.write("[]\n" if sep == "[\n  " else "\n]\n")
    (out / f"{tables[0][0]}_manifest.json").write_text(
        manifest.document([path.name for path in paths]), encoding="utf-8")
    return paths


def _report(out_dir, fmt: str, manifest: ExperimentManifest, tables: list,
            checks: list[tuple[str, bool]]) -> None:
    """Write the run's tables, if any, name its first data file, and print one
    PASS/FAIL line per ``(label, ok)`` check."""
    if tables:
        print(f"wrote {write_outputs(out_dir, tables, manifest, fmt)[0]}")
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")


def _require_distinct(flag: str, values: list) -> list:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise CliInputError(f"{flag} {v:g} given more than once")
    return values


def _require_finite_moments(r_range: range, q: int, atoms: int, trials: int, cell: str) -> None:
    """Reject the requested r_max, the last of ``r_range`` (the --rmax values
    the subcommand takes up to it), when its (r_max + 1) x atoms X_r table
    passes _MAX_X_TABLE_ENTRIES or its moment statistics would leave float
    range; name the cell when no value of ``r_range`` fits the table.

    Every atom lies within (q+1)/sqrt(q) of 0, where X_r = (q^(r+1) - 1) /
    ((q-1) q^(r/2)) < 2 q^(r/2) for q >= 2 (at q = 1, |X_r| <= r + 1), so an
    atom's X_{r,q} or Y_r is below 4 q^(r/2): a sum over ``atoms`` atoms or
    ``trials`` trials is below 4 max(atoms, trials) q^(r/2), and a trial's
    squared deviation from the mean below 64 q^r.  Both stay below the
    largest float up to the largest allowed r_max.
    """
    r_max, largest = r_range[-1], _MAX_X_TABLE_ENTRIES // atoms - 1
    if largest < r_range.start:
        raise CliInputError(f"{cell} has {atoms} atoms: its X_r table passes "
                            f"{_MAX_X_TABLE_ENTRIES} entries at every --rmax")
    if r_max > largest:
        raise CliInputError(f"--rmax {r_max} passes {_MAX_X_TABLE_ENTRIES} X_r table entries "
                            f"for {cell} ({atoms} atoms): the largest allowed --rmax is {largest}")
    if q < 2:
        return
    top, scale = int(sys.float_info.max), max(atoms, trials)

    def finite(r: int) -> bool:
        return (16 * scale ** 2 * q ** r < top ** 2
                and (trials == 1 or 64 * trials * q ** r < top))

    room = min(2 * math.log(top / (4 * scale)),
               math.log(top / (64 * trials)) if trials > 1 else math.inf)
    largest = int(room / math.log(q)) + 1  # at least the answer; finite() settles it
    while not finite(largest):
        largest -= 1
    if r_max > largest:
        raise CliInputError(f"--rmax {r_max} leaves float range for {cell} (q={q}): "
                            f"the largest allowed --rmax is {largest}")


def _ladder(seed: int, cells: list[tuple], trials: int, p_list: list[float], target,
            sample, statistics) -> tuple[list, list, dict]:
    """Trial means of each ``(key, path)`` cell of a ``lift`` or ``grow`` ladder, drawn from
    RngStream(seed) taken down ``path`` by ``child``: a trial draws mu = sample(key, stream) and
    yields W_p(mu, target) for each p, then statistics(key, mu).  Returns the rows (key, p,
    mean, stderr, trials) and (key, r, mean), r >= 1, and each p's means along the ladder."""
    root = RngStream(seed)
    distance_rows, statistic_rows = [], []
    means = {p: [] for p in p_list}
    for key, path in cells:
        def draw(stream: RngStream) -> list[float]:
            mu = sample(key, stream)
            return [wasserstein_p(mu, target, p) for p in p_list] + list(statistics(key, mu))

        mean, stderr = trial_means(functools.reduce(RngStream.child, path, root), trials, draw)
        for p, m, se in zip(p_list, mean, stderr):
            means[p].append(m)
            distance_rows.append([*key, p, m, se, trials])
        statistic_rows += [[*key, r, m] for r, m in enumerate(mean[len(p_list):], 1)]
    return distance_rows, statistic_rows, means


def _trend_checks(means: dict, ladder: str) -> list[tuple[str, bool]]:
    return [(f"W_{p:g} decreasing along {ladder} ladder",
             all(a > b for a, b in zip(seq, seq[1:])))
            for p, seq in means.items() if len(seq) > 1]


def _graph_parameters(path: str, g: MultiGraph) -> dict:
    """The graph file's name and the sha256 of the graph as loaded, edge order kept."""
    return {"graph": Path(path).name,
            "graph_sha256": hashlib.sha256(format_graph_text(g).encode()).hexdigest()}


# ---------------------------------------------------------------------------
# census

def run_census(args) -> int:
    if args.out is None and args.format != "csv":
        raise CliInputError("census --format json needs --out (stdout gets CSV)")
    g = load_graph_file(args.graph)
    census = walk_census(g, args.rmax)  # raises CensusInvariantError on a failed bound
    manifest = ExperimentManifest(
        "census", {**_graph_parameters(args.graph, g), "r_max": args.rmax}, None)
    header = ["r", "f", "c", "z"]
    rows = [[r, census.f[r], census.c[r], census.z[r] if census.z is not None else ""]
            for r in range(census.r_max + 1)]
    tables = [("census", header, rows)] if args.out else []
    if not args.out:
        print(*(",".join(map(_fmt, cells)) for cells in [header, *rows]), sep="\n")
    # walk_census has raised if any circle bound failed
    checks = [(f"circle bounds r={r}", True)
              for r in range(1, census.r_max + 1) if census.z is not None]
    _report(args.out, args.format, manifest, tables, checks)
    print(f"girth = {girth(g)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lift convergence

_COLORS = ("permutation", "haar", "trivial")


def _colored_measure(base: MultiGraph, fold: int, color: str,
                     stream: RngStream):
    """Spectral measure of one random ``permutation`` or ``haar`` coloring of ``base``."""
    if color == "permutation":
        _, lifted = sample_lift(base, fold, stream)
        return spectral_measure(lifted)
    return spectral_measure(base, haar_unitary_color(base, fold, stream))


def lift_convergence(base: MultiGraph, folds: list[int], trials: int, seed: int,
                     r_max: int, p_list: list[float],
                     color: str = "permutation") -> dict:
    """Distances to the law and moment residuals of ``trials`` colorings per
    fold.  The residual means are the normalized colored non-backtracking
    traces q^{-r/2} tr(A_r^sigma) / (nN)."""
    q = base.regular_degree - 1
    _require_distinct("--p", [_validate_p(p) for p in p_list])
    if r_max < 1:
        raise CliInputError(f"r_max must be at least 1, got {r_max}")
    if color not in _COLORS:
        raise CliInputError(f"unknown color kind {color!r}")
    for fold in folds:
        if fold < 1:
            raise CliInputError(f"block dimension N must be at least 1, got {fold}")
    for fold in _require_distinct("--N", folds):
        _require_finite_moments(range(1, r_max + 1), q, base.n_vertices * fold, trials,
                                f"N={fold}")
    target = kesten_mckay(float(q)) if q >= 2 else arcsine()

    # N disjoint copies of the base share its spectrum: every trivial trial reads it
    trivial = spectral_measure(base) if color == "trivial" else None
    distance_rows, residual_rows, means = _ladder(
        seed, [((fold,), (fold,)) for fold in folds], trials, p_list, target,
        lambda cell, stream: trivial or _colored_measure(base, cell[0], color, stream),
        lambda _, mu: moment_criterion_report(mu, target, r_max))
    return {"distance_rows": distance_rows, "residual_rows": residual_rows,
            "means": means, "q": q}


def run_lift(args) -> int:
    base = load_graph_file(args.graph)
    result = lift_convergence(base, args.N, args.trials, args.seed,
                              args.rmax, args.p, args.color)
    manifest = ExperimentManifest(
        "lift", {**_graph_parameters(args.graph, base), "color": args.color,
                 "N": args.N, "trials": args.trials, "r_max": args.rmax,
                 "p": args.p},
        args.seed)
    _report(args.out, args.format, manifest,
            [("lift_distances", ["N", "p", "mean_distance", "stderr", "trials"],
              result["distance_rows"]),
             ("lift_residuals", ["N", "r", "mean_residual"], result["residual_rows"])],
            _trend_checks(result["means"], "N"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# growing degree

def schedule_branching(tag: str, n: int, q_fixed: int | None) -> int:
    if n < 1:
        raise CliInputError(f"vertex count n must be at least 1, got {n}")
    cap = MAX_SAMPLER_DEGREE - 1
    if tag == "log":
        return min(cap, max(1, int(math.log2(n))))
    if tag == "loglog":
        return min(cap, max(2, int(math.log2(max(2.0, math.log2(n)))) + 2))
    if tag == "fixed":
        if q_fixed is None:
            raise CliInputError("fixed schedule needs --q")
        return q_fixed
    raise CliInputError(f"unknown schedule {tag!r}")


def _require_served(n: int, degree: int) -> None:
    """Reject a cell the sampler cannot serve.  Without switchings (caps
    (0, 0)) it is plain rejection, which keeps a pairing with probability
    about exp((1 - d^2)/4) (Bender & Canfield, JCTA 24, 1978)."""
    if not 2 <= degree <= MAX_SAMPLER_DEGREE:
        raise CliInputError(f"schedule degree {degree} outside 2..{MAX_SAMPLER_DEGREE}")
    if degree >= n or (n * degree) % 2 != 0:
        raise CliInputError(f"no simple {degree}-regular graph on n={n} vertices")
    kept = math.exp((1 - degree ** 2) / 4)
    if switching_caps(n, degree) == (0, 0) and kept * DEFAULT_RETRY_BUDGET < 1:
        raise CliInputError(f"n={n}, degree={degree}: pairing rejection keeps about {kept:.1e} "
                            f"of pairings, under one in {DEFAULT_RETRY_BUDGET} attempts")


def growing_degree(n_ladder: list[int], q_ladder: list[int], trials: int,
                   seed: int, p_list: list[float], r_max: int) -> dict:
    """Distance rows (n, q, p, mean, stderr, trials, samples with a loop or double edge) and
    circuit rows (n, q, r, mean of q^{-r/2} c_r / n) of ``trials`` uniform simple
    (q+1)-regular graphs on n vertices per (n, q) cell, against the semicircle."""
    if len(n_ladder) != len(q_ladder):
        raise CliInputError("n ladder and q ladder must have equal length")
    _require_distinct("--n", n_ladder)
    _require_distinct("--p", [_validate_p(p) for p in p_list])
    if r_max < 0:
        raise CliInputError(f"r_max must be nonnegative, got {r_max}")
    for n, q in zip(n_ladder, q_ladder):  # every cell is checked before the first sample
        _require_served(n, q + 1)
        _require_finite_moments(range(r_max + 1), q, n, trials, f"n={n}")
    nonsimple = dict.fromkeys(n_ladder, 0)

    def sample(cell: tuple, stream: RngStream):
        g = sample_regular_graph(cell[0], cell[1] + 1, stream)
        z12 = enumerate_circles(g, 2)
        nonsimple[cell[0]] += int(z12[1] != 0 or z12[2] != 0)
        return spectral_measure(g)

    def circuits(cell: tuple, mu) -> list[float]:
        q, y = cell[1], mu.family_moments(r_max, 1.0)
        return [y[r] + ((q - 1) * q ** (-r / 2.0) if r % 2 == 0 else 0.0)
                for r in range(1, r_max + 1)]

    distance_rows, circuit_rows, means = _ladder(
        seed, [((n, q), (n, q + 1)) for n, q in zip(n_ladder, q_ladder)], trials, p_list,
        semicircle(), sample, circuits)
    return {"distance_rows": [row + [nonsimple[row[0]]] for row in distance_rows],
            "circuit_rows": circuit_rows, "means": means}


def run_grow(args) -> int:
    q_ladder = [schedule_branching(args.schedule, n, args.q) for n in args.n]
    result = growing_degree(args.n, q_ladder, args.trials, args.seed,
                            args.p, args.rmax)
    manifest = ExperimentManifest(
        "grow", {"n": args.n, "schedule": args.schedule, "q": args.q,
                 "q_ladder": q_ladder, "trials": args.trials,
                 "r_max": args.rmax, "p": args.p}, args.seed)
    _report(args.out, args.format, manifest,
            [("grow_distances", ["n", "q", "p", "mean_distance", "stderr", "trials",
                                 "nonsimple_samples"], result["distance_rows"]),
             ("grow_circuits", ["n", "q", "r", "mean_normalized_circuits"],
              result["circuit_rows"])],
            _trend_checks(result["means"], "(n, q)"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# closed-form laws

def _density_gap(q: float) -> float:
    """sup_x |rho_q(x) - rho_inf(x)| in closed form.  With b = 1/q, c = 1 - b and
    u = 4 - x^2 the gap is b sqrt(u) (a - u) / (2 pi (c^2 + b u)), a = 3 - b.  Its
    positive hump peaks at the root of b u^2 + B u - a c^2, B = a b + 3 c^2, taken in
    the form that does not cancel as b -> 0.  Its negative side peaks at x = 0 at
    b / (pi (1 + b)), below the hump's value b (2 - b) / (2 pi (1 - b + b^2)) at u = 1."""
    b = 1.0 / q
    a, c2 = 3.0 - b, (1.0 - b) ** 2
    big = a * b + 3.0 * c2
    u = 2.0 * a * c2 / (big + math.sqrt(big * big + 4.0 * a * b * c2))
    return b * math.sqrt(u) * (a - u) / (2.0 * math.pi * (c2 + b * u))


def law_convergence(q_ladder: list[float], m_ladder: list[int]) -> dict:
    sc = semicircle()
    q_rows, m_rows = [], []
    for q in _require_distinct("--q", q_ladder):
        if not q > 2.0:
            raise CliInputError(f"density bound needs q > 2, got {q}")
        km = kesten_mckay(q)
        gap, bound = _density_gap(q), 2.0 / (q - 2.0)
        winf = wasserstein_p(km, sc, math.inf)
        q_rows.append([q, gap, bound, gap <= bound, winf])
    ar = arcsine()
    for m in _require_distinct("--m", m_ladder):
        if m < 3:
            raise CliInputError(f"cycle size must be >= 3, got {m}")
        winf = wasserstein_p(cycle_spectral_measure(m), ar, math.inf)
        bound = 4.0 * math.pi / m
        m_rows.append([m, winf, bound, winf <= bound])
    return {"q_rows": q_rows, "m_rows": m_rows}


def run_laws(args) -> int:
    result = law_convergence(args.q, args.m)
    manifest = ExperimentManifest("laws", {"q": args.q, "m": args.m}, None)
    checks = [(f"sup|rho_{q:g} - rho_inf| = {gap:.6g} <= {bound:.6g}", ok)
              for q, gap, bound, ok, _ in result["q_rows"]]
    checks += [(f"W_inf(mu(C_{m}), arcsine) = {winf:.6g} <= {bound:.6g}", ok)
               for m, winf, bound, ok in result["m_rows"]]
    _report(args.out, args.format, manifest,
            [("laws_density", ["q", "sup_density_gap", "bound", "pass",
                               "winf_to_semicircle"], result["q_rows"]),
             ("laws_cycles", ["m", "winf_to_arcsine", "bound", "pass"],
              result["m_rows"])],
            checks)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# argument parsing

class _AppendOrDefault(argparse.Action):
    """``append`` whose first use replaces the default list instead of
    extending it, so ``--N 2`` means the ladder [2]."""

    def __call__(self, parser, namespace, values, option_string=None):
        current = getattr(namespace, self.dest)
        items = [] if current is self.default else current
        setattr(namespace, self.dest, items + [values])


@functools.cache  # one parser per process: parsing leaves it and its default lists as they are
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbspectra",
        description="Walk censuses and spectral-measure convergence experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, trials=None, rmax=None, plist=None, out="."):
        p.add_argument("--out", default=out, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials)
        if rmax is not None:
            p.add_argument("--rmax", type=int, default=rmax)
        if plist is not None:
            p.add_argument("--p", type=float, action=_AppendOrDefault,
                           default=plist, help="Wasserstein order (repeatable)")

    p = sub.add_parser("census", help="exact walk census + identity checks")
    p.add_argument("graph")
    common(p, seed=False, rmax=8, out=None)
    p.set_defaults(func=run_census)

    p = sub.add_parser("lift", help="random N-lift convergence to Kesten-McKay")
    p.add_argument("graph")
    p.add_argument("--color", choices=_COLORS, default="permutation",
                   help="unitary edge coloring of the base graph")
    p.add_argument("--N", type=int, action=_AppendOrDefault,
                   default=[2, 8, 32, 128], help="fold (repeatable)")
    common(p, trials=50, rmax=6, plist=[1.0, 2.0])
    p.set_defaults(func=run_lift)

    p = sub.add_parser("grow", help="growing-degree convergence to semicircle")
    p.add_argument("--n", type=int, action=_AppendOrDefault,
                   default=[64, 256, 1024], help="vertex count (repeatable)")
    p.add_argument("--schedule", choices=("log", "loglog", "fixed"), default="log")
    p.add_argument("--q", type=int, default=None, help="branching for fixed schedule")
    common(p, trials=30, rmax=4, plist=[2.0])
    p.set_defaults(func=run_grow)

    p = sub.add_parser("laws", help="closed-form law comparisons")
    p.add_argument("--q", type=float, action=_AppendOrDefault,
                   default=[5.0, 10.0, 50.0, 200.0], help="branching (repeatable)")
    p.add_argument("--m", type=int, action=_AppendOrDefault,
                   default=[10, 53, 200], help="cycle size (repeatable)")
    common(p, seed=False)
    p.set_defaults(func=run_laws)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # CliInputError, GraphError, SamplerError, law/measure contract errors,
        # and unreadable input files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

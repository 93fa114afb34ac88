"""The three workloads: their inputs, cell invocations and output checks.

A cell is the workload's fixed set of ``nbspectra.cli.main`` invocations
(for ``lift``, one invocation for one cell seed; ``grow`` and ``census``
cells are all alike).  Inputs come from the workload seed alone; the program
sees only the generated files and arguments.  See NOTES.md for why each workload
was chosen and how it was sized.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# lift: cell seeds are drawn from a pool whose outputs were recorded, so that
# every cell can be checked against this commit's values.  Lift work barely
# depends on the seed (sizes are fixed), so the draw does not move timings.
LIFT_POOL = tuple(range(32))
LIFT_TOLERANCE = 1e-8  # |got - ref| <= LIFT_TOLERANCE * max(1, |ref|)
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

# grow: the pairing sampler's attempt count per sample is geometric (its
# spread equals its mean), so seed-drawn cells would make run-to-run timings
# differ by the luck of the draw.  A cell is therefore one invocation for each
# seed of a fixed pool, in an order set by the workload seed, so every cell
# does the same sampler work.
GROW_POOL = (0, 1, 2)
GROW_CIRCUIT_TOL = 1e-9

# census: one pool graph per (n, d) class of the shallow batch, plus the deep
# (n = 64, d = 4) graph.  The workload seed shuffles each graph's edge list
# and edge orientations, which leaves every count and the work done the same:
# relabelling vertices would not change the counts either, but it changes how
# many partial paths circle enumeration keeps, and so its time and memory.
CENSUS_SHALLOW = ((40, 4), (40, 3), (36, 3), (32, 4), (28, 3), (24, 4))
CENSUS_DEEP = (64, 4)
CENSUS_SHALLOW_RMAX = 12
CENSUS_DEEP_RMAX = 38


def pairing_multigraph(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Uniform pairing of n*d stubs: a d-regular multigraph (loops allowed).

    The benchmark's own generator, so that changing the program's sampler
    does not change census work.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    stubs = np.repeat(np.arange(n), d)
    gen.shuffle(stubs)
    return [(int(u), int(v)) for u, v in stubs.reshape(-1, 2)]


def census_pool() -> dict[str, tuple[int, list[tuple[int, int]], int]]:
    """Pool graph id (like ``n40d4``) -> (n, edges, census r_max)."""
    classes = [(c, CENSUS_SHALLOW_RMAX) for c in CENSUS_SHALLOW]
    classes.append((CENSUS_DEEP, CENSUS_DEEP_RMAX))
    return {f"n{n}d{d}": (n, pairing_multigraph(n, d, 1000 * n + 10 * d), r_max)
            for (n, d), r_max in classes}


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _shuffled(edges: list[tuple[int, int]], rng: random.Random):
    """The same multigraph with its edge list reordered and edges flipped."""
    out = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(out)
    return out


@functools.cache
def _reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Base: ``cells`` gives the cycle of cells, ``check`` verifies one."""

    name = ""
    primary_manifests: tuple[str, ...] = ()  # one per invocation of a cell

    def __init__(self, seed: int, inputs: Path):
        self.inputs = inputs
        self.rng = random.Random(seed)

    def write_inputs(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)

    def cells(self) -> list:
        """Cell keys in run order; run cyclically."""
        raise NotImplementedError

    def argvs(self, cell, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, cell, out: Path) -> str | None:
        """None when the cell's outputs are right, else what is wrong."""
        raise NotImplementedError

    def from_manifest(self, doc: dict, dest: Path) -> list[str]:
        """The invocation that wrote a manifest, writing into ``dest``."""
        raise NotImplementedError

    def replay_argvs(self, out: Path, replay_out: Path) -> list[list[str]]:
        """Rebuild each invocation of a cell from its manifests alone."""
        argvs = []
        for manifest_path in sorted(out.rglob("*_manifest.json")):
            if manifest_path.name not in self.primary_manifests:
                continue
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
            dest = replay_out / manifest_path.parent.relative_to(out)
            argvs.append(self.from_manifest(doc, dest))
        return argvs


class Lift(Workload):
    name = "lift"
    primary_manifests = ("lift_distances_manifest.json",)

    def write_inputs(self):
        super().write_inputs()
        (self.inputs / "k4.txt").write_text(K4, encoding="utf-8")

    def cells(self):
        order = list(LIFT_POOL)
        self.rng.shuffle(order)
        return order

    def _argv(self, graph, folds, trials, r_max, ps, seed, out):
        argv = ["lift", str(self.inputs / graph)]
        for fold in folds:
            argv += ["--N", str(fold)]
        for p in ps:
            argv += ["--p", str(p)]
        return argv + ["--trials", str(trials), "--rmax", str(r_max),
                       "--seed", str(seed), "--out", str(out)]

    def argvs(self, cell, out):
        return [self._argv("k4.txt", (8, 32, 128), 1, 6, (1, 2), cell, out)]

    def from_manifest(self, doc, dest):
        par = doc["parameters"]
        return self._argv(par["graph"], par["N"], par["trials"], par["r_max"],
                          par["p"], doc["seed"], dest)

    @staticmethod
    def outputs(out: Path) -> dict:
        """The checked values of one cell: distances and residuals."""
        return {"distances": [[float(r["mean_distance"]), float(r["stderr"])]
                              for r in read_csv(out / "lift_distances.csv")],
                "residuals": [[float(r["mean_residual"])]
                              for r in read_csv(out / "lift_residuals.csv")]}

    def check(self, cell, out):
        ref = _reference("lift")[str(cell)]
        got = self.outputs(out)
        for key in ("distances", "residuals"):
            if len(got[key]) != len(ref[key]):
                return f"{key}: {len(got[key])} rows, reference has {len(ref[key])}"
            for i, (row, ref_row) in enumerate(zip(got[key], ref[key])):
                for a, b in zip(row, ref_row):
                    if not abs(a - b) <= LIFT_TOLERANCE * max(1.0, abs(b)):
                        return f"{key} row {i}: {a!r} differs from reference {b!r}"
        return None


class Grow(Workload):
    name = "grow"
    primary_manifests = ("grow_distances_manifest.json",)

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.order = list(GROW_POOL)
        self.rng.shuffle(self.order)

    def cells(self):
        return [0]

    def _argv(self, ns, schedule, q, trials, r_max, ps, seed, out):
        argv = ["grow"]
        for n in ns:
            argv += ["--n", str(n)]
        argv += ["--schedule", schedule]
        if q is not None:
            argv += ["--q", str(q)]
        for p in ps:
            argv += ["--p", str(p)]
        return argv + ["--trials", str(trials), "--rmax", str(r_max),
                       "--seed", str(seed), "--out", str(out)]

    def argvs(self, cell, out):
        return [self._argv((64, 256, 1024), "loglog", None, 1, 4, (2,), seed,
                           out / f"seed{seed}")
                for seed in self.order]

    def from_manifest(self, doc, dest):
        par = doc["parameters"]
        return self._argv(par["n"], par["schedule"], par["q"], par["trials"],
                          par["r_max"], par["p"], doc["seed"], dest)

    def check(self, cell, out):
        for seed in self.order:
            run = out / f"seed{seed}"
            for row in read_csv(run / "grow_distances.csv"):
                if int(row["nonsimple_samples"]) != 0:
                    return (f"seed {seed} n={row['n']}: "
                            f"{row['nonsimple_samples']} nonsimple samples")
                if not math.isfinite(float(row["mean_distance"])):
                    return f"seed {seed} n={row['n']}: W_{row['p']} mean is not finite"
            for row in read_csv(run / "grow_circuits.csv"):
                value = float(row["mean_normalized_circuits"])
                if int(row["r"]) <= 2 and not abs(value) <= GROW_CIRCUIT_TOL:
                    return (f"seed {seed} n={row['n']} r={row['r']}: "
                            f"circuit statistic {value!r}")
        return None


class Census(Workload):
    name = "census"
    primary_manifests = ("census_manifest.json",)

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.batch: list[tuple[str, int]] = []  # (pool graph id, r_max)

    def write_inputs(self):
        super().write_inputs()
        for gid, (n, edges, r_max) in census_pool().items():
            text = graph_text(n, _shuffled(edges, self.rng))
            (self.inputs / f"{gid}.txt").write_text(text, encoding="utf-8")
            self.batch.append((gid, r_max))

    def cells(self):
        return [0]

    def _argv(self, graph, r_max, out):
        return ["census", str(self.inputs / graph), "--rmax", str(r_max),
                "--out", str(out)]

    def argvs(self, cell, out):
        return [self._argv(f"{gid}.txt", r_max, out / gid) for gid, r_max in self.batch]

    def from_manifest(self, doc, dest):
        par = doc["parameters"]
        return self._argv(par["graph"], par["r_max"], dest)

    def outputs(self, out: Path) -> dict:
        """The checked values of one cell: f, c and z of every graph."""
        result = {}
        for gid, _ in self.batch:
            rows = read_csv(out / gid / "census.csv")
            result[gid] = {key: [int(r[key]) if r[key] != "" else None for r in rows]
                           for key in ("f", "c", "z")}
        return result

    def check(self, cell, out):
        ref = _reference("census")
        for gid, got in self.outputs(out).items():
            for key in ("f", "c", "z"):
                if got[key] != ref[gid][key]:
                    return f"{gid}: {key} differs from the recorded reference"
        return None


WORKLOADS = {cls.name: cls for cls in (Lift, Grow, Census)}

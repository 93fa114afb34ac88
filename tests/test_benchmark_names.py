"""The benchmark's tracer wraps library names at run time; keep them in place.

``benchmarks/tracing.py`` is loaded by path and left as it is: a rename in the
library fails here instead of crashing a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import nbspectra.cli
from nbspectra.multigraph import complete_graph, save_graph_file

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for name, home, attr, cls in _load_tracing().TRACED:
        owner = importlib.import_module(home)
        if cls is not None:
            assert attr in vars(getattr(owner, cls)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_traced_runs_reach_the_traced_layers(tmp_path):
    k4 = tmp_path / "k4.txt"
    save_graph_file(complete_graph(4), k4)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        runs = {
            "census": ["census", str(k4), "--rmax", "8"],
            "lift": ["lift", str(k4), "--N", "2", "--trials", "1", "--rmax", "2"],
            "grow": ["grow", "--n", "16", "--schedule", "fixed", "--q", "2",
                     "--trials", "1", "--rmax", "2"],
        }
        counters = {}
        for key, argv in runs.items():
            tracer.begin_cell()
            assert nbspectra.cli.main(argv + ["--out", str(tmp_path / key)]) == 0
            counters[key] = tracer.end_cell()[1]
    finally:
        tracer.uninstall()
    # ceil(r_max / 2) - 1 = 3 products for A_2..A_4 of the A_r recurrence, and
    # none for the circuit counts, which are read off the traces of A_r
    assert counters["census"].get("nbmatrix.exact_int_dot.float.calls", 0) == 3
    assert counters["census"].get("nbmatrix.nb_trace_sequence.calls", 0) == 1
    assert counters["lift"].get("spectra.laws.moment_criterion_report.calls", 0) == 1
    for key in ("lift", "grow"):
        assert counters[key].get("chebyshev.eval_X_table.calls", 0) == 1, key

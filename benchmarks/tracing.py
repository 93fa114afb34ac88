"""Spans and counters placed from outside the program around its public calls.

``Tracer.install()`` replaces each traced function, in every ``nbspectra``
module that holds it, by a wrapper that times it as a span and records the
counters named below; ``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.  A layer's self time is its
span duration minus the time covered by its child spans.

Counters, all recorded from outside the program:

* pairing attempts, from the DEBUG record ``nbspectra.random_models`` logs
  when the pairing sampler accepts;
* ``exact_int_dot`` path, from the dtype of its result (object = exact
  Python-int fallback, otherwise float BLAS);
* IDF and CDF query points, from the size of the query argument;
* eigensolve matrix orders, from the argument's shape.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module that defines it, attribute, class or None)
TRACED = [
    ("spectra.laws.idf", "nbspectra.spectra.laws", "idf", "ReferenceLaw"),
    ("spectra.laws.cdf", "nbspectra.spectra.laws", "cdf", "ReferenceLaw"),
    ("spectra.laws.moment_criterion_report", "nbspectra.spectra.laws",
     "moment_criterion_report", None),
    ("spectra.wasserstein.wasserstein_p", "nbspectra.spectra.wasserstein",
     "wasserstein_p", None),
    ("spectra.eigen.eigenvalues_symmetric", "nbspectra.spectra.eigen",
     "eigenvalues_symmetric", None),
    ("spectra.measures.spectral_measure", "nbspectra.spectra.measures",
     "spectral_measure", None),
    ("random_models.sample_regular_graph", "nbspectra.random_models",
     "sample_regular_graph", None),
    ("random_models.sample_lift", "nbspectra.random_models", "sample_lift", None),
    ("nbmatrix.exact_int_dot", "nbspectra.nbmatrix", "exact_int_dot", None),
    ("nbmatrix.circuit_count_sequence", "nbspectra.nbmatrix",
     "circuit_count_sequence", None),
    ("nbmatrix.nb_trace_sequence", "nbspectra.nbmatrix", "nb_trace_sequence", None),
    ("nbmatrix.adjacency", "nbspectra.nbmatrix", "adjacency", None),
    ("multigraph.walk_census", "nbspectra.multigraph", "walk_census", None),
    ("multigraph.enumerate_circles", "nbspectra.multigraph", "enumerate_circles", None),
    ("multigraph.girth", "nbspectra.multigraph", "girth", None),
    ("multigraph.load_graph_file", "nbspectra.multigraph", "load_graph_file", None),
    ("chebyshev.eval_X_table", "nbspectra.chebyshev", "eval_X_table", None),
    ("cli.write_outputs", "nbspectra.cli", "write_outputs", None),
]


class _AttemptHandler(logging.Handler):
    """Counts pairing attempts from the sampler's acceptance record."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("pairing model accepted"):
            self.tracer.count("random_models.pairing_attempts", int(record.args[0]))
            self.tracer.count("random_models.pairing_accepted", 1)


class Tracer:
    """Self seconds and counters per layer, grouped by cell."""

    def __init__(self):
        self._stack: list[float] = []        # child seconds of each open span
        self.self_s: defaultdict = defaultdict(float)  # per name, current cell
        self.counters: Counter = Counter()             # per name, current cell
        self.max_order = 0
        self.first_call_s: dict[str, float] = {}
        self._patched: list[tuple] = []
        self._handler = _AttemptHandler(self)

    # -- cells -------------------------------------------------------------

    def begin_cell(self) -> None:
        self.self_s = defaultdict(float)
        self.counters = Counter()

    def end_cell(self) -> tuple[dict, dict]:
        """Self seconds and counters of the cell that just ended."""
        return dict(self.self_s), dict(self.counters)

    # -- spans -------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def span(self, name: str, fn, *args, classify=None, **kwargs):
        """Call fn inside a span; ``classify(result)`` may refine the name.

        The span is recorded also when fn raises, under its plain name.
        """
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if classify is not None:
                name = classify(result)
            return result
        finally:
            elapsed = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            self.self_s[name] += elapsed - child
            self.counters[name + ".calls"] += 1
            self.first_call_s.setdefault(name, elapsed)

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "nbmatrix.exact_int_dot":
            def classify(result):
                return name + (".object" if result.dtype == object else ".float")

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, fn, *args, classify=classify, **kwargs)
            return traced

        if name in ("spectra.laws.idf", "spectra.laws.cdf"):
            @functools.wraps(fn)
            def traced(law, x, *args, **kwargs):
                tracer.count(name + ".points", int(np.size(x)))
                return tracer.span(name, fn, law, x, *args, **kwargs)
            return traced

        if name == "spectra.eigen.eigenvalues_symmetric":
            @functools.wraps(fn)
            def traced(m, *args, **kwargs):
                order = int(np.shape(m)[0])
                tracer.count(f"{name}.order_{order}", 1)
                tracer.max_order = max(tracer.max_order, order)
                return tracer.span(name, fn, m, *args, **kwargs)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every traced name in every loaded ``nbspectra`` module."""
        if self._patched:
            return
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "nbspectra" or key.startswith("nbspectra.")]
        for name, home, attr, cls in TRACED:
            owner = sys.modules[home]
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                setattr(klass, attr, self._wrapper(name, original))
                self._patched.append((klass, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
        logger = logging.getLogger("nbspectra.random_models")
        self._saved_level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self._handler)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        logger = logging.getLogger("nbspectra.random_models")
        logger.removeHandler(self._handler)
        logger.setLevel(self._saved_level)

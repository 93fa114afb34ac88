"""The claim rule of ``scripts/bench_pairs.py`` on synthetic runs.

The script is loaded by path, with ``scripts/`` on the import path for its
``src_stats`` import, as it is when run directly.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
METRICS = [{"name": "t", "better": "lower", "bound": 0.25},
           {"name": "hits", "better": "higher", "bound": 0.1}]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent: list[float], change: list[float], change_failed: int = 0) -> list[dict]:
    return [{"parent": {"metrics": {"t": p, "hits": p}, "failed": 0, "attempted": 20},
             "change": {"metrics": {"t": c, "hits": c}, "failed": change_failed,
                        "attempted": 20}} for p, c in zip(parent, change)]


def test_clear_gain_meets_the_claim(bench_pairs):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    summary = bench_pairs.summarize(_runs(parent, [p - 2.0 for p in parent]), METRICS)
    assert summary["t"]["change_wins"] == 10
    assert summary["t"]["claim_met"] and not summary["t"]["worse_beyond_bound"]
    assert not summary["t"]["unresolved"]
    # the same numbers read as higher-is-better: 0 wins, and 20% worse is past 10%
    assert summary["hits"]["change_wins"] == 0
    assert not summary["hits"]["claim_met"] and summary["hits"]["worse_beyond_bound"]


def test_claim_needs_ten_pairs_nine_wins_and_a_gap_past_the_spread(bench_pairs):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    eight = [p - 2.0 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert bench_pairs.summarize(_runs(parent, eight), METRICS)["t"]["change_wins"] == 8
    assert not bench_pairs.summarize(_runs(parent, eight), METRICS)["t"]["claim_met"]
    # every pair won, but by less than the parent's Q3 - Q1 (0.225)
    small = [p - 0.05 for p in parent]
    summary = bench_pairs.summarize(_runs(parent, small), METRICS)["t"]
    assert summary["change_wins"] == 10 and not summary["claim_met"]
    # nor on fewer than ten pairs, however clear
    five = bench_pairs.summarize(_runs(parent[:5], [p - 2.0 for p in parent[:5]]), METRICS)
    assert five["t"]["change_wins"] == 5 and not five["t"]["claim_met"]


def test_worse_beyond_bound_is_a_fraction_of_the_parent_median(bench_pairs):
    parent = [4.0] * 10
    within = bench_pairs.summarize(_runs(parent, [4.9] * 10), METRICS)["t"]
    past = bench_pairs.summarize(_runs(parent, [5.1] * 10), METRICS)["t"]
    assert not within["worse_beyond_bound"] and past["worse_beyond_bound"]
    assert not within["claim_met"] and within["change_wins"] == 0


def test_more_failed_operations_void_the_claim(bench_pairs):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p - 2.0 for p in parent]
    assert bench_pairs.summarize(_runs(parent, faster), METRICS)["t"]["claim_met"]
    summary = bench_pairs.summarize(_runs(parent, faster, change_failed=1), METRICS)["t"]
    assert summary["change_wins"] == 10 and not summary["claim_met"]
    # a crashed run counts as one failed of one attempted
    runs = _runs(parent, faster)
    runs[3]["change"] = {"exit": 1, "error": "boom"}
    assert not bench_pairs.summarize(runs, METRICS)["t"]["claim_met"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # parent median 4.5, Q3 - Q1 = 1.25 against a bound of 0.25 * 4.5 = 1.125
    parent = [3.0, 3.5, 4.0, 4.5, 4.5, 4.5, 4.5, 5.0, 5.5, 6.0]
    same = bench_pairs.summarize(_runs(parent, parent), METRICS)["t"]
    assert same["unresolved"] and not same["worse_beyond_bound"]
    # unless every change run beats every parent run
    beats = bench_pairs.summarize(_runs(parent, [2.9] * 10), METRICS)["t"]
    assert not beats["unresolved"] and beats["claim_met"]
    tight = bench_pairs.summarize(_runs([4.5] * 10, [4.6] * 10), METRICS)["t"]
    assert not tight["unresolved"] and not tight["worse_beyond_bound"]


def test_a_side_without_metrics_gets_no_verdict(bench_pairs):
    runs = [{"parent": {"exit": 1, "error": "boom"}, "change": {"metrics": {"t": 1.0, "hits": 1.0}}}]
    summary = bench_pairs.summarize(runs, METRICS)["t"]
    assert "parent" not in summary and "claim_met" not in summary

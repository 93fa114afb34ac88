"""CLI harness: exit codes, output formats, manifests, and replay."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbspectra import cli, nbmatrix
from nbspectra.cli import (CliInputError, ExperimentManifest, build_parser,
                           growing_degree, law_convergence, lift_convergence,
                           main, schedule_branching)
from nbspectra.multigraph import (CensusInvariantError, WalkCensus,
                                  build_from_edge_list, complete_graph,
                                  cycle_graph, save_graph_file, walk_census)
from nbspectra.nbmatrix import nb_matrix_sequence
from nbspectra.random_models import RngStream, haar_unitary_color
from nbspectra.spectra import measures

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    save_graph_file(complete_graph(4), path)
    return path


def test_census_exit_ok_and_output(k4_file, tmp_path, capsys):
    code = main(["census", str(k4_file), "--rmax", "6",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "girth = 3" in out
    csv = (tmp_path / "out" / "census.csv").read_text().splitlines()
    assert csv[0] == "manifest_hash,r,f,c,z"
    assert csv[1].endswith(",0,4,0,0")
    assert csv[4].endswith(",3,24,24,4")


def test_census_stdout_when_no_out(k4_file, capsys):
    assert main(["census", str(k4_file), "--rmax", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("r,f,c,z")


def test_census_csv_format(tmp_path, capsys):
    # stdout carries the rows of the --out CSV without its manifest_hash
    # column; past BRUTE_R_CAP (r_max = 16) the z cells are empty strings
    path = tmp_path / "c4.txt"
    save_graph_file(cycle_graph(4), path)
    printed = {}
    for rmax in (4, 16):
        out = tmp_path / str(rmax)
        assert main(["census", str(path), "--rmax", str(rmax), "--out", str(out)]) == 0
        assert main(["census", str(path), "--rmax", str(rmax)]) == 0
        lines = capsys.readouterr().out.split("girth = 4\n", 1)[1].splitlines()  # after --out
        filed = [row.split(",", 1)[1] for row in (out / "census.csv").read_text().splitlines()]
        assert len(filed) == rmax + 2 and lines[:rmax + 2] == filed
        printed[rmax] = lines
    assert printed[16][17] == "16,8,8," and printed[16][-1] == "girth = 4"
    assert printed[4][0] == "r,f,c,z"
    assert printed[4][1] == "0,4,0,0"
    assert printed[4][5] == "4,8,8,1"


def test_census_json_needs_out(k4_file, capsys):
    # stdout carries CSV only, so a json request without a directory is refused
    assert main(["census", str(k4_file), "--rmax", "4", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and captured.out == ""


def test_census_rejects_non_regular(tmp_path, capsys):
    path = tmp_path / "path.txt"
    save_graph_file(build_from_edge_list([(0, 1), (1, 2)], 3), path)
    assert main(["census", str(path)]) == 2
    err = capsys.readouterr().err
    assert "vertex" in err


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty graph file"),
    ("two 1\n0 1\n", "line 1: expected integer header 'n m'"),
    ("2 1\n0 1 1\n", "line 2: expected edge line 'u v'"),
    ("3 2\n0 1\n", "line 1: header promised 2 edges, found 1"),
    ("0 0\n", "empty graph has no degree"),
    ("2 1\n0 1\n", "degree 1 below required minimum 2"),
    # degrees come from the darts, not an array of 10^12 counts
    ("1000000000000 0\n", "degree 0 below required minimum 2"),
    ("1000000000000 1\n0 1\n", "vertex 2 has degree 0, vertex 0 has degree 1"),
], ids=["empty-file", "header-not-integer", "three-fields", "edges-missing", "no-vertices",
        "degree-one", "huge-edgeless", "huge-one-edge"])
def test_census_bad_graph_file_is_input_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["census", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_lift_on_a_huge_vertex_count_with_one_edge_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000 1\n0 1\n")
    assert main(["lift", str(path), "--N", "2", "--trials", "1", "--out", str(tmp_path)]) == 2
    assert "vertex 2 has degree 0, vertex 0 has degree 1" in capsys.readouterr().err


def test_census_parse_error_carries_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 7\n")
    assert main(["census", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["9223372036854775808 0\n", "9223372036854775808 1\n0 1\n",
                                  "18446744073709551617 1\n0 18446744073709551616\n"],
                         ids=["edgeless", "one-edge", "endpoint-past-int64"])
def test_vertex_count_past_int64_is_input_error(text, tmp_path, capsys):
    # n = 2^63 - 1 already fails in numpy ("array is too big"); from 2^63 on
    # the graph itself refuses n, before any array of that size is asked for
    path = tmp_path / "huge.txt"
    path.write_text(text)
    for argv in (["census", str(path)], ["lift", str(path), "--N", "2", "--trials", "1"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "fit in int64" in capsys.readouterr().err


def test_census_missing_file_is_input_error(capsys):
    assert main(["census", "does-not-exist.txt"]) == 2


def test_laws_outputs_and_bounds(tmp_path, capsys):
    code = main(["laws", "--q", "50", "--m", "53",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "laws_density.csv").read_text().splitlines()
    assert rows[0] == ("manifest_hash,q,sup_density_gap,bound,pass,"
                       "winf_to_semicircle")
    fields = rows[1].split(",")
    assert fields[4] == "true"
    assert float(fields[2]) <= float(fields[3])
    cyc = (tmp_path / "laws_cycles.csv").read_text().splitlines()
    assert cyc[1].split(",")[4] == "true"
    manifest = json.loads((tmp_path / "laws_density_manifest.json").read_text())
    assert manifest["manifest_hash"] == fields[0] == rows[1].split(",")[0]


def test_laws_q_bound_validation(capsys):
    assert main(["laws", "--q", "2", "--m", "10"]) == 2


@pytest.mark.parametrize("q", [2.0001, 2.5, 3.0, 5.0, 10.0, 50.0, 200.0, 1e6, 1e18])
def test_laws_density_gap_matches_mpmath_maximum(q):
    # oracle: the textbook Kesten-McKay density of the (q+1)-regular tree in
    # x = lambda / sqrt(q), against the semicircle, in 50 digits; |gap| is
    # even in x, so each local maximum of a grid on [0, 2] is refined by
    # golden-section search
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        qm, pi = mpmath.mpf(q), mpmath.pi

        def gap(x):
            root = mpmath.sqrt(4 - x * x)
            km = qm * (qm + 1) * root / (2 * pi * ((qm + 1) ** 2 - qm * x * x))
            return abs(km - root / (2 * pi))

        xs = mpmath.linspace(0, 2, 401)
        vals = [gap(x) for x in xs]
        ratio = (mpmath.sqrt(5) - 1) / 2
        best = mpmath.mpf(0)
        for i, val in enumerate(vals):
            lo, hi = max(i - 1, 0), min(i + 1, len(xs) - 1)
            if val < max(vals[lo], vals[hi]):
                continue
            lo, hi = xs[lo], xs[hi]
            for _ in range(240):
                a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                lo, hi = (lo, b) if gap(a) >= gap(b) else (a, hi)
            best = max(best, val, gap(lo), gap(hi))
        oracle = float(best)
    result = law_convergence([q], [])["q_rows"][0]
    assert result[1] == pytest.approx(oracle, rel=1e-14, abs=0)
    assert result[3] is True and result[1] <= result[2]


def test_replay_is_byte_identical(tmp_path):
    argv = ["grow", "--n", "32", "--n", "64", "--schedule", "fixed", "--q", "3",
            "--trials", "3", "--seed", "5", "--p", "2", "--rmax", "2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    for name in ("grow_distances.csv", "grow_circuits.csv",
                 "grow_distances_manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_json_format_output(tmp_path, k4_file):
    assert main(["lift", str(k4_file), "--color", "trivial", "--N", "2",
                 "--trials", "1", "--out", str(tmp_path), "--format", "json",
                 "--rmax", "4"]) == 0
    records = json.loads((tmp_path / "lift_distances.json").read_text())
    assert isinstance(records, list) and records
    assert set(records[0]) >= {"manifest_hash", "N", "p", "mean_distance",
                               "stderr", "trials"}


def test_repeatable_options_replace_their_defaults():
    parser = build_parser()
    args = parser.parse_args(["lift", "k4.txt"])
    assert args.N == [2, 8, 32, 128] and args.p == [1.0, 2.0]
    args = parser.parse_args(["lift", "k4.txt", "--N", "2", "--p", "3"])
    assert args.N == [2] and args.p == [3.0]
    args = parser.parse_args(["laws", "--m", "5", "--m", "7"])
    assert args.m == [5, 7] and args.q == [5.0, 10.0, 50.0, 200.0]
    assert parser.parse_args(["grow"]).n == [64, 256, 1024]


def test_second_main_call_gets_the_default_ladders(tmp_path, k4_file):
    # One parser serves every call in a process; a call that replaced the
    # defaults must leave them intact for the next.
    assert build_parser() is build_parser()
    first = ["lift", str(k4_file), "--color", "trivial", "--trials", "1", "--rmax", "1"]
    assert main(first + ["--N", "2", "--p", "3", "--out", str(tmp_path / "a")]) == 0
    assert main(first + ["--out", str(tmp_path / "b")]) == 0
    params = [json.loads((tmp_path / side / "lift_distances_manifest.json")
                         .read_text())["parameters"] for side in "ab"]
    assert (params[0]["N"], params[0]["p"]) == ([2], [3.0])
    assert (params[1]["N"], params[1]["p"]) == ([2, 8, 32, 128], [1.0, 2.0])

def test_grow_schedule_validation():
    assert schedule_branching("log", 64, None) == 6
    assert schedule_branching("log", 1 << 20, None) == 7
    assert schedule_branching("fixed", 64, 3) == 3
    with pytest.raises(CliInputError):
        schedule_branching("fixed", 64, None)
    with pytest.raises(CliInputError):
        growing_degree([10], [8], 1, 0, [2.0], 2)  # degree 9 above cap
    with pytest.raises(CliInputError):
        growing_degree([9], [2], 1, 0, [2.0], 2)  # odd n * degree
    with pytest.raises(CliInputError, match="equal length"):
        growing_degree([16, 32], [2], 1, 0, [2.0], 2)


def test_grow_refuses_a_cell_plain_rejection_cannot_serve(tmp_path, capsys):
    # (16, 8) gets no switchings, and a pairing is simple with probability
    # about exp(-63/4) = 1.4e-7: under one in the retry budget of 10^6, so
    # the cell is refused at once instead of after 10^6 pairings
    start = time.perf_counter()
    assert main(["grow", "--n", "16", "--schedule", "fixed", "--q", "7",
                 "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "n=16, degree=8" in capsys.readouterr().err


def test_grow_parity_error_exit_code(capsys):
    assert main(["grow", "--n", "9", "--schedule", "fixed", "--q", "2",
                 "--trials", "1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["lift", "{k4}", "--N", "2", "--trials", "0"], "trials must be at least 1"),
    (["grow", "--n", "16", "--schedule", "fixed", "--q", "2", "--trials", "0"],
     "trials must be at least 1"),
    (["census", "{k4}", "--rmax", "-1"], "r_max must be nonnegative"),
    (["lift", "{k4}", "--color", "haar", "--N", "2", "--trials", "1",
      "--rmax", "-1"], "r_max must be at least 1"),
    (["lift", "{k4}", "--N", "2", "--trials", "1", "--rmax", "0"],
     "r_max must be at least 1"),
    (["grow", "--n", "16", "--schedule", "fixed", "--q", "2", "--trials", "1",
      "--rmax", "-1"], "r_max must be nonnegative"),
    (["grow", "--n", "0", "--trials", "1"], "vertex count n must be at least 1"),
    (["grow", "--n", "0", "--schedule", "loglog", "--trials", "1"],
     "vertex count n must be at least 1"),
    (["laws", "--q", "inf", "--m", "10"], "finite real q > 1"),
    (["lift", "{k4}", "--color", "trivial", "--N", "0"],
     "block dimension N must be at least 1"),
    (["lift", "{k4}", "--N", "2", "--N", "0"],
     "block dimension N must be at least 1"),
    (["lift", "{k4}", "--N", "4", "--N", "16", "--p", "1", "--p", "1",
      "--trials", "5", "--seed", "1"], "--p 1 given more than once"),
    (["grow", "--n", "16", "--schedule", "fixed", "--q", "2", "--trials", "1",
      "--p", "2", "--p", "1", "--p", "2"], "--p 2 given more than once"),
    (["lift", "{k4}", "--N", "4", "--N", "4", "--trials", "3", "--seed", "1"],
     "--N 4 given more than once"),
    (["grow", "--n", "32", "--n", "32", "--schedule", "fixed", "--q", "2",
      "--trials", "2"], "--n 32 given more than once"),
    # cells whose X_r table passes its size limit at every --rmax the
    # subcommand takes (from 1 for lift, from 0 for grow)
    (["lift", "{k4}", "--N", "2000000"],
     "N=2000000 has 8000000 atoms: its X_r table passes 4194304 entries at every --rmax"),
    (["lift", "{k4}", "--N", "1048576"],
     "N=1048576 has 4194304 atoms: its X_r table passes 4194304 entries at every --rmax"),
    (["grow", "--n", "5000000", "--schedule", "fixed", "--q", "3"],
     "n=5000000 has 5000000 atoms: its X_r table passes 4194304 entries at every --rmax"),
    (["lift", "{k4}", "--N", "2", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["lift", "{k4}", "--color", "trivial", "--N", "2", "--seed", "-3"],
     "seed must be nonnegative, got -3"),
    (["grow", "--n", "16", "--schedule", "fixed", "--q", "2", "--trials", "1", "--seed", "-5"],
     "seed must be nonnegative, got -5"),
])
def test_bad_counts_are_input_errors(argv, message, k4_file, tmp_path, capsys):
    argv = [a.format(k4=k4_file) for a in argv] + ["--out", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_laws_at_huge_q_write_finite_values(tmp_path):
    # the bound 2/(q-2) lies below one ulp of the densities there, so the gap
    # is taken in closed form, not as a difference of two densities
    assert main(["laws", "--q", "1e18", "--q", "1e308", "--m", "10",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "laws_density.csv").read_text().splitlines()[1:]
    assert "nan" not in "".join(rows)
    assert [row.split(",")[4] for row in rows] == ["true", "true"]


@pytest.mark.parametrize("argv, owner, attr, broken", [
    (["census", "{k4}"], WalkCensus, "identity_circle_bounds", lambda self, r: False),
    # past the circle cap no circle bound is checked; c_4 = 0 - (q-1) c_2 = -1
    (["census", "{k4}", "--rmax", "16"], nbmatrix, "nb_trace_sequence",
     lambda g, r_max: [4, 0, 1] + [0] * (r_max - 2)),
])
def test_internal_invariant_failures_exit_1(argv, owner, attr, broken, k4_file,
                                            tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(owner, attr, broken)
    argv = [a.format(k4=k4_file) for a in argv] + ["--out", str(tmp_path)]
    assert main(argv) == 1
    assert "runtime error" in capsys.readouterr().err
    assert issubclass(CensusInvariantError, RuntimeError)
    assert not issubclass(CensusInvariantError, ValueError)

def test_fold_one_lift_distance_is_deterministic_base_distance():
    from nbspectra.spectra import kesten_mckay, spectral_measure, wasserstein_p
    base = complete_graph(4)
    result = lift_convergence(base, [1], trials=3, seed=11, r_max=2,
                              p_list=[1.0])
    (_, _, mean, se, _), = result["distance_rows"]
    direct = wasserstein_p(spectral_measure(base), kesten_mckay(2.0), 1.0)
    assert mean == pytest.approx(direct, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_lift_with_cycle_base_uses_arcsine_target():
    from nbspectra.multigraph import cycle_graph
    result = lift_convergence(cycle_graph(4), [8], trials=2, seed=4,
                              r_max=2, p_list=[1.0])
    assert result["q"] == 1
    (fold, p, mean, se, trials), = result["distance_rows"]
    assert fold == 8 and math.isfinite(mean) and mean > 0


def test_manifest_document_records_stream_policy(tmp_path, k4_file):
    assert main(["lift", str(k4_file), "--color", "trivial", "--N", "1",
                 "--trials", "1", "--out", str(tmp_path), "--rmax", "2"]) == 0
    doc = json.loads((tmp_path / "lift_distances_manifest.json").read_text())
    assert "pcg64" in doc["stream_policy"]
    assert doc["package_version"]
    assert doc["parameters"]["color"] == "trivial"


def test_trivial_color_matches_uncolored():
    base = complete_graph(4)
    colored = lift_convergence(base, [3], trials=1, seed=0, r_max=4,
                               p_list=[1.0, 2.0], color="trivial")
    uncolored = lift_convergence(base, [1], trials=1, seed=0, r_max=4,
                                 p_list=[1.0, 2.0])
    for row, base_row in zip(colored["distance_rows"],
                             uncolored["distance_rows"]):
        assert row[1] == base_row[1]
        assert row[2] == pytest.approx(base_row[2], abs=1e-9)


def test_trivial_color_builds_one_measure_per_fold(monkeypatch):
    # N disjoint copies of the base share its spectrum: one base measure
    # serves every trial of every fold, and no colored matrix is built
    calls = []
    build = cli.spectral_measure

    def spy(*args):
        calls.append(args)
        return build(*args)

    def refuse(*args):
        raise AssertionError("the trivial coloring built a colored matrix")

    monkeypatch.setattr(cli, "spectral_measure", spy)
    monkeypatch.setattr(measures, "colored_adjacency", refuse)
    base = complete_graph(4)
    result = lift_convergence(base, [2, 8], trials=5, seed=5, r_max=2,
                              p_list=[1.0], color="trivial")
    assert calls == [(base,)]
    assert [row[3] for row in result["distance_rows"]] == [0.0, 0.0]


def _residuals(result):
    return [mean for _, _, mean in result["residual_rows"]]


def test_haar_residuals_are_normalized_colored_traces():
    base, fold, seed, r_max = complete_graph(4), 16, 5, 4
    result = lift_convergence(base, [fold], trials=1, seed=seed, r_max=r_max,
                              p_list=[1.0], color="haar")
    # the stream of trial 0 of the fold's cell
    color = haar_unitary_color(base, fold, RngStream(seed).child(fold).child(0))
    seq = list(nb_matrix_sequence(base, r_max, color))
    q, n = 2, base.n_vertices
    for r, got in enumerate(_residuals(result), start=1):
        want = q ** (-r / 2.0) * np.trace(seq[r]).real / (n * fold)
        assert got == pytest.approx(want, abs=1e-10)


def test_trivial_residuals_are_the_base_census():
    base, r_max = complete_graph(4), 4
    result = lift_convergence(base, [16], trials=1, seed=5, r_max=r_max,
                              p_list=[1.0], color="trivial")
    census = walk_census(base, r_max)
    for r, got in enumerate(_residuals(result), start=1):
        want = 2 ** (-r / 2.0) * census.f[r] / base.n_vertices
        assert got == pytest.approx(want, abs=1e-10)


def test_haar_and_trivial_residuals_differ_past_girth():
    base = complete_graph(4)
    haar, trivial = (
        _residuals(lift_convergence(base, [16], trials=1, seed=5, r_max=3,
                                    p_list=[1.0], color=color))
        for color in ("haar", "trivial"))
    assert abs(haar[2] - trivial[2]) > 1e-3


def test_haar_lift_convergence_trend():
    result = lift_convergence(complete_graph(4), [2, 8, 32], trials=10,
                              seed=2024, r_max=2, p_list=[1.0], color="haar")
    means = result["means"][1.0]
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_lift_residuals_vanish_below_girth():
    base = complete_graph(4)
    result = lift_convergence(base, [4], trials=2, seed=1, r_max=2,
                              p_list=[1.0])
    for _, r, mean_residual in result["residual_rows"]:
        if r < 3:  # every lift of K4 keeps girth >= 3
            assert abs(mean_residual) <= 1e-9


def test_negative_control_plateaus_near_law_distance():
    from nbspectra.spectra import kesten_mckay, semicircle, wasserstein_p
    floor = wasserstein_p(kesten_mckay(3.0), semicircle(), 2)
    result = growing_degree([64, 128], [3, 3], trials=3, seed=2,
                            p_list=[2.0], r_max=2)
    last_mean = result["means"][2.0][-1]
    assert last_mean == pytest.approx(floor, rel=0.15)


def test_manifest_hash_stability():
    m1 = ExperimentManifest("lift", {"N": [2, 8], "trials": 5}, 3)
    m2 = ExperimentManifest("lift", {"trials": 5, "N": [2, 8]}, 3)
    assert m1.hash == m2.hash
    m3 = ExperimentManifest("lift", {"N": [2, 8], "trials": 6}, 3)
    assert m1.hash != m3.hash


def test_grow_reports_zero_short_circles(tmp_path):
    result = growing_degree([32], [3], trials=4, seed=7, p_list=[2.0], r_max=2)
    for row in result["distance_rows"]:
        assert row[-1] == 0  # nonsimple_samples column


def test_a_cells_rows_depend_only_on_the_seed_and_the_cell():
    # Each cell draws from the stream keyed by (seed, cell), so a cell's rows
    # are the same on any ladder that holds it.
    def rows(result, keys, first):
        return [[row for row in result[k] if row[0] == first] for k in keys]

    keys = ("distance_rows", "residual_rows")
    ladder = lift_convergence(complete_graph(4), [2, 8], trials=3, seed=9, r_max=3,
                              p_list=[1.0, 2.0])
    alone = lift_convergence(complete_graph(4), [8], trials=3, seed=9, r_max=3,
                             p_list=[1.0, 2.0])
    assert rows(ladder, keys, 8) == rows(alone, keys, 8) == [alone[k] for k in keys]
    keys = ("distance_rows", "circuit_rows")
    ladder = growing_degree([64, 128], [3, 3], trials=2, seed=9, p_list=[2.0], r_max=3)
    alone = growing_degree([128], [3], trials=2, seed=9, p_list=[2.0], r_max=3)
    assert rows(ladder, keys, 128) == rows(alone, keys, 128) == [alone[k] for k in keys]
    assert alone["means"][2.0] == ladder["means"][2.0][1:]


# -- property: exit codes over generated argument lists ---------------------------

GRAPHS = {"k4": complete_graph(4), "c4": cycle_graph(4), "c5": cycle_graph(5),
          "path": build_from_edge_list([(0, 1), (1, 2)], 3)}
ORDERS = st.lists(st.sampled_from(["0.5", "1", "2", "3.5", "inf", "nan"]), max_size=2)
COUNTS = st.integers(0, 2)
RMAX = st.integers(-2, 8)


def _repeat(flag, values):
    return [a for v in values for a in (flag, str(v))]


def _orders_ok(orders):
    return all(float(p) >= 1.0 for p in orders) and len(set(orders)) == len(orders)


def _grow_degree(schedule, n, q):
    if schedule == "fixed":
        return q + 1
    if schedule == "log":
        return min(7, max(1, int(math.log2(n)))) + 1
    return min(7, max(2, int(math.log2(max(2.0, math.log2(n)))) + 2)) + 1


@st.composite
def cli_cases(draw):
    """(argv with {graph} placeholders, whether the input is valid)."""
    command = draw(st.sampled_from(["census", "lift", "grow", "laws"]))
    graph = draw(st.sampled_from(sorted(GRAPHS)))
    rmax = draw(RMAX)
    orders = draw(ORDERS)
    if command == "census":
        return ["census", f"{{{graph}}}", "--rmax", str(rmax)], graph != "path" and rmax >= 0
    if command == "lift":
        folds = draw(st.lists(st.integers(-1, 8), min_size=1, max_size=2))
        trials = draw(COUNTS)
        color = draw(st.sampled_from(["trivial", "permutation", "haar"]))
        argv = (["lift", f"{{{graph}}}", "--color", color, "--trials", str(trials),
                 "--rmax", str(rmax)] + _repeat("--N", folds) + _repeat("--p", orders))
        valid = (graph != "path" and min(folds) >= 1 and len(set(folds)) == len(folds)
                 and trials >= 1 and rmax >= 1 and _orders_ok(orders))
        return argv, valid
    if command == "grow":
        schedule = draw(st.sampled_from(["log", "loglog", "fixed"]))
        ns = draw(st.lists(st.integers(-2, 24), min_size=1, max_size=2))
        q = draw(st.integers(-1, 3))
        trials = draw(COUNTS)
        argv = (["grow", "--schedule", schedule, "--q", str(q), "--trials", str(trials),
                 "--rmax", str(rmax)] + _repeat("--n", ns) + _repeat("--p", orders))
        valid = (min(ns) >= 1 and len(set(ns)) == len(ns) and trials >= 1 and rmax >= 0
                 and _orders_ok(orders)
                 and all(2 <= _grow_degree(schedule, n, q) < n
                         and n * _grow_degree(schedule, n, q) % 2 == 0
                         for n in ns))
        return argv, valid
    qs = draw(st.lists(st.sampled_from(
        ["-1", "1", "2", "2.5", "50", "1e18", "1e308", "inf", "nan"]), max_size=2))
    ms = draw(st.lists(st.integers(-2, 200), max_size=2))
    argv = ["laws"] + _repeat("--q", qs) + _repeat("--m", ms)
    valid = all(2.0 < float(q) < math.inf for q in qs) and all(m >= 3 for m in ms)
    return argv, valid


def _nonfinite_cells(out: Path) -> list[tuple[str, str, str]]:
    """Data cells of the CSVs in ``out`` that are not finite numbers.  The
    manifest hash column and true/false flags are not numeric data, and the
    Wasserstein order column ``p`` echoes the input, where inf is valid."""
    bad = []
    for path in sorted(out.glob("*.csv")):
        with path.open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        bad += [(path.name, column, cell) for row in rows
                for column, cell in zip(header[1:], row[1:])
                if cell not in ("true", "false")
                and not (math.isfinite(float(cell)) or column == "p")]
    return bad


@settings(max_examples=150, deadline=None)
@given(case=cli_cases())
# X_r at the trivial eigenvalue (q+1)/sqrt(q) grows like q^(r/2): these
# moment statistics would leave float range, so the run is refused
@example(case=(["lift", "{k4}", "--N", "2", "--trials", "1", "--rmax", "2400"], False))
@example(case=(["grow", "--n", "64", "--schedule", "fixed", "--q", "7", "--trials", "1",
                "--rmax", "800"], False))
# at q = 1 the statistics stay finite, but the (r_max + 1) x atoms X_r table
# would pass its size limit
@example(case=(["lift", "{c5}", "--N", "2", "--trials", "1", "--rmax", "10000000"], False))
# a later cell's degree, parity or degree < n, and an order p < 1, are refused
# before the first cell samples
@example(case=(["grow", "--n", "64", "--n", "1025", "--schedule", "fixed", "--q", "4"], False))
@example(case=(["grow", "--n", "64", "--n", "4", "--schedule", "fixed", "--q", "4"], False))
@example(case=(["grow", "--n", "64", "--p", "0.5", "--schedule", "fixed", "--q", "4"], False))
@example(case=(["lift", "{k4}", "--p", "0.5"], False))
def test_exit_codes_follow_the_input_contract(case):
    # Invalid input exits 2 before any graph, lift or coloring is sampled.
    argv, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, g in GRAPHS.items():
            paths[name] = Path(tmp) / f"{name}.txt"
            save_graph_file(g, paths[name])
        argv = [a.format(**paths) for a in argv] + ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(cli, name, wraps=getattr(cli, name)))
                     for name in ("sample_regular_graph", "sample_lift", "haar_unitary_color")]
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(err))
            code = main(argv)
        nonfinite = _nonfinite_cells(Path(tmp) / "out") if code == 0 else []
    if valid:
        assert code in (0, 1), (argv, err.getvalue())
    else:
        assert code == 2, (argv, err.getvalue())
        assert err.getvalue().startswith("error: "), argv
        assert not any(spy.called for spy in spies), argv
    assert not nonfinite, (argv, nonfinite)


@pytest.mark.parametrize("trials, largest", [(1, 2037), (2, 1016)])
def test_lift_rmax_limit_is_the_largest_with_finite_output(k4_file, tmp_path, capsys,
                                                          trials, largest):
    # A 2-lift of K4 has q = 2 and 8 atoms.  At the largest allowed --rmax
    # every statistic (and, over two trials, every squared deviation) is
    # finite without a RuntimeWarning; one more is refused before sampling.
    argv = ["lift", str(k4_file), "--N", "2", "--trials", str(trials),
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--rmax", str(largest)]) == 0
    assert not _nonfinite_cells(tmp_path / "out")
    assert main(argv + ["--rmax", str(largest + 1)]) == 2
    assert f"the largest allowed --rmax is {largest}" in capsys.readouterr().err


def test_q1_rmax_limit_is_the_x_table_size(tmp_path, capsys):
    # At q = 1 every statistic stays finite, so only the X_r table bounds
    # --rmax: a 2-lift of C5 has 10 atoms, and one row past the limit is refused.
    path = tmp_path / "c5.txt"
    save_graph_file(cycle_graph(5), path)
    largest = cli._MAX_X_TABLE_ENTRIES // 10 - 1
    argv = ["lift", str(path), "--N", "2", "--trials", "1", "--out", str(tmp_path / "out")]
    assert main(argv + ["--rmax", str(largest + 1)]) == 2
    assert f"the largest allowed --rmax is {largest}" in capsys.readouterr().err


def test_readme_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:]
                for line in lines if line.startswith("nbspectra ")]
    assert len(commands) == 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_module_entry_point_runs_without_warnings(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "nbspectra.cli", "laws", "--m", "3",
                           "--q", "5", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr

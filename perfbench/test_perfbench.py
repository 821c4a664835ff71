"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
from pathlib import Path

import numpy as np
import pytest

import benchdata
import benchtrace
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_generator_is_deterministic_under_its_seed():
    a = benchdata.make_matrix(7, rows=300)
    assert np.array_equal(a, benchdata.make_matrix(7, rows=300))
    assert not np.array_equal(a, benchdata.make_matrix(8, rows=300))
    names = benchdata.column_names()
    assert benchdata.csv_text(a, names) == benchdata.csv_text(benchdata.make_matrix(7, rows=300), names)


def test_csv_text_round_trips_exactly(tmp_path):
    x = benchdata.make_matrix(3, rows=50)
    path = tmp_path / "x.csv"
    path.write_text(benchdata.csv_text(x, benchdata.column_names()))
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), x)


def test_reference_matches_the_planted_structure():
    expected = benchdata.expected_report(benchdata.make_matrix(0, rows=20_000))
    assert [len(b["variables"]) for b in expected["blocks"]] == [45, 5]
    assert expected["recommendation"] == benchdata.column_names()[45:]
    assert sum(b["ev_exact"] for b in expected["blocks"]) == pytest.approx(1.0)


def test_end_to_end_names_match_benchmark_json():
    assert run.END_TO_END_UNITS == _names_units(BENCHMARK["end_to_end"])


def test_per_layer_names_match_benchmark_json():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["core.run_pla", 1.0, 9.0, 0],
        ["np.cov", 2.0, 3.0, 1],
    ]
    metrics, _ = run.layer_metrics(spans, 1, 0.5, 12.0, 10.0, 10.5)
    assert {k: v["unit"] for k, v in metrics.items()} == _names_units(BENCHMARK["per_layer"])


def test_workloads_match_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]


def test_fast_decile_stays_within_the_samples():
    assert run.fast_decile([3.0, 1.0, 2.0]) == pytest.approx(1.2)
    assert run.fast_decile([1.0 + i / 100 for i in range(41)]) == pytest.approx(1.04)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],      # children cover 1-4 and 5-9
        ["core.run_pla", 1.0, 4.0, 0],    # child covers 2-3
        ["np.cov", 2.0, 3.0, 1],
        ["ingest.load_csv", 5.0, 9.0, 0],  # children overlap: union 6-8
        ["ingest.validate", 6.0, 7.5, 3],
        ["ingest.validate", 7.0, 8.0, 3],
    ]
    assert benchtrace.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 1.0])
    assert [benchtrace.layer_of(spans, i) for i in range(3)] == ["cli", "core", "core"]
    assert benchtrace.outermost_totals(spans)["ingest.validate"] == pytest.approx(2.5)
    assert benchtrace.counts(spans)["ingest.validate"] == 2


def test_nested_spans_of_one_name_count_once():
    spans = [["a.f", 0.0, 4.0, -1], ["a.f", 1.0, 2.0, 0]]
    assert benchtrace.outermost_totals(spans) == {"a.f": 4.0}


def test_tracer_records_parents_and_patches_undo():
    ticks = iter(range(100))
    tracer = benchtrace.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("core.inner", lambda: 1)
    outer = tracer.wrap("cli.outer", lambda: inner() + 1)
    assert outer() == 2
    assert tracer.spans == [["cli.outer", 0.0, 3.0, -1], ["core.inner", 1.0, 2.0, 0]]

    cli = run.import_pla()
    original, original_main = np.cov, cli.main
    with benchtrace.Patches(benchtrace.Tracer()):
        assert np.cov is not original and cli.main is not original_main
    assert np.cov is original and cli.main is original_main

import csv
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

import pla
import pla.simulate
from pla import (DispersionMatrix, ErrorEstimate, MonteCarloSpec, PlaConfig, ScenarioSpec,
                 detect_blocks, eigengap_bound, load_csv, reproduce_table, write_csv)
from pla.cli import main
from conftest import (BLOCK_3X3, blas_pinned, blas_unpinned, gaussian_sample, mixed_scale_values,
                      split_work)
from pla.errors import (
    ConfigError,
    ConsistencyError,
    DataError,
    DegenerateColumnError,
    DimensionError,
    FactorizationError,
    InsufficientInputError,
    NumericalError,
    ParseError,
    PlaError,
    SymmetryError,
    ZeroTraceError,
)

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    write_csv(gaussian_sample(BLOCK_3X3, 5000, 123, ("X1", "X2", "X3")), path)
    return str(path)


def write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n"
    )
    return str(path)


def error_lines(capsys):
    """stderr's lines as JSON, after checking that nothing reached stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    return [json.loads(line) for line in captured.err.splitlines()]


class TestAnalyze:
    def test_report_structure_and_shares(self, dataset, capsys):
        code = main(["analyze", "--input", dataset, "--tau", "0.7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "correlation-rescaled"
        blocks = {tuple(b["variables"]): b for b in report["blocks"]}
        assert set(blocks) == {("X1", "X2"), ("X3",)}
        assert blocks[("X1", "X2")]["ev_exact"] == pytest.approx(4 / 9, abs=0.03)
        assert blocks[("X3",)]["ev_exact"] == pytest.approx(5 / 9, abs=0.03)
        assert report["residual"] == []

    def test_out_file_and_byte_determinism(self, dataset, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["analyze", "--input", dataset, "--out", str(a)]) == 0
        assert main(["analyze", "--input", dataset, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_text_format(self, dataset, capsys):
        code = main(["analyze", "--input", dataset, "--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: correlation-rescaled" in out

    def test_missing_input_flag_usage_error(self, capsys):
        code = main(["analyze"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2

    def test_nonexistent_file_data_error(self, capsys):
        code = main(["analyze", "--input", "/nonexistent/file.csv"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 3

    def test_path_through_a_file_data_error(self, dataset, capsys):
        assert main(["analyze", "--input", dataset + "/x"]) == 3
        assert json.loads(capsys.readouterr().err)["code"] == 3

    def test_non_utf8_file_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        assert main(["analyze", "--input", str(path)]) == 3
        assert json.loads(capsys.readouterr().err)["code"] == 3

    def test_overflowing_cells_numerical_error(self, tmp_path, capsys):
        # np.cov overflows to inf; only the JSON error may reach stderr
        path = tmp_path / "huge.csv"
        path.write_text("a,b\n1e200,2e200\n-3e200,1e200\n2e200,-1e200\n")
        assert main(["analyze", "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == 4

    @pytest.mark.parametrize(
        "text, line, flags",
        [
            ('"' + "x" * 200_000 + '",b\n1,2\n3,4\n', 1, []),
            ('a,b\n1,2\n"' + "1" * 200_000 + '",4\n5,6\n', 3, []),
            ('a,b\n1,2\n"' + "1" * 200_000 + '",4\n5,6\n', 3, ["--na-policy", "drop-row"]),
        ],
        ids=["header", "body", "body-drop-row"],
    )
    def test_a_field_over_the_csv_limit_is_a_data_error(self, text, line, flags, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        assert main(["analyze", "--input", str(path), *flags]) == 3
        assert error_lines(capsys) == [
            {"code": 3, "message": f"{path}:{line}: field larger than field limit (131072)"}
        ]

    def test_bad_mode_rejected(self, dataset, capsys):
        assert main(["analyze", "--input", dataset, "--mode", "pca"]) == 2
        capsys.readouterr()

    def test_constant_columns_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "constant.csv"
        path.write_text("a,b\n1,2\n1,2\n1,2\n")
        assert main(["analyze", "--input", str(path), "--mode", "covariance"]) == 4
        assert error_lines(capsys) == [{"code": 4, "message": "eigenvalues sum to zero"}]

    def test_a_block_without_its_count_of_eigenvalues_gets_no_ev_approx(self, tmp_path, capsys):
        # Detection on the correlation matrix makes X4 a block of its own; matched
        # by squared mass, the 5-variable block takes six covariance eigenvectors
        # and X4 none, so neither gets an ev_approx, and X4 is not recommended.
        path = tmp_path / "mixed.csv"
        np.savetxt(path, mixed_scale_values(0), fmt="%.17g", delimiter=",")
        code = main(["analyze", "--input", str(path), "--no-header", "--tau", "0.8",
                     "--ev-formula", "approx"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        blocks = {tuple(b["variables"]): b for b in report["blocks"]}
        assert list(blocks) == [("X1", "X2", "X3", "X5", "X6"), ("X4",), ("X7", "X8")]
        for names in [("X1", "X2", "X3", "X5", "X6"), ("X4",)]:
            assert blocks[names]["ev_approx"] is None
            assert blocks[names]["discardable"] is False
        assert blocks[("X4",)]["ev_exact"] == pytest.approx(0.19618401602225677, rel=1e-12)
        assert blocks[("X7", "X8")]["ev_approx"] == pytest.approx(0.007243797223171635, rel=1e-12)
        assert report["recommendation"] == ["X7", "X8"]
        assert report["warnings"] == [
            "covariance eigenvalue count differs from block size; "
            "ev_approx is null for: X1, X2, X3, X5, X6, X4"
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--tau", "1.5"],
        ["analyze", "--ev-cutoff", "2"],
        ["analyze", "--delimiter", ""],
        ["discard", "--tau", "0", "--out", os.devnull],
        ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "0.4", "--S", "0"],
        ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "1.4", "--S", "2"],
        ["reproduce-table", "--table", "I", "--M", "8", "--k", "1",
         "--N", "200", "--S", "0"],
        ["reproduce-table", "--table", "I", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "0.4", "--tau", "1.5", "--S", "1"],
        ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "0.4", "--S", "1", "--seed", "-1"],
        ["reproduce-table", "--table", "I", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "0.4", "--S", "1", "--seed", "-1"],
        ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "0.4", "--S", "1", "--epsilon-scale", "-0.1"],
        ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
         "--N", "200", "--tau", "0.4", "--S", "1", "--epsilon-scale", "nan"],
        ["simulate", "--scenario", "single-vars", "--M", "20", "--k", "0",
         "--N", "100", "--tau", "0.5", "--S", "2"],
        ["simulate", "--scenario", "single-vars", "--M", "3", "--k", "2",
         "--N", "500", "--tau", "0.4", "--S", "1"],
        ["simulate", "--scenario", "one-block", "--M", "8", "--kappa", "1",
         "--N", "100", "--tau", "0.5", "--S", "2"],
        ["simulate", "--scenario", "single-vars", "--M", "20", "--k", "1",
         "--N", "1", "--tau", "0.5", "--S", "2"],
        ["reproduce-table", "--table", "I", "--M", "3", "--k", "2", "--N", "100", "--S", "2"],
        *(["bound", "--matrix", "M", "--delta", "M", "--tau", tau]
          for tau in ("nan", "inf", "1.5", "0", "-1")),
        *(["sensitivity", "--matrix", "M", "--variable", "0", "--increments", grid]
          for grid in ("1,nan", "1,inf")),
    ],
    ids=["analyze-tau", "analyze-ev-cutoff", "analyze-delimiter", "discard-tau",
         "simulate-S", "simulate-tau", "reproduce-table-S", "reproduce-table-tau",
         "simulate-seed", "reproduce-table-seed", "simulate-epsilon-scale",
         "simulate-epsilon-scale-nan", "simulate-k", "simulate-M-minus-k", "simulate-kappa",
         "simulate-N", "reproduce-table-M-minus-k", "bound-tau-nan", "bound-tau-inf",
         "bound-tau-1.5", "bound-tau-0", "bound-tau-negative",
         "sensitivity-increment-nan", "sensitivity-increment-inf"],
)
def test_out_of_range_option_is_usage_error(argv, dataset, tmp_path, capsys):
    if argv[0] in ("analyze", "discard"):
        argv = [argv[0], "--input", dataset, *argv[1:]]
    matrix = write_matrix(tmp_path, "m.csv", np.diag([4.0, 1.0]))
    argv = [matrix if a == "M" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == 2


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, float("nan"), float("inf")])
def test_every_tau_entry_point_gives_one_message(tau, dataset, tmp_path, capsys):
    message = f"tau must lie in (0, 1), got {tau}"
    base = DispersionMatrix(np.diag([4.0, 1.0]), "covariance")
    for call in (
        lambda: PlaConfig(tau=tau),
        lambda: ScenarioSpec(m_total=8, scenario="single-vars", count=1, n_sample=200, tau=tau),
        lambda: detect_blocks(np.eye(3), tau),
        lambda: eigengap_bound(base, np.zeros((2, 2)), tau),
    ):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message
    matrix = write_matrix(tmp_path, "m.csv", base.entries)
    for argv in (
        ["analyze", "--input", dataset],
        ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1", "--N", "200",
         "--S", "1"],
        ["bound", "--matrix", matrix, "--delta", matrix],
    ):
        assert main([*argv, "--tau", str(tau)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"code": 2, "message": message}) + "\n"


class TestDiscard:
    def test_writes_reduced_csv(self, tmp_path, capsys):
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 0.05]])
        src = tmp_path / "in.csv"
        write_csv(gaussian_sample(cov, 5000, 7, ("X1", "X2", "X3")), src)
        out = tmp_path / "kept.csv"
        code = main(
            ["discard", "--input", str(src), "--tau", "0.7",
             "--ev-cutoff", "0.1", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"discarded": ["X3"], "kept": ["X1", "X2"]}
        kept = load_csv(out)
        assert kept.variable_names == ("X1", "X2")
        assert kept.values.shape[0] == 5000


class TestBound:
    def test_diagnostic_values(self, tmp_path, capsys):
        base = write_matrix(tmp_path, "base.csv", np.diag([4.0, 1.0]))
        delta = write_matrix(
            tmp_path, "delta.csv", np.array([[0.0, 0.1], [0.1, 0.0]])
        )
        code = main(
            ["bound", "--matrix", base, "--delta", delta, "--tau", "0.2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigengaps"] == [3.0, 3.0]
        expected = 2.0 ** 1.5 * np.sqrt(0.02) / 3.0
        assert payload["bounds"][0] == pytest.approx(expected, abs=1e-12)
        assert payload["implies_below_tau"] == [True, True]

    def test_asymmetric_matrix_numerical_error(self, tmp_path, capsys):
        base = write_matrix(
            tmp_path, "asym.csv", np.array([[1.0, 0.5], [0.2, 1.0]])
        )
        delta = write_matrix(tmp_path, "d.csv", np.zeros((2, 2)))
        code = main(
            ["bound", "--matrix", base, "--delta", delta, "--tau", "0.2"]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 4

    def test_delta_of_another_shape_is_data_error(self, tmp_path, capsys):
        base = write_matrix(tmp_path, "base.csv", np.eye(3))
        delta = write_matrix(tmp_path, "d.csv", np.zeros((2, 2)))
        assert main(["bound", "--matrix", base, "--delta", delta, "--tau", "0.5"]) == 3
        assert error_lines(capsys) == [
            {"code": 3, "message": "delta shape (2, 2) does not match base (3, 3)"}
        ]

    @pytest.mark.parametrize(
        "kind, matrix, message",
        [
            ("covariance", [[1.0, 2.0], [2.0, 1.0]],
             "covariance matrix is not positive semi-definite (min eigenvalue -1.000e+00)"),
            ("correlation", [[2.0, 0.0], [0.0, 1.0]], "correlation matrix diagonal is not 1"),
            ("correlation", [[1.0, 1.0 + 1e-11], [1.0 + 1e-11, 1.0]],
             "correlation entries exceed 1 in magnitude"),
        ],
        ids=["not-psd", "diagonal-2", "entry-above-1"],
    )
    def test_invalid_base_matrix_numerical_error(self, kind, matrix, message, tmp_path, capsys):
        base = write_matrix(tmp_path, "base.csv", np.array(matrix))
        delta = write_matrix(tmp_path, "d.csv", np.zeros((2, 2)))
        code = main(["bound", "--matrix", base, "--kind", kind, "--delta", delta, "--tau", "0.5"])
        assert code == 4
        assert error_lines(capsys) == [{"code": 4, "message": message}]

    def test_matrix_with_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff2,0\n0,1\n".encode("utf-8"))
        delta = write_matrix(tmp_path, "d.csv", np.zeros((2, 2)))
        code = main(["bound", "--matrix", str(path), "--delta", delta, "--tau", "0.2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["eigengaps"] == [1.0, 1.0]

    def test_ragged_matrix_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        delta = write_matrix(tmp_path, "d.csv", np.zeros((2, 2)))
        code = main(
            ["bound", "--matrix", str(path), "--delta", delta, "--tau", "0.2"]
        )
        assert code == 3
        capsys.readouterr()

    def test_a_matrix_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text('1,0\n"' + "0" * 200_000 + '",1\n')
        assert main(["bound", "--matrix", str(path), "--delta", str(path), "--tau", "0.5"]) == 3
        assert error_lines(capsys) == [
            {"code": 3, "message": f"{path}:2: field larger than field limit (131072)"}
        ]

    def test_non_numeric_matrix_cell_names_no_option(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n0,1\n")
        code = main(["bound", "--matrix", str(path), "--delta", str(path), "--tau", "0.2"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{path}:1: non-numeric cell"


@pytest.mark.parametrize(
    "command, bad",
    [("bound", "matrix"), ("bound", "delta"), ("sensitivity", "matrix")],
)
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_matrix_cell_is_data_error(command, bad, cell, tmp_path, capsys):
    good = write_matrix(tmp_path, "good.csv", np.eye(2))
    path = tmp_path / "bad.csv"
    path.write_text(f"1,{cell}\n{cell},1\n")
    files = {"matrix": good, "delta": good, bad: str(path)}
    if command == "bound":
        argv = ["bound", "--matrix", files["matrix"], "--delta", files["delta"],
                "--tau", "0.5"]
    else:
        argv = ["sensitivity", "--matrix", files["matrix"], "--variable", "0",
                "--increments", "0.01"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["code"] == 3 and "non-finite" in err["message"]


class TestSensitivity:
    def test_profile_payload(self, tmp_path, capsys):
        m = write_matrix(
            tmp_path, "m.csv", np.array([[1.0, 0.01], [0.01, 1.0]])
        )
        code = main(
            ["sensitivity", "--matrix", m, "--variable", "0",
             "--increments", "0.01,0.02"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_variable"] == 0
        assert len(payload["finite_differences"]) == 2
        for fd in payload["finite_differences"]:
            assert fd[1] < 0.0
        assert payload["sign_contract_ok"] == [True, True]

    def test_bad_increments_usage_error(self, tmp_path, capsys):
        m = write_matrix(tmp_path, "m.csv", np.eye(2))
        code = main(
            ["sensitivity", "--matrix", m, "--variable", "0",
             "--increments", "0.2,0.1"]
        )
        assert code == 2
        capsys.readouterr()

    def test_non_numeric_increment_usage_error(self, tmp_path, capsys):
        m = write_matrix(tmp_path, "m.csv", np.eye(2))
        code = main(["sensitivity", "--matrix", m, "--variable", "0", "--increments", "0.1,x"])
        assert code == 2
        assert error_lines(capsys) == [
            {"code": 2, "message": "--increments must be comma-separated numbers"}
        ]

    def test_a_lost_eigenvector_is_a_tracking_error(self, tmp_path, capsys):
        # a large increment turns the probed eigenvector away from the one it was
        equicorrelated = np.full((4, 4), 0.99)
        np.fill_diagonal(equicorrelated, 1.0)
        m = write_matrix(tmp_path, "m.csv", equicorrelated)
        code = main(["sensitivity", "--matrix", m, "--variable", "0", "--increments", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finite_differences"] == [None]
        assert payload["sign_contract_ok"] == [None]
        assert payload["tracking_errors"] == [
            "increment 100: max eigenvector overlap 0.668 below 0.7"
        ]

    def test_variable_out_of_range_usage_error(self, tmp_path, capsys):
        m = write_matrix(tmp_path, "m.csv", np.eye(2))
        code = main(["sensitivity", "--matrix", m, "--variable", "2", "--increments", "0.1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"code": 2, "message": "variable index 2 out of range for size 2"}


SIMULATE_M8 = ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
               "--N", "500", "--tau", "0.4", "--S", "4"]


class TestSimulate:
    def test_small_run(self, capsys):
        code = main(
            ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
             "--N", "500", "--tau", "0.4", "--S", "10", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["S"] == 10
        assert payload["rate"] == payload["failures"] / 10
        assert 0.0 <= payload["ci_low"] <= payload["rate"] <= payload["ci_high"]

    def test_reproducible_output(self, capsys):
        argv = ["simulate", "--scenario", "one-block", "--M", "8",
                "--kappa", "2", "--N", "500", "--tau", "0.6", "--S", "5",
                "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_a_clean_run_prints_nothing_on_stderr(self, capsys):
        argv = ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
                "--N", "500", "--tau", "0.4", "--S", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_numerical_failures_warn_once(self, capsys):
        # At this coupling every population is indefinite.
        code = main(
            ["simulate", "--scenario", "single-vars", "--M", "6", "--k", "1",
             "--N", "50", "--tau", "0.6", "--S", "3", "--epsilon-scale", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["numerical_failures"] == 3
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "3 of 3 iterations failed numerically" in json.loads(err[0])["warning"]

    def test_a_blas_fallback_warns_in_one_json_line(self, monkeypatch, capsys):
        monkeypatch.setattr(pla.simulate, "one_blas_thread", blas_unpinned)
        with split_work(2), warnings.catch_warnings():
            warnings.simplefilter("default")  # as in a pla process; pytest raises them
            assert main(SIMULATE_M8) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "runs in one process" in json.loads(err[0])["warning"]

    def test_a_pinned_run_on_two_cpus_prints_nothing_on_stderr(self, monkeypatch, capsys):
        monkeypatch.setattr(pla.simulate, "one_blas_thread", blas_pinned)
        with split_work(2):
            assert main(SIMULATE_M8) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_out_of_memory_is_one_json_line(self, cpus, monkeypatch, capsys):
        draw = pla.simulate.draw_covariance

        def short_of_memory(covariance, n, seed):
            if seed.entropy[1] == 3:  # iteration 3: on 2 CPUs, in the forked range 2 to 4
                raise MemoryError("Unable to allocate 8 GiB")
            return draw(covariance, n, seed)

        monkeypatch.setattr(pla.simulate, "draw_covariance", short_of_memory)
        monkeypatch.setattr(pla.simulate, "one_blas_thread", blas_pinned)
        with split_work(cpus), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            code = main(SIMULATE_M8)
        captured = capsys.readouterr()
        assert (code, captured.out, fork.call_count) == (3, "", cpus - 1)
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"code": 3, "message": "Unable to allocate 8 GiB"}
        ]

    def test_a_bare_memory_error_is_named(self, monkeypatch, capsys):
        def fail(spec, mc):
            raise MemoryError

        monkeypatch.setattr(pla.cli, "type_one_error", fail)
        assert main(SIMULATE_M8) == 3
        assert json.loads(capsys.readouterr().err) == {"code": 3, "message": "MemoryError()"}


class TestReproduceTable:
    def test_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        manifest = tmp_path / "run.json"
        code = main(
            ["reproduce-table", "--table", "I", "--M", "8", "--k", "1",
             "--N", "200", "--tau", "0.4", "--tau", "0.6", "--S", "3",
             "--seed", "1", "--out", str(out), "--manifest", str(manifest)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "M,k_or_kappa,N,tau,rate,ci_low,ci_high,S,numerical_failures"
        assert len(lines) == 3
        meta = json.loads(manifest.read_text())
        assert meta["rows"] == 2
        assert meta["master_seed"] == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--out", "--manifest"])
    def test_bad_output_path_fails_before_any_cell(self, flag, monkeypatch, capsys):
        def spy(*args, **kwargs):
            raise AssertionError("a grid cell ran before the output paths opened")

        monkeypatch.setattr(pla.simulate, "type_one_error", spy)
        code = main(
            ["reproduce-table", "--table", "I", "--M", "8", "--k", "1",
             "--N", "200", "--tau", "0.4", "--S", "1", flag, "/nonexistent/x"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == 3

    def test_one_file_for_rows_and_manifest_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        def spy(*args, **kwargs):
            raise AssertionError("a grid cell ran")

        monkeypatch.setattr(pla.simulate, "type_one_error", spy)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "same.txt"
        path.write_bytes(b"precious\n")
        code = main(
            ["reproduce-table", "--table", "I", "--M", "20", "--k", "1", "--N", "500",
             "--tau", "0.4", "--S", "4", "--out", "same.txt", "--manifest", str(path)]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"code": 2, "message": "--out and --manifest name the same file"}
        ]
        assert path.read_bytes() == b"precious\n"

    @pytest.mark.parametrize("flag", ["--out", "--manifest"])
    def test_invalid_grid_leaves_existing_file(self, flag, tmp_path, capsys):
        path = tmp_path / "existing"
        path.write_bytes(b"precious\n")
        code = main(
            ["reproduce-table", "--table", "I", "--M", "3", "--k", "2",
             "--N", "100", "--S", "5", flag, str(path)]
        )
        assert code == 2
        assert path.read_bytes() == b"precious\n"
        assert json.loads(capsys.readouterr().err)["code"] == 2

    def test_rows_are_written_as_cells_finish(self, monkeypatch, tmp_path, capsys):
        class Interrupted(Exception):
            pass

        finished = []

        def one_cell(spec, mc):
            if finished:
                raise Interrupted
            finished.append(spec)
            return ErrorEstimate(1, 1.0, (0.2, 1.0), numerical_failures=1)

        monkeypatch.setattr(pla.simulate, "type_one_error", one_cell)
        out = tmp_path / "rows.csv"
        with pytest.raises(Interrupted):
            main(
                ["reproduce-table", "--table", "I", "--M", "8", "--k", "1",
                 "--N", "200", "--tau", "0.4", "--tau", "0.6", "--S", "1",
                 "--out", str(out)]
            )
        assert out.read_text().splitlines() == [
            "M,k_or_kappa,N,tau,rate,ci_low,ci_high,S,numerical_failures",
            "8,1,200,0.4,1.0,0.2,1.0,1,1",
        ]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["warning"].startswith(
            "M=8 k_or_kappa=1 N=200 tau=0.4: 1 of 1 iterations failed numerically"
        )

    def test_the_csv_holds_every_field_of_a_row(self, capsys):
        mc = MonteCarloSpec(iterations=2, master_seed=3)
        want = list(reproduce_table("II", mc, m_values=[8], count_values=[2],
                                    n_values=[200], taus=[0.6, 0.8]))
        code = main(
            ["reproduce-table", "--table", "II", "--M", "8", "--k", "2", "--N", "200",
             "--tau", "0.6", "--tau", "0.8", "--S", "2", "--seed", "3"]
        )
        assert code == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert reader.fieldnames == list(pla.simulate.TABLE_COLUMNS) == list(want[0])
        assert list(reader) == [{k: str(v) for k, v in row.items()} for row in want]

    def test_stdout_default(self, capsys):
        code = main(
            ["reproduce-table", "--table", "II", "--M", "8", "--k", "2",
             "--N", "200", "--tau", "0.6", "--S", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("M,k_or_kappa,N,tau")


class TestProcessEntry:
    def test_an_in_process_call_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(SIMULATE_M8) == 0
        assert gc.get_freeze_count() == before
        capsys.readouterr()

    def test_a_call_that_reads_sys_argv_freezes_the_heap(self, monkeypatch, capsys):
        # how `pla` and `python -m pla.cli` call it
        monkeypatch.setattr(sys, "argv", ["pla", *SIMULATE_M8])
        before = gc.get_freeze_count()
        try:
            assert main() == 0
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()
        capsys.readouterr()


def test_import_starts_no_process_machinery():
    # pla forks by itself; importing a pool module would only cost start-up time.
    src = os.path.dirname(os.path.dirname(pla.__file__))
    probe = (
        "import sys, pla.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


EXIT_CODES = {
    ConfigError: 2,
    DataError: 3,
    ParseError: 3,
    DimensionError: 3,
    DegenerateColumnError: 3,
    InsufficientInputError: 3,
    ConsistencyError: 3,
    NumericalError: 4,
    SymmetryError: 4,
    ZeroTraceError: 4,
    FactorizationError: 4,
}


def error_classes(base):
    for cls in base.__subclasses__():
        yield cls
        yield from error_classes(cls)


def test_every_error_class_has_an_exit_code(monkeypatch, capsys):
    classes = set(error_classes(PlaError))
    assert classes == set(EXIT_CODES)
    argv = ["simulate", "--scenario", "single-vars", "--M", "8", "--k", "1",
            "--N", "200", "--tau", "0.4", "--S", "1"]
    for cls in classes:
        def fail(spec, mc):
            raise cls(f"planted {cls.__name__}")

        monkeypatch.setattr(pla.cli, "type_one_error", fail)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CODES[cls], cls
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"code": code, "message": f"planted {cls.__name__}"}
        ]


def test_public_names_are_unique_and_resolve():
    assert len(pla.__all__) == len(set(pla.__all__))
    assert all(hasattr(pla, name) for name in pla.__all__)
    assert {PlaError, *EXIT_CODES} <= {getattr(pla, name) for name in pla.__all__}

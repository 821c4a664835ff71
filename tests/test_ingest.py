import json
import os
import signal
from unittest import mock

import numpy as np
import pytest
from conftest import no_children_left, split_work
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pla.ingest
from pla import (
    ConfigError,
    DataMatrix,
    DimensionError,
    ParseError,
    correlation_from_covariance,
    load_csv,
    run_pla,
    sample_covariance,
    write_csv,
)
from pla.cli import main


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestLoadCsv:
    def test_header_and_shape(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n")
        data = load_csv(path)
        assert data.values.shape == (5, 3)
        assert data.variable_names == ("a", "b", "c")

    def test_generated_names_without_header(self, tmp_path):
        path = _write(tmp_path, "1,2\n3,4\n")
        data = load_csv(path, has_header=False)
        assert data.variable_names == ("X1", "X2")

    def test_na_drop_row(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n4,NA,6\n7,8,9\n1,1,1\n2,2,2\n")
        data = load_csv(path, na_policy="drop-row")
        assert data.values.shape[0] == 4

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_na_drop_row_drops_non_finite_rows(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b\n1,2\n{cell},3\n4,5\n6,{cell}\n7,9\n")
        data = load_csv(path, na_policy="drop-row")
        np.testing.assert_array_equal(data.values, [[1, 2], [4, 5], [7, 9]])

    def test_non_finite_cell_fails_by_default(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\nnan,3\n4,5\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
    def test_a_split_body_with_a_non_finite_cell(self, tmp_path, cell):
        # drop-row drops the row from the split parse; fail has the row reader cite its line
        path = _write(tmp_path, f"a,b\n1,2\n3,4\n5,{cell}\n7,8\n9,1\n")
        with split_work(), mock.patch.object(
            pla.ingest, "_read_rows", wraps=pla.ingest._read_rows
        ) as read_rows:
            data = load_csv(path, na_policy="drop-row")
            assert read_rows.call_count == 0
            with pytest.raises(ParseError) as info:
                load_csv(path)
            assert read_rows.call_count == 1
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4], [7, 8], [9, 1]])
        assert str(info.value) == f"{path}:4: non-finite cell under na_policy=fail"

    def test_error_cites_physical_line_after_blank_lines(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n\n\n3,x\n4,5\n")
        with pytest.raises(ParseError, match=r"data\.csv:5: non-numeric"):
            load_csv(path)
        path = _write(tmp_path, "a,b\n\n1,2\n3\n", name="ragged.csv")
        with pytest.raises(ParseError, match=r"ragged\.csv:4: expected 2 cells"):
            load_csv(path)
        path = _write(tmp_path, "\n1,2\n\n3,x\n", name="bare.csv")
        with pytest.raises(ParseError, match=r"bare\.csv:4: non-numeric"):
            load_csv(path, has_header=False)

    def test_na_fail(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\nNA,4\n5,6\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = _write(tmp_path, "a\n1\n2\n3\n")
        with pytest.raises(DimensionError):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_custom_delimiter(self, tmp_path):
        path = _write(tmp_path, "a;b\n1;2\n3;4\n")
        data = load_csv(path, delimiter=";")
        assert data.variable_names == ("a", "b")
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4]])

    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        data = DataMatrix(rng.standard_normal((7, 3)), ("u", "v", "w"))
        path = tmp_path / "out.csv"
        write_csv(data, path)
        again = load_csv(path)
        assert again.variable_names == data.variable_names
        np.testing.assert_array_equal(again.values, data.values)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", ".", "e", "-"])
    def test_write_csv_writes_each_float_as_its_repr(self, tmp_path, delimiter):
        values = [[1e-8, 1e16, 1e-5], [-0.0, 1.2345678901234568e+17, 5e-324], [0.1, -2.5, 1e8]]
        path = tmp_path / "out.csv"
        write_csv(DataMatrix(np.array(values), ("u", "v", "w")), path, delimiter=delimiter)
        cells = [[repr(v) for v in row] for row in values]
        quoted = [[f'"{c}"' if delimiter in c else c for c in row] for row in cells]
        lines = [delimiter.join(["u", "v", "w"])] + [delimiter.join(row) for row in quoted]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize(
        "text, has_header, error, message",
        [
            ("", True, ParseError, "empty file"),
            ("\n\n", False, ParseError, "empty file"),
            ("a,b\n", True, DimensionError, "need at least 2 usable rows, got 0"),
            ("a,b\n\n\r\n\n", True, DimensionError, "need at least 2 usable rows, got 0"),
            ("a,b\n1,2\n", True, DimensionError, "need at least 2 usable rows, got 1"),
            ("1,2\n", False, DimensionError, "need at least 2 usable rows, got 1"),
        ],
    )
    def test_too_little_data_names_the_fault(
        self, tmp_path, text, has_header, error, message
    ):
        path = _write(tmp_path, text)
        with pytest.raises(error) as info:
            load_csv(path, has_header=has_header)
        assert type(info.value) is error
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,c\n1,2\n3,4\n", "2: expected 3 cells, got 2"),
            ("a,b\n1,2\n#3,4\n5,6\n", "3: non-numeric cell under na_policy=fail"),
        ],
    )
    def test_cells_numpy_would_misread_are_errors(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:{message}"

    def test_quoted_and_underscored_cells_read_as_float_reads_them(self, tmp_path):
        path = _write(tmp_path, 'a,b\n"3",1_0\n\uff14,5\n')
        np.testing.assert_array_equal(load_csv(path).values, [[3, 10], [4, 5]])

    @pytest.mark.parametrize("has_header", [True, False])
    def test_clean_body_is_parsed_without_the_row_reader(self, tmp_path, has_header):
        text = ("a;b\r\n" if has_header else "") + " 1 ;2.5\r\n\r\n-3e2; .5 \r\n"
        path = _write(tmp_path, text)
        with mock.patch.object(pla.ingest, "_read_rows", side_effect=AssertionError):
            data = load_csv(path, delimiter=";", has_header=has_header)
        np.testing.assert_array_equal(data.values, [[1.0, 2.5], [-300.0, 0.5]])
        assert data.variable_names == (("a", "b") if has_header else ("X1", "X2"))


class TestByteOrderMark:
    # Excel and other Windows tools start UTF-8 files with U+FEFF.
    def test_header_names_are_clean(self, tmp_path):
        path = _write(tmp_path, "\ufeffa,b\n1,2\n3,5\n")
        assert load_csv(path).variable_names == ("a", "b")

    def test_first_cell_without_header_is_numeric(self, tmp_path):
        path = _write(tmp_path, "\ufeff1,2\n3,5\n")
        np.testing.assert_array_equal(load_csv(path, has_header=False).values,
                                      [[1, 2], [3, 5]])

    def test_drop_row_keeps_the_first_observation(self, tmp_path):
        path = _write(tmp_path, "\ufeff1,2\n3,5\n4,x\n6,7\n8,9\n")
        data = load_csv(path, has_header=False, na_policy="drop-row")
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 5], [6, 7], [8, 9]])


NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: "%.17g" % x),
    st.integers(-(10**20), 10**20).map(str),
)
PADDING = st.sampled_from(["", " ", "  ", "\t"])
ODD_CELLS = st.sampled_from(
    ["nan", "-inf", "Infinity", "1.", ".5", "1e500", "-1e-400", "1_0", '"1"',
     '"1,5"', "NA", "x", "#1", "", " ", "\uff11", "0x10", "\xa02"]
)


@st.composite
def csv_texts(draw):
    """Numeric CSV text with up to three of the faults a real file may have."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", " "]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    width = draw(st.integers(1, 4))
    cell = st.one_of(NUMBERS, st.tuples(PADDING, NUMBERS, PADDING).map("".join))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=6))
    lines = [delimiter.join(row) for row in rows]
    for fault in draw(st.lists(st.sampled_from(["cell", "line", "trailing"]), max_size=3)):
        if fault == "cell" and rows:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i][draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
            lines[i] = delimiter.join(rows[i])
        elif fault == "line":
            stray = ["", " ", "1", "1" + delimiter, delimiter.join("1" * (width + 1))]
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(stray)))
        elif lines:
            lines[-1] += delimiter
    if draw(st.booleans()):
        header_width = draw(st.sampled_from([width, width, width + 1, 1]))
        lines.insert(0, delimiter.join(f"v{i}" for i in range(header_width)))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return delimiter, draw(st.sampled_from(["", "\ufeff"])) + text


def _outcome(path, **kwargs):
    try:
        data = load_csv(path, **kwargs)
    except Exception as exc:  # the outcome under test, whatever it is
        return type(exc), str(exc)
    return data.variable_names, data.values.shape, data.values.tobytes()


def _matches_the_row_reader(path, case, has_header, na_policy):
    delimiter, text = case
    path.write_bytes(text.encode("utf-8"))
    kwargs = dict(delimiter=delimiter, has_header=has_header, na_policy=na_policy)
    got = _outcome(path, **kwargs)
    with mock.patch.object(pla.ingest, "_load_body", return_value=None):
        want = _outcome(path, **kwargs)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(csv_texts(), st.booleans(), st.sampled_from(["fail", "drop-row"]))
def test_load_csv_matches_the_row_reader(tmp_path_factory, case, has_header, na_policy):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    _matches_the_row_reader(path, case, has_header, na_policy)


@settings(max_examples=200, deadline=None)
@given(csv_texts(), st.booleans(), st.sampled_from(["fail", "drop-row"]))
# spans "1,2", "3,4", "5,6": the first span is the row right after the header
@example((",", "a,b\n1,2\n3,4\n5,6\n"), True, "fail")
@example((",", "a,b\r\n1,2\r\n3,4\r\n5,6\r\n"), True, "fail")
@example((",", "a,b\r1,2\r3,4\r5,6\r"), True, "fail")  # bare CR line ends
@example((",", "a,b\n\n\n\n\n1,2\n3,4\n"), True, "fail")  # a span of blank lines
@example((",", "\ufeffa,b\n1,2\n3,4\n5,6\n"), True, "fail")
@example((",", "\ufeff1,2\n3,4\n5,6\n"), False, "fail")
@example((",", "1,2\n3,4\n5,6,7\n"), False, "fail")  # spans of different widths
@example((",", "a,b\n1,2\nx,4\n5,6\n"), True, "drop-row")
@example((",", "a,b\n1,2\nx,4\n5,6\n"), True, "fail")
@example((",", 'a,"b\n"\n1,2\n3,4\n'), True, "fail")  # a header record of two lines
@example((",", '"a","b"\n1,2\n3,4\n'), True, "fail")
def test_split_load_csv_matches_the_row_reader(
    tmp_path_factory, case, has_header, na_policy
):
    path = tmp_path_factory.getbasetemp() / "split.csv"
    with split_work():
        _matches_the_row_reader(path, case, has_header, na_policy)
    no_children_left()


class TestSplitBody:
    TEXT = "a,b\n1,2\n3,4\n5,6\n"

    def test_a_line_belongs_to_the_span_its_first_byte_is_in(self, tmp_path):
        # the body from byte 4: "1,2\n" at 4, "3,4\r\n" at 8, "55,66\n" at 13, a long line at 19
        rows = [[1, 2], [3, 4], [55, 66], [777777, 888888]]
        path = _write(tmp_path, "a,b\n1,2\n3,4\r\n55,66\n777777,888888\n")

        def span(lo, hi):
            return pla.ingest._parse_span(path, ",", 4, lo, hi).tolist()

        assert span(4, 6) == rows[:1]  # a cut inside a line
        assert span(6, 13) == rows[1:2]  # from a cut inside a line to one at a line start
        assert span(8, 12) == rows[1:2]  # a cut between CR and LF
        assert span(12, 19) == rows[2:3]  # the CRLF line began in the span before
        assert span(22, 28) == []  # a span inside one long line parses nothing
        for cut in range(5, 33):  # two spans hold every row once, wherever the cut
            assert span(4, cut) + span(cut, 33) == rows

    @pytest.mark.parametrize("fork_patch", [dict(wraps=os.fork), dict(side_effect=BlockingIOError)],
                             ids=["forked", "refused"])
    def test_clean_body_is_parsed_span_by_span(self, tmp_path, fork_patch):
        path = _write(tmp_path, self.TEXT)
        with split_work(), mock.patch.object(os, "fork", **fork_patch) as fork, \
                mock.patch.object(pla.ingest, "_read_rows", side_effect=AssertionError):
            data = load_csv(path)
        assert fork.call_count == 2
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4], [5, 6]])
        assert data.variable_names == ("a", "b")

    def test_a_quoted_two_line_header_is_read_without_the_row_reader(self, tmp_path):
        path = _write(tmp_path, '"a, x","b\r\n c "\r\n' + self.TEXT[4:])
        with split_work(), mock.patch.object(
            pla.ingest, "_read_rows", wraps=pla.ingest._read_rows
        ) as read_rows:
            data = load_csv(path)
        assert read_rows.call_count == 0
        assert data.variable_names == ("a, x", "b\r\n c")
        assert data.variable_names == pla.ingest._read_rows(path, ",", True)[0]
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4], [5, 6]])

    def test_a_failing_child_leaves_the_error_to_the_row_reader(
        self, tmp_path, monkeypatch
    ):
        parent, parse_span = os.getpid(), pla.ingest._parse_span

        def crash_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("planted")
            return parse_span(*args)

        monkeypatch.setattr(pla.ingest, "_parse_span", crash_in_child)
        path = _write(tmp_path, self.TEXT.replace("5,6", "5,x"))
        with split_work(), pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:4: non-numeric cell under na_policy=fail"
        # a clean span whose child failed is parsed again here, not row by row
        path = _write(tmp_path, self.TEXT, name="clean.csv")
        with split_work(), mock.patch.object(
            pla.ingest, "_read_rows", wraps=pla.ingest._read_rows
        ) as read_rows:
            data = load_csv(path)
        assert read_rows.call_count == 0
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4], [5, 6]])

    def test_a_refused_span_sends_the_file_to_the_row_reader_at_once(self, tmp_path, monkeypatch):
        calls, parse_span = tmp_path / "calls.txt", pla.ingest._parse_span

        def logged(path, delimiter, start, lo, hi):  # one line per call, from any process
            with open(calls, "a") as fh:
                fh.write(f"{lo}\n")
            return parse_span(path, delimiter, start, lo, hi)

        monkeypatch.setattr(pla.ingest, "_parse_span", logged)
        path = _write(tmp_path, self.TEXT.replace("5,6", "5,NA"))
        # the 13-byte body is cut at byte 10: "1,2\n3,4\n" is parsed here, and "5,NA\n",
        # which begins at byte 12, in a child
        with split_work(2), mock.patch.object(
            pla.ingest, "_read_rows", wraps=pla.ingest._read_rows
        ) as read_rows:
            data = load_csv(path, na_policy="drop-row")
        assert sorted(map(int, calls.read_text().split())) == [4, 10]
        assert read_rows.call_count == 1
        np.testing.assert_array_equal(data.values, [[1, 2], [3, 4]])

    # 30000 rows: each child's reply, about 160 kB, outgrows a pipe's 64 KiB buffer
    @pytest.mark.parametrize("cpus, bad", [(2, 0), (3, 10_010)])
    def test_a_parent_that_stops_reading_breaks_the_childs_pipe(self, tmp_path, cpus, bad):
        # bad row 0 fails the parent's own span; row 10010 fails the first child's
        rows = [f"{i}.123456789,{i}.987654321\n" for i in range(30_000)]
        rows[bad] = "1,x\n"
        path = _write(tmp_path, "a,b\n" + "".join(rows))
        fork, pids, hung = os.fork, [], []

        def recorded_fork():
            pids.append(fork())
            return pids[-1]

        def kill_children(*_):  # else a child blocked on a full pipe hangs waitpid
            hung.append(True)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill_children)
        signal.alarm(30)
        try:
            with split_work(cpus), mock.patch.object(os, "fork", recorded_fork), \
                    pytest.raises(ParseError) as info:
                load_csv(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not hung
        assert str(info.value) == f"{path}:{bad + 2}: non-numeric cell under na_policy=fail"


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r"], ["\n", "\r", "\r\n"]])
def test_every_line_end_takes_the_fast_path(tmp_path, ends, cpus):
    lines = ["", "a,b", "1,2", "", "3.5,-4", "5,6e3", "", "", "7,8", "9,1"]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    path = _write(tmp_path, text)
    with mock.patch.object(pla.ingest, "_load_body", return_value=None):
        want = _outcome(path)
    with split_work(cpus), mock.patch.object(pla.ingest, "_read_rows", side_effect=AssertionError):
        assert _outcome(path) == want
    assert want[1] == (5, 2)


@pytest.mark.parametrize("delimiter", ["\n", "\r"])
def test_newline_delimiter_matches_the_row_reader(tmp_path, delimiter):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n")
    got = _outcome(path, delimiter=delimiter)
    with mock.patch.object(pla.ingest, "_load_body", return_value=None):
        assert got == _outcome(path, delimiter=delimiter)


@pytest.mark.parametrize(
    "source", ["split", "one span", "row reader", "DataMatrix", "covariance", "cli"]
)
def test_unnamed_variables_are_x1_to_xm(tmp_path, capsys, source):
    rows = "1,2,4\n3,5,7\n6,1,2\n2,8,1\n"
    path = _write(tmp_path, rows.replace("1", '"1"', 1) if source == "row reader" else rows)
    if source == "cli":
        assert main(["analyze", "--input", str(path), "--no-header"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = tuple(sorted([*report["residual"], *(v for b in report["blocks"]
                                                       for v in b["variables"])]))
    elif source in ("DataMatrix", "covariance"):
        data = DataMatrix(np.loadtxt(path, delimiter=","))
        names = (data if source == "DataMatrix" else run_pla(sample_covariance(data))
                 ).variable_names
    else:  # the row reader takes over where numpy refuses the quoted cell
        with split_work(3 if source == "split" else 1):
            names = load_csv(path, has_header=False).variable_names
    assert names == ("X1", "X2", "X3")


class TestDataMatrixInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ParseError):
            DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.array([[1.0, 2.0]]))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ParseError, match="^duplicate variable names: a$"):
            DataMatrix(np.eye(3), ("a", "a", "b"))

    @pytest.mark.parametrize("values, names, message", [
        (np.arange(3.0), (), "expected a 2-d array, got ndim=1"),
        (np.ones((3, 1)), (), "need at least 2 variables, got 1"),
        (np.eye(2), ("a",), "1 variable names for 2 columns"),
    ], ids=["1-d", "one column", "names"])
    def test_rejects_a_shape_it_cannot_hold(self, values, names, message):
        with pytest.raises(DimensionError) as info:
            DataMatrix(values, names)
        assert str(info.value) == message


def test_an_unknown_na_policy_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_csv(_write(tmp_path, "a,b\n1,2\n3,4\n"), na_policy="skip")
    assert str(info.value) == "unknown na_policy 'skip'"


@pytest.mark.parametrize("body", ["split", "row reader"])
def test_duplicate_header_names_are_named_with_the_file(tmp_path, body):
    path = _write(tmp_path, "a,b,a,c,b\n1,2,3,4,5\n2,1,4,3,3\n5,5,1,1,2\n")
    load_body = pla.ingest._load_body if body == "split" else lambda *args: None
    with split_work(), mock.patch.object(pla.ingest, "_load_body", load_body), \
            pytest.raises(ParseError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: duplicate variable names: a, b"


class TestStandardize:
    def test_correlation_equals_covariance_of_standardized(self):
        rng = np.random.default_rng(13)
        data = DataMatrix(rng.normal(size=(200, 5)) * [1, 10, 0.1, 5, 2])
        corr = correlation_from_covariance(sample_covariance(data).entries)
        values = data.values
        standardized = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
        cov_std = sample_covariance(DataMatrix(standardized))
        np.testing.assert_allclose(corr.entries, cov_std.entries, atol=1e-10)

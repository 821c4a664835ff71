import numpy as np
import pytest

from pla import (
    DataMatrix,
    DegenerateColumnError,
    DimensionError,
    ParseError,
    load_csv,
    sample_correlation,
    sample_covariance,
    standardize_columns,
    write_csv,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_header_and_shape(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n")
        data = load_csv(path)
        assert data.n_rows == 5
        assert data.n_cols == 3
        assert data.variable_names == ("a", "b", "c")

    def test_generated_names_without_header(self, tmp_path):
        path = _write(tmp_path, "1,2\n3,4\n")
        data = load_csv(path, has_header=False)
        assert data.variable_names == ("X1", "X2")

    def test_na_drop_row(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n4,NA,6\n7,8,9\n1,1,1\n2,2,2\n")
        data = load_csv(path, na_policy="drop-row")
        assert data.n_rows == 4

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_na_drop_row_drops_non_finite_rows(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b\n1,2\n{cell},3\n4,5\n6,{cell}\n7,9\n")
        data = load_csv(path, na_policy="drop-row")
        np.testing.assert_array_equal(data.values, [[1, 2], [4, 5], [7, 9]])

    def test_non_finite_cell_fails_by_default(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\nnan,3\n4,5\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_csv(path)

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


class TestDataMatrixInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ParseError):
            DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.array([[1.0, 2.0]]))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ParseError):
            DataMatrix(np.eye(3), ("a", "a", "b"))


class TestStandardize:
    def test_simple_column(self):
        data = DataMatrix(np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 5.0]]))
        out = standardize_columns(data)
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-14)

    def test_constant_column_named_in_error(self):
        data = DataMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ("c", "d"))
        with pytest.raises(DegenerateColumnError, match="c"):
            standardize_columns(data)

    def test_moments_after_transform(self):
        # independent oracle: recompute sample moments on the output
        rng = np.random.default_rng(11)
        data = DataMatrix(rng.normal(3.0, 7.0, size=(100, 4)))
        out = standardize_columns(data)
        assert np.abs(out.values.mean(axis=0)).max() < 1e-12
        assert np.abs(out.values.var(axis=0, ddof=1) - 1.0).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        data = DataMatrix(rng.standard_normal((50, 3)))
        once = standardize_columns(data)
        twice = standardize_columns(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_correlation_equals_covariance_of_standardized(self):
        rng = np.random.default_rng(13)
        data = DataMatrix(rng.normal(size=(200, 5)) * [1, 10, 0.1, 5, 2])
        corr = sample_correlation(data)
        cov_std = sample_covariance(standardize_columns(data))
        np.testing.assert_allclose(corr.entries, cov_std.entries, atol=1e-10)

"""Loading and validation of rectangular numeric datasets."""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, ParseError

__all__ = ["DataMatrix", "load_csv", "write_csv"]


@dataclass(frozen=True)
class DataMatrix:
    """N observations of M named variables, all entries finite."""

    values: np.ndarray
    variable_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got ndim={values.ndim}")
        n, m = values.shape
        if n < 2:
            raise DimensionError(f"need at least 2 observations, got {n}")
        if m < 2:
            raise DimensionError(f"need at least 2 variables, got {m}")
        if not np.all(np.isfinite(values)):
            raise ParseError("data contains non-finite entries")
        names = self.variable_names or tuple(f"X{i + 1}" for i in range(m))
        if len(names) != m:
            raise DimensionError(
                f"{len(names)} variable names for {m} columns"
            )
        if len(set(names)) != len(names):
            raise ParseError("variable names are not unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", tuple(str(s) for s in names))


def load_csv(
    path,
    delimiter: str = ",",
    has_header: bool = True,
    na_policy: str = "fail",
) -> DataMatrix:
    """Read a rectangular numeric CSV into a DataMatrix.

    With ``na_policy="drop-row"`` any row containing a cell that does not
    parse as a number, or parses as nan or inf, is removed; with ``"fail"``
    such a cell raises ParseError.  Errors cite physical line numbers, blank
    lines included.  The file is read as UTF-8; a leading byte-order mark is
    skipped.

    Two readers give the same result.  The header, if any, is the first
    non-blank record of ``csv.reader``; the body below it is parsed by one
    ``np.loadtxt`` call, which converts each cell as ``float`` does.  When
    that call fails, or its result is empty or does not match the header's
    width, the row-by-row reader ``_read_rows`` reads the whole file again:
    it alone reports errors with line numbers and drops non-numeric rows
    under ``drop-row``.  Non-finite rows are dropped after either reader.
    """
    if na_policy not in ("fail", "drop-row"):
        raise ConfigError(f"unknown na_policy {na_policy!r}")
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    names, values = _load_body(path, delimiter, has_header) or _read_rows(
        path, delimiter, has_header, na_policy
    )
    width = len(names)
    if width < 2:
        raise DimensionError(f"{path}: need at least 2 columns, got {width}")
    if na_policy == "drop-row":
        values = values[np.isfinite(values).all(axis=1)]
    if len(values) < 2:
        raise DimensionError(f"{path}: need at least 2 usable rows, got {len(values)}")
    return DataMatrix(values, names)


def _load_body(path: Path, delimiter: str, has_header: bool):
    """Names and values with the body parsed by ``np.loadtxt``, else None."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            names = None
            if has_header:
                records = csv.reader(fh, delimiter=delimiter)
                first = next((row for row in records if row), None)
                if first is None:
                    return None
                names = tuple(cell.strip() for cell in first)
            with warnings.catch_warnings():
                # a body without rows goes to _read_rows, which names the fault
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                values = np.loadtxt(fh, delimiter=delimiter, comments=None, ndmin=2)
    except (ValueError, TypeError):  # TypeError: numpy refuses "\n" or "\r"
        return None
    if names is None:
        names = tuple(f"X{i + 1}" for i in range(values.shape[1]))
    if len(values) == 0 or values.shape[1] != len(names):
        return None
    return names, values


def _read_rows(path, delimiter: str, has_header: bool, na_policy: str):
    """Names and values read row by row with ``csv.reader`` and ``float``.

    The reference reader, and the CLI's matrix-file reader: it raises every
    ParseError of ``load_csv``, each citing the physical line, and under
    ``drop-row`` skips rows with a non-numeric cell.
    """
    parsed: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = ((reader.line_num, row) for row in reader if row)
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: empty file")
        if has_header:
            names = tuple(cell.strip() for cell in first[1])
        else:
            names = tuple(f"X{i + 1}" for i in range(len(first[1])))
            rows = itertools.chain([first], rows)
        width = len(names)

        for lineno, row in rows:
            if len(row) != width:
                raise ParseError(
                    f"{path}:{lineno}: expected {width} cells, got {len(row)}"
                )
            try:
                parsed.append([float(cell) for cell in row])
            except ValueError:
                if na_policy == "fail":
                    raise ParseError(
                        f"{path}:{lineno}: non-numeric cell under na_policy=fail"
                    ) from None
                # drop-row: skip this observation
    return names, np.array(parsed, dtype=float).reshape(-1, width)


def write_csv(data: DataMatrix, path, delimiter: str = ",") -> None:
    """Write a DataMatrix back to CSV with a header row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(data.variable_names)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


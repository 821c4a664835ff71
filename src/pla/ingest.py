"""Loading, validation, and standardization of rectangular numeric datasets."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateColumnError, DimensionError, ParseError

__all__ = ["DataMatrix", "load_csv", "write_csv", "standardize_columns"]


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

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


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
    lines included.
    """
    if na_policy not in ("fail", "drop-row"):
        raise ConfigError(f"unknown na_policy {na_policy!r}")
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    parsed: list[list[float]] = []
    with path.open(newline="", encoding="utf-8") as fh:
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
    if width < 2:
        raise DimensionError(f"{path}: need at least 2 columns, got {width}")
    values = np.array(parsed, dtype=float).reshape(-1, width)
    if na_policy == "drop-row":
        values = values[np.isfinite(values).all(axis=1)]
    if len(values) < 2:
        raise DimensionError(f"{path}: need at least 2 usable rows, got {len(values)}")
    return DataMatrix(values, names)


def write_csv(data: DataMatrix, path, delimiter: str = ",") -> None:
    """Write a DataMatrix back to CSV with a header row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(data.variable_names)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def standardize_columns(data: DataMatrix) -> DataMatrix:
    """Center each column to mean 0 and scale to unit sample variance (N-1)."""
    sd = data.values.std(axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise DegenerateColumnError(
            f"constant column(s): {', '.join(data.variable_names[i] for i in zero)}"
        )
    centered = data.values - data.values.mean(axis=0)
    return DataMatrix(centered / sd, data.variable_names)

"""Loading and validation of rectangular numeric datasets."""

from __future__ import annotations

import csv
import itertools
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fork import even_cuts, fork_map
from .errors import ConfigError, DimensionError, ParseError

__all__ = ["DataMatrix", "load_csv", "write_csv"]

_SPAN_FLOOR = 1 << 20  # bytes; a smaller span saves less than a fork and a pipe cost
NA_POLICIES = ("fail", "drop-row")


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

    The header is the first non-blank line, split by ``csv.reader``.  The
    body is cut at line ends into spans of at least 1 MiB, one per usable
    CPU.  ``np.loadtxt`` parses the first span here and each other in a
    forked child (``_fork.fork_map``) that pipes its rows back; a span
    whose child failed is parsed again here.  If a span cannot be parsed or
    the widths differ, ``_read_rows`` reads the file again: it alone cites
    lines in errors and drops non-numeric rows under ``drop-row``.  Rows
    that are not finite are dropped after either reader.
    """
    if na_policy not in NA_POLICIES:
        raise ConfigError(f"unknown na_policy {na_policy!r}")
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    names, values = (_load_body(path, delimiter, has_header)
                     or _read_rows(path, delimiter, has_header, na_policy))
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
        with path.open("rb") as fh:
            fh.seek(3 if fh.read(3) == b"\xef\xbb\xbf" else 0)  # skip a byte-order mark
            names = None
            if has_header:
                body = fh.tell()
                for line in (piece for raw in fh for piece in raw.splitlines(keepends=True)):
                    body += len(line)
                    if line.strip(b"\r\n"):  # the first line that is not blank
                        break
                else:
                    return None
                cells = next(csv.reader([line.decode()], delimiter=delimiter))
                if {"\r", "\n"} & set("".join(cells)):  # a quote left open carries on
                    return None
                names = tuple(map(str.strip, cells))
                fh.seek(body)
            cuts = _cuts(fh)
        parts = fork_map(lambda span: _parse_span(path, delimiter, *span),
                         list(zip(cuts, cuts[1:])))
    except (OSError, ValueError, TypeError):  # TypeError: numpy refuses "\n" or "\r"
        return None
    parts = [part for part in parts if len(part)]
    widths = {part.shape[1] for part in parts} | ({len(names)} if names else set())
    if not parts or len(widths) != 1:
        return None
    names = names or tuple(f"X{i + 1}" for i in range(widths.pop()))
    return names, parts[0] if len(parts) == 1 else np.concatenate(parts)


def _cuts(fh) -> list[int]:
    """Offsets cutting the body, from ``fh``'s position on, just after newlines."""
    start, size = fh.tell(), fh.seek(0, os.SEEK_END)
    cuts = [start]
    for even in even_cuts(size - start, _SPAN_FLOOR)[1:-1]:
        fh.seek(start + even - 1)
        cut = fh.tell() + len(fh.readline())
        if cuts[-1] < cut < size:  # else one line, or a body without LF, holds two cuts
            cuts.append(cut)
    return cuts + [size]


def _parse_span(path: Path, delimiter: str, lo: int, hi: int) -> np.ndarray:
    """The lines from byte ``lo`` to byte ``hi`` parsed by one ``np.loadtxt``."""
    with path.open("rb") as fh, warnings.catch_warnings():
        # a body without rows goes to _read_rows, which names the fault
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        fh.seek(lo)
        raw = itertools.takewhile(lambda _: fh.tell() <= hi, fh)  # split at LF only
        # a lone CR ends a line too, as it does for csv.reader
        lines = (line.decode() for chunk in raw for line in chunk.splitlines())
        return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)


def _read_rows(path, delimiter: str, has_header: bool, na_policy: str | None = None):
    """Names and values read row by row with ``csv.reader`` and ``float``.

    Every ParseError of ``load_csv`` comes from here, citing the physical
    line; with ``na_policy`` None, for matrix files, errors name no option.
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
                if na_policy != "drop-row":
                    tail = f" under na_policy={na_policy}" if na_policy else ""
                    raise ParseError(f"{path}:{lineno}: non-numeric cell{tail}") from None
                # drop-row: skip this observation
    return names, np.array(parsed, dtype=float).reshape(-1, width)


def write_csv(data: DataMatrix, path, delimiter: str = ",") -> None:
    """Write a DataMatrix back to CSV with a header row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(data.variable_names)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


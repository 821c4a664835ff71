"""Loading and validation of rectangular numeric datasets."""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fork import even_cuts, fork_map
from .errors import ConfigError, DimensionError, ParseError

__all__ = ["DataMatrix", "load_csv", "write_csv"]

_SPAN_FLOOR = 1 << 20  # bytes; a smaller span saves less than a fork and a pipe cost
NA_POLICIES = ("fail", "drop-row")


@dataclass(frozen=True, eq=False)
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
        names = self.variable_names or _default_names(m)
        if len(names) != m:
            raise DimensionError(f"{len(names)} variable names for {m} columns")
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise ParseError(f"duplicate variable names: {', '.join(map(str, repeated))}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", tuple(str(s) for s in names))


def _default_names(m: int) -> tuple[str, ...]:
    """The names of M unnamed variables: X1 to XM."""
    return tuple(f"X{i + 1}" for i in range(m))


def load_csv(
    path,
    delimiter: str = ",",
    has_header: bool = True,
    na_policy: str = "fail",
) -> DataMatrix:
    """Read a rectangular numeric CSV into a DataMatrix.

    A bad cell does not parse as a number, or parses as nan or inf (``1e999``
    included): ``na_policy="drop-row"`` removes its row, ``"fail"`` raises
    ParseError.  Errors cite physical line numbers, blank lines included, and
    repeated header names are named.  The file is read as UTF-8; a leading
    byte-order mark is skipped.

    The header is the first non-empty ``csv.reader`` record, on one line or
    more.  The body is cut into even spans of at least 1 MiB, one per usable
    CPU; a span holds the LF-ended lines that begin in it.  ``np.loadtxt``
    parses the first span here and each other in a forked child
    (``_fork.fork_map``) that pipes back its rows, or None where numpy refuses
    the span; a span whose child died is parsed again here.  If numpy refuses
    a span or the widths differ, ``_read_rows`` reads the file at once, and no
    span is parsed again: it alone cites lines in errors, raises ParseError
    for a field over ``csv``'s limit of 131072 characters, and drops rows with
    a bad cell under ``drop-row``.  The split parse keeps nan and inf: their
    rows are dropped under ``drop-row``, and under ``fail`` the row reader
    then reads the file to cite the line, so a clean body is read once.
    Without a header ``DataMatrix`` names the variables X1 to XM.
    """
    if na_policy not in NA_POLICIES:
        raise ConfigError(f"unknown na_policy {na_policy!r}")
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    names, values = (_load_body(path, delimiter, has_header)
                     or _read_rows(path, delimiter, has_header, na_policy))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():  # only a split parse keeps a nan or inf cell
        if na_policy == "fail":  # the row reader raises, citing its line
            _read_rows(path, delimiter, has_header, na_policy)
        values = values[finite]
    width = values.shape[1]
    if width < 2:
        raise DimensionError(f"{path}: need at least 2 columns, got {width}")
    if len(values) < 2:
        raise DimensionError(f"{path}: need at least 2 usable rows, got {len(values)}")
    try:
        return DataMatrix(values, names)
    except ParseError as exc:  # repeated names
        raise ParseError(f"{path}: {exc}") from None


def _load_body(path: Path, delimiter: str, has_header: bool):
    """Names, () without a header, and values parsed by ``np.loadtxt``, else None."""
    try:
        with path.open("rb") as raw:
            start = 3 if raw.read(3) == b"\xef\xbb\xbf" else 0  # skip a byte-order mark
            raw.seek(start)
            names = ()
            if has_header:  # the first non-empty record, as _read_rows reads it
                seen = []  # the lines the reader took, to find where the body starts
                text = io.TextIOWrapper(raw, encoding="utf-8", newline="")
                lines = (seen.append(line) or line for line in text)
                cells = next(filter(None, csv.reader(lines, delimiter=delimiter)), ())
                names = tuple(map(str.strip, cells))  # () if none: the body is then empty too
                start += len("".join(seen).encode())
        cuts = [start + cut for cut in even_cuts(path.stat().st_size - start, _SPAN_FLOOR)]
        parts = fork_map(lambda span: _parse_span(path, delimiter, start, *span),
                         list(zip(cuts, cuts[1:])))
    except (OSError, ValueError, csv.Error):  # ValueError: UnicodeDecodeError too
        return None
    if any(part is None for part in parts):
        return None
    parts = [part for part in parts if len(part)]
    widths = {part.shape[1] for part in parts} | ({len(names)} if names else set())
    if not parts or len(widths) != 1:
        return None
    return names, parts[0] if len(parts) == 1 else np.concatenate(parts)


def _parse_span(path: Path, delimiter: str, start: int, lo: int, hi: int) -> np.ndarray | None:
    """The body lines that begin in bytes ``[lo, hi)``, parsed by one ``np.loadtxt``, or None."""
    with path.open("rb") as fh, warnings.catch_warnings():
        # a body without rows goes to _read_rows, which names the fault
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        fh.seek(lo - 1 if lo > start else lo)
        if lo > start:  # the LF-ended line holding byte lo - 1 began in an earlier span
            fh.readline()
        raw = itertools.takewhile(lambda line: fh.tell() - len(line) < hi, fh)
        # a lone CR ends a line too, as it does for csv.reader
        lines = (line.decode() for chunk in raw for line in chunk.splitlines())
        try:
            return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
        except (ValueError, TypeError):  # TypeError: numpy refuses "\n" or "\r"
            return None


def _read_rows(path, delimiter: str, has_header: bool, na_policy: str | None = None):
    """Names, () without a header, and values read by ``csv.reader`` and ``float``.

    Every ParseError of ``load_csv`` but that for repeated names comes from
    here, citing the physical line of a ragged row or a bad cell: non-numeric,
    nan or inf.  With ``na_policy`` None, for matrix files, errors name no option.
    """
    parsed: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            rows = ((reader.line_num, row) for row in reader if row)
            first = next(rows, None)
            if first is None:
                raise ParseError(f"{path}: empty file")
            if has_header:
                names = tuple(cell.strip() for cell in first[1])
            else:
                names = ()
                rows = itertools.chain([first], rows)
            width = len(first[1])

            for lineno, row in rows:
                if len(row) != width:
                    raise ParseError(
                        f"{path}:{lineno}: expected {width} cells, got {len(row)}"
                    )
                try:
                    cells = [float(cell) for cell in row]
                    fault = None if all(map(math.isfinite, cells)) else "non-finite"
                except ValueError:
                    fault = "non-numeric"
                if fault is None:
                    parsed.append(cells)
                elif na_policy != "drop-row":  # drop-row skips this observation
                    tail = f" under na_policy={na_policy}" if na_policy else ""
                    raise ParseError(f"{path}:{lineno}: {fault} cell{tail}")
        except csv.Error as exc:  # a field over csv's size limit, say
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return names, np.array(parsed, dtype=float).reshape(-1, width)


def write_csv(data: DataMatrix, path, delimiter: str = ",") -> None:
    """Write a DataMatrix back to CSV with a header row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(data.variable_names)
        writer.writerows(data.values.tolist())  # a float is written as its repr


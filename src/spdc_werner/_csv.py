"""The CSV format shared by the counts and calibration files.

A file is one exact header row followed by one record per row. Blank rows
are skipped. A wrong header is reported at line 1 and a row that fails to
parse at its own line, both as ``ValueError("path:line: ...")``. The
records' integer columns hold Python or numpy integers (``require_int``), so
every file written reads back.
"""

from __future__ import annotations

import csv
import operator
from pathlib import Path


def require_int(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a Python or numpy integer; a
    bool, a float and NaN are not."""
    if type(value) is int:  # the common case, without a call
        return
    if not isinstance(value, bool):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows``, all built before the file is opened."""
    rows = list(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path, header, parse) -> list:
    """``parse`` applied to each non-blank row after an exact ``header``."""
    path = Path(path)
    items = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != list(header):
            raise ValueError(f"{path}:1: expected header {','.join(header)}")
        for row in reader:
            if not row:
                continue
            try:
                items.append(parse(row))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
    return items

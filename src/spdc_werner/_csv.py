"""The CSV format shared by the counts and calibration files.

A file is one exact header row followed by one record per row. Blank rows
are skipped. A wrong header is reported at line 1 and a row that fails to
parse at its own line, both as ``ValueError("path:line: ...")``.
"""

from __future__ import annotations

import csv
from pathlib import Path


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

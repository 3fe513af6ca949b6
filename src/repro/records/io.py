"""Dataset export/import (CSV for the impression table, JSONL for records).

Each writer renders its whole file in memory and lands it through
:func:`repro.records.atomic.atomic_write_bytes`, the write path every
other artifact takes: the payload is staged to ``<name>.tmp``, fsynced
and renamed over the destination, transient errors are retried, and
the IO fault shim applies.  An interrupted or failed export never
leaves a truncated CSV/JSONL behind.  All readers raise
:class:`~repro.errors.RecordError` -- never raw ``csv``/``json``
exceptions -- on malformed input.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from ..errors import RecordError
from .atomic import atomic_write_bytes, atomic_write_text
from .impressions import ImpressionTable

__all__ = [
    "write_impressions_csv",
    "read_impressions_csv",
    "write_records_jsonl",
    "read_records_jsonl",
]


def write_impressions_csv(table: ImpressionTable, path: str | Path) -> None:
    """Write the impression table as CSV with a header row (atomically)."""
    names = table.field_names()
    # Encode into one byte buffer as rows are written: rendering a
    # ``str`` first and encoding it would hold the file twice.
    text = _io.TextIOWrapper(_io.BytesIO(), encoding="utf-8", newline="")
    writer = csv.writer(text)
    writer.writerow(names)
    columns = [getattr(table, name) for name in names]
    for row in zip(*columns):
        writer.writerow(
            [int(v) if isinstance(v, (np.bool_, bool)) else v for v in row]
        )
    buffer = text.detach()
    atomic_write_bytes(path, buffer.getvalue())


def read_impressions_csv(path: str | Path) -> ImpressionTable:
    """Read an impression table written by :func:`write_impressions_csv`."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordError(f"{path}: empty impressions file") from None
        if tuple(header) != ImpressionTable.field_names():
            raise RecordError(f"{path}: unexpected header {header}")
        rows = list(reader)
    width = len(header)
    for number, row in enumerate(rows, start=2):
        if len(row) != width:
            raise RecordError(
                f"{path}: line {number} has {len(row)} fields, expected {width}"
            )
    columns = list(zip(*rows)) if rows else [[] for _ in header]
    kwargs = {}
    for name, values in zip(header, columns):
        if name in ("mainline", "fraud_labeled"):
            bad = [v for v in values if v not in ("0", "1")]
            if bad:
                raise RecordError(
                    f"{path}: malformed boolean in column {name}: {bad[0]!r}"
                )
            kwargs[name] = np.asarray([v == "1" for v in values], dtype=bool)
        elif name in ("day", "weight", "clicks", "spend", "price"):
            kwargs[name] = _column(path, name, values, float)
        else:
            kwargs[name] = _column(path, name, values, np.int64)
    return ImpressionTable(**kwargs)


def _column(path: str | Path, name: str, values, dtype) -> np.ndarray:
    try:
        return np.asarray(values, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise RecordError(f"{path}: malformed column {name}: {exc}") from None


def write_records_jsonl(records: Iterable, path: str | Path) -> int:
    """Write records (objects with ``to_dict``) as JSON lines (atomically).

    Returns the number of records written.
    """
    lines = [json.dumps(record.to_dict()) + "\n" for record in records]
    atomic_write_text(path, "".join(lines))
    return len(lines)


def read_records_jsonl(path: str | Path, factory) -> list:
    """Read JSONL records back through ``factory(**fields)``."""
    out = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(
                    f"{path}: line {number} is not valid JSON: {exc}"
                ) from None
            if not isinstance(payload, dict):
                raise RecordError(
                    f"{path}: line {number} is not a JSON object"
                )
            try:
                out.append(factory(**payload))
            except TypeError as exc:
                raise RecordError(
                    f"{path}: line {number} does not match "
                    f"{getattr(factory, '__name__', factory)}: {exc}"
                ) from None
    return out

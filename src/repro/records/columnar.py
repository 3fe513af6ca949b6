"""Columnar ``.npc`` bundles: checksummed ``.npy`` columns in one file.

The durable impression chunks written by the checkpoint runner (and any
other whole-table artifact) are stored as a single *columnar bundle*: a
small self-describing header followed by one raw ``.npy`` payload per
column.  The format is deliberately boring --

``REPROCOL`` magic (8 bytes)
    Identifies the file; a reader refuses anything else.
header length (8 bytes, little-endian ``uint64``)
    Size of the JSON header that follows.
JSON header (UTF-8, compact, sorted keys)
    ``{"format": "repro-columnar/1", "rows": N, "meta": {...},
    "columns": [{"name", "dtype", "offset", "nbytes", "sha256"}, ...]}``
    where ``offset`` is relative to the end of the header, so the
    header's own length never perturbs payload checksums.
payloads
    Each column serialized with :func:`numpy.lib.format.write_array`
    (plain ``.npy`` v1, ``allow_pickle=False``), concatenated in header
    order.

Why not ``np.savez``: zip containers embed per-member metadata that
varies across numpy versions and compress -- both wrong for a
checksummed, byte-stable store.  A bundle's bytes are a pure function
of its columns and ``meta``, which is what lets ``runner verify``
checksum chunks and ``doctor --repair`` re-simulate a damaged day range
and reproduce the file byte-for-byte.

There is one reader: :func:`read_columns` returns every column and
checks each payload's SHA-256 against the header before parsing it, so
no caller can get unverified arrays.

All writes go through :func:`repro.records.atomic.atomic_write_bytes`,
so bundles inherit the tmp+fsync+replace crash contract and the IO
fault-injection/retry layers.  Malformed input raises
:class:`~repro.errors.RecordError`, never a bare ``KeyError`` or numpy
internal error.
"""

from __future__ import annotations

import io as _io
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import RecordError
from .atomic import atomic_write_bytes, sha256_bytes

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_MAGIC",
    "columns_to_bytes",
    "read_columns",
    "read_header",
    "write_columns",
]

#: Format tag embedded in every bundle header.
COLUMNAR_FORMAT = "repro-columnar/1"
#: Leading magic bytes of every bundle.
COLUMNAR_MAGIC = b"REPROCOL"

_HEADER_LEN_BYTES = 8
#: Refuse headers larger than this -- a corrupt length field would
#: otherwise make a reader try to allocate petabytes.
_MAX_HEADER_BYTES = 1 << 24


def _column_payload(name: str, values: np.ndarray) -> bytes:
    """Serialize one column as a plain ``.npy`` byte string."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise RecordError(
            f"column {name!r} must be 1-D, got shape {array.shape}"
        )
    if array.dtype.hasobject:
        raise RecordError(f"column {name!r} has object dtype {array.dtype}")
    buffer = _io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def columns_to_bytes(
    columns: Mapping[str, np.ndarray],
    meta: Mapping[str, object] | None = None,
) -> bytes:
    """Serialize ``columns`` into one columnar bundle byte string.

    The result is byte-stable: the same columns and ``meta`` always
    produce the same bytes (header keys sorted, columns laid out in the
    mapping's iteration order, ``.npy`` v1 payloads).  All columns must
    share one length, which becomes the bundle's ``rows``.
    """
    if not columns:
        raise RecordError("columnar bundle needs at least one column")
    payloads: list[bytes] = []
    entries: list[dict[str, object]] = []
    offset = 0
    rows: int | None = None
    for name, values in columns.items():
        payload = _column_payload(name, values)
        array = np.asarray(values)
        if rows is None:
            rows = int(array.shape[0])
        elif int(array.shape[0]) != rows:
            raise RecordError(
                f"ragged columnar bundle: column {name!r} has "
                f"{array.shape[0]} rows, expected {rows}"
            )
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "offset": offset,
                "nbytes": len(payload),
                "sha256": sha256_bytes(payload),
            }
        )
        payloads.append(payload)
        offset += len(payload)
    header = {
        "columns": entries,
        "format": COLUMNAR_FORMAT,
        "meta": dict(meta or {}),
        "rows": rows,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return b"".join(
        [
            COLUMNAR_MAGIC,
            len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "little"),
            header_bytes,
            *payloads,
        ]
    )


def write_columns(
    path: str | Path,
    columns: Mapping[str, np.ndarray],
    meta: Mapping[str, object] | None = None,
) -> None:
    """Atomically write ``columns`` to ``path`` as a columnar bundle."""
    atomic_write_bytes(path, columns_to_bytes(columns, meta=meta))


def _parse_header(handle, path: Path) -> tuple[dict, int]:
    """Parse the bundle header; returns ``(header, payload_base)``."""
    magic = handle.read(len(COLUMNAR_MAGIC))
    if magic != COLUMNAR_MAGIC:
        raise RecordError(f"{path}: not a columnar bundle")
    raw_len = handle.read(_HEADER_LEN_BYTES)
    if len(raw_len) != _HEADER_LEN_BYTES:
        raise RecordError(f"{path}: truncated columnar header length")
    header_len = int.from_bytes(raw_len, "little")
    if header_len > _MAX_HEADER_BYTES:
        raise RecordError(
            f"{path}: implausible columnar header length {header_len}"
        )
    header_bytes = handle.read(header_len)
    if len(header_bytes) != header_len:
        raise RecordError(f"{path}: truncated columnar header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecordError(f"{path}: malformed columnar header: {exc}") from None
    if not isinstance(header, dict):
        raise RecordError(f"{path}: columnar header is not an object")
    if header.get("format") != COLUMNAR_FORMAT:
        raise RecordError(
            f"{path}: unsupported columnar format {header.get('format')!r}"
        )
    columns = header.get("columns")
    if not isinstance(columns, list) or not columns:
        raise RecordError(f"{path}: columnar header lists no columns")
    for entry in columns:
        if not isinstance(entry, dict) or not {
            "name",
            "dtype",
            "offset",
            "nbytes",
            "sha256",
        } <= set(entry):
            raise RecordError(f"{path}: malformed column entry {entry!r}")
    base = len(COLUMNAR_MAGIC) + _HEADER_LEN_BYTES + header_len
    return header, base


def read_header(path: str | Path) -> dict:
    """Parse and validate the JSON header of a columnar bundle."""
    path = Path(path)
    with open(path, "rb") as handle:
        header, _ = _parse_header(handle, path)
    return header


def _read_payload(
    handle, path: Path, base: int, entry: Mapping[str, object]
) -> np.ndarray:
    handle.seek(base + int(entry["offset"]))
    payload = handle.read(int(entry["nbytes"]))
    if len(payload) != int(entry["nbytes"]):
        raise RecordError(
            f"{path}: truncated column {entry['name']!r} "
            f"({len(payload)} of {entry['nbytes']} bytes)"
        )
    if sha256_bytes(payload) != entry["sha256"]:
        raise RecordError(f"{path}: checksum mismatch in column {entry['name']!r}")
    try:
        array = np.lib.format.read_array(
            _io.BytesIO(payload), allow_pickle=False
        )
    except ValueError as exc:
        raise RecordError(
            f"{path}: malformed column {entry['name']!r}: {exc}"
        ) from None
    if array.dtype.str != entry["dtype"]:
        raise RecordError(
            f"{path}: column {entry['name']!r} dtype {array.dtype.str} "
            f"!= declared {entry['dtype']}"
        )
    return array


def read_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Read every column of a bundle, verifying each payload's SHA-256.

    Returns ``{name: array}`` in layout order.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header, base = _parse_header(handle, path)
        out = {
            entry["name"]: _read_payload(handle, path, base, entry)
            for entry in header["columns"]
        }
    rows = int(header["rows"])
    for name, array in out.items():
        if array.shape[0] != rows:
            raise RecordError(
                f"{path}: column {name!r} has {array.shape[0]} rows, "
                f"header declares {rows}"
            )
    return out

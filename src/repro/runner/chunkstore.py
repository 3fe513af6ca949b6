"""Impression chunks: their names and their bytes.

Every file under a run directory's ``chunks/`` is a
:mod:`repro.records.columnar` bundle (``.npc``) -- per-column ``.npy``
payloads with individual SHA-256 checksums, seekable by column -- and
is named after the day range it covers, so a chunk's path follows from
its manifest entry alone.  Greppable rows come from the dataset export
(``python -m repro.records OUT``), not from the run directory.

The serializer is *deterministic*: the same drained arrays always
produce the same bytes.  That is the property the doctor's repair path
stands on -- it re-simulates a damaged day range, feeds the drained
chunk back through :func:`chunk_to_bytes`, and refuses to write unless
the bytes hash to what the manifest vouched.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import RecordError
from ..records.columnar import columns_to_bytes, read_columns
from ..records.impressions import ImpressionTable

__all__ = [
    "CHUNK_DIR",
    "chunk_file_name",
    "chunk_to_bytes",
    "load_chunk",
]

#: Run-directory subdirectory holding the chunks.
CHUNK_DIR = "chunks"

_FIELD_NAMES = ImpressionTable.field_names()


def chunk_file_name(day_start: int, day_end: int) -> str:
    """Canonical chunk file name for days ``[day_start, day_end)``."""
    return f"chunk-{day_start:05d}-{day_end:05d}.npc"


def chunk_to_bytes(chunk: dict, day_start: int, day_end: int) -> bytes:
    """Serialize a drained builder chunk deterministically."""
    ordered = {name: chunk[name] for name in _FIELD_NAMES}
    return columns_to_bytes(
        ordered, meta={"day_end": day_end, "day_start": day_start}
    )


def load_chunk(path: str | Path) -> dict | None:
    """Load a chunk's per-field arrays, or ``None`` if malformed.

    A return of ``None`` means the file is structurally not a chunk
    (not a columnar bundle, wrong field set) -- callers treat it
    exactly like a checksum failure.  IO errors propagate.
    """
    try:
        columns = read_columns(path)
    except RecordError:
        return None
    if set(columns) != set(_FIELD_NAMES):
        return None
    return columns

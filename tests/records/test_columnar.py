"""Columnar ``.npc`` bundle format: round-trip, determinism, damage."""

import numpy as np
import pytest

from repro.errors import RecordError
from repro.records.columnar import (
    COLUMNAR_FORMAT,
    COLUMNAR_MAGIC,
    columns_to_bytes,
    read_columns,
    read_header,
    write_columns,
)


def _sample_columns():
    return {
        "day": np.array([0.5, 1.5, 2.5], dtype=np.float64),
        "advertiser_id": np.array([7, 8, 9], dtype=np.int64),
        "position": np.array([1, 2, 3], dtype=np.int16),
        "mainline": np.array([True, False, True], dtype=np.bool_),
    }


def test_round_trip_preserves_values_and_dtypes(tmp_path):
    path = tmp_path / "bundle.npc"
    columns = _sample_columns()
    write_columns(path, columns, meta={"day_start": 0, "day_end": 3})
    back = read_columns(path)
    assert list(back) == list(columns)
    for name, values in columns.items():
        assert back[name].dtype == values.dtype
        assert np.array_equal(back[name], values)
    header = read_header(path)
    assert header["format"] == COLUMNAR_FORMAT
    assert header["rows"] == 3
    assert header["meta"] == {"day_start": 0, "day_end": 3}
    assert [entry["name"] for entry in header["columns"]] == list(columns)


def test_bytes_are_deterministic():
    columns = _sample_columns()
    blob_a = columns_to_bytes(columns, meta={"k": 1})
    blob_b = columns_to_bytes(
        {name: values.copy() for name, values in columns.items()},
        meta={"k": 1},
    )
    assert blob_a == blob_b
    assert blob_a.startswith(COLUMNAR_MAGIC)
    # Different meta -> different bytes (meta is part of the header).
    assert blob_a != columns_to_bytes(columns, meta={"k": 2})


def test_zero_row_bundle_round_trips(tmp_path):
    path = tmp_path / "empty.npc"
    columns = {
        "day": np.array([], dtype=np.float64),
        "clicks": np.array([], dtype=np.float64),
    }
    write_columns(path, columns)
    back = read_columns(path)
    assert back["day"].shape == (0,)
    assert read_header(path)["rows"] == 0


def test_rejects_ragged_object_and_empty_inputs():
    with pytest.raises(RecordError, match="ragged"):
        columns_to_bytes(
            {
                "a": np.zeros(3),
                "b": np.zeros(4),
            }
        )
    with pytest.raises(RecordError, match="object dtype"):
        columns_to_bytes({"a": np.array(["x", None], dtype=object)})
    with pytest.raises(RecordError, match="at least one column"):
        columns_to_bytes({})
    with pytest.raises(RecordError, match="1-D"):
        columns_to_bytes({"a": np.zeros((2, 2))})


def test_rejects_damage(tmp_path):
    path = tmp_path / "bundle.npc"
    write_columns(path, _sample_columns())
    blob = path.read_bytes()

    # Wrong magic.
    bad = tmp_path / "bad.npc"
    bad.write_bytes(b"NOTACOLS" + blob[8:])
    with pytest.raises(RecordError, match="not a columnar bundle"):
        read_header(bad)

    # Truncated header.
    bad.write_bytes(blob[:12])
    with pytest.raises(RecordError, match="truncated"):
        read_header(bad)

    # Truncated payload tail.
    bad.write_bytes(blob[:-10])
    with pytest.raises(RecordError, match="truncated column"):
        read_columns(bad)

    # Bit flip in a payload is caught by the per-column checksum.
    flipped = bytearray(blob)
    flipped[-5] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(RecordError, match="checksum mismatch"):
        read_columns(bad)

    # Implausible header length field.
    huge = bytearray(blob)
    huge[8:16] = (1 << 32).to_bytes(8, "little")
    bad.write_bytes(bytes(huge))
    with pytest.raises(RecordError, match="implausible"):
        read_header(bad)

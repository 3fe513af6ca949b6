"""Tests for the columnar impression table."""

import numpy as np
import pytest

from repro.errors import RecordError
from repro.records.impressions import ImpressionBuilder, ImpressionTable


def columns(*rows):
    """Row dicts as one list per field, the scalar oracle's batch shape."""
    return {name: [row[name] for row in rows] for name in ImpressionTable.field_names()}


def build_table(rows):
    builder = ImpressionBuilder()
    builder.add_batch(**columns(*rows))
    return builder.build()


def row(**overrides):
    defaults = dict(
        day=1.5,
        advertiser_id=1,
        ad_id=10,
        vertical=0,
        country=0,
        match_type=0,
        position=1,
        mainline=True,
        weight=100.0,
        clicks=5.0,
        spend=2.5,
        price=0.5,
        n_shown=3,
        n_fraud_shown=1,
        fraud_labeled=False,
    )
    defaults.update(overrides)
    return defaults


class TestBuilder:
    def test_len(self):
        builder = ImpressionBuilder()
        assert len(builder) == 0
        builder.add_batch(**columns(row()))
        assert len(builder) == 1

    def test_build_types(self):
        table = build_table([row()])
        assert table.day.dtype == np.float64
        assert table.mainline.dtype == bool
        assert table.position.dtype == np.int16

    def test_empty_build(self):
        table = ImpressionBuilder().build()
        assert len(table) == 0
        assert table.total_clicks() == 0.0


def batch(n, **overrides):
    base = row()
    arrays = {
        name: np.asarray([base[name]] * n) for name in ImpressionTable.field_names()
    }
    arrays.update(overrides)
    return arrays


class TestAddBatch:
    def test_batch_then_build(self):
        builder = ImpressionBuilder()
        builder.add_batch(**batch(3, clicks=np.array([1.0, 2.0, 3.0])))
        builder.add_batch(**batch(2))
        assert len(builder) == 5
        table = builder.build()
        assert len(table) == 5
        assert table.clicks[:3].tolist() == [1.0, 2.0, 3.0]
        assert table.position.dtype == np.int16
        assert table.mainline.dtype == bool

    def test_interleaved_mixed_ingestion_rows_and_dtypes(self):
        # Batches arrive either as lists of Python bool/int/float (the
        # scalar oracle's per-day rows) or as (possibly wider) numpy
        # arrays (the batched path).  Both must narrow to the declared
        # storage dtypes on ingestion, and interleaving them must keep
        # row order.
        builder = ImpressionBuilder()
        builder.add_batch(
            **columns(
                row(day=0.0, position=30000, mainline=True),
                row(day=1.0, match_type=2, fraud_labeled=False),
            )
        )
        builder.add_batch(
            **batch(
                2,
                day=np.array([2.0, 3.0]),
                # Wider than storage: i8 position, plain int mainline.
                position=np.array([5, 6], dtype=np.int64),
                mainline=np.array([0, 1], dtype=np.int64),
            )
        )
        builder.add_batch(**columns(row(day=4.0, n_shown=7, n_fraud_shown=3)))
        builder.add_batch(**batch(1, day=np.array([5.0])))
        builder.add_batch(**columns(row(day=6.0)))
        table = builder.build()
        assert table.day.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        dtypes = ImpressionTable.field_dtypes()
        for name in ImpressionTable.field_names():
            assert getattr(table, name).dtype == np.dtype(dtypes[name]), name
        # Values survive the narrowing exactly.
        assert table.position.tolist() == [30000, 1, 5, 6, 1, 1, 1]
        assert table.mainline.tolist() == [
            True, True, False, True, True, True, True,
        ]
        assert table.match_type[1] == 2
        assert table.n_shown[4] == 7

    def test_drain_round_trips_interleaved_rows(self):
        # The checkpoint runner drains mid-stream; feeding the drained
        # arrays back through add_batch must reconstruct the row stream.
        source = ImpressionBuilder()
        source.add_batch(**columns(row(day=0.0, clicks=1.0)))
        source.add_batch(**batch(2, day=np.array([1.0, 2.0])))
        first = source.drain()
        assert len(source) == 0
        source.add_batch(**columns(row(day=3.0, mainline=False)))
        second = source.drain()

        rebuilt = ImpressionBuilder()
        rebuilt.add_batch(**first)
        rebuilt.add_batch(**second)
        table = rebuilt.build()
        assert table.day.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert table.mainline.tolist() == [True, True, True, False]
        dtypes = ImpressionTable.field_dtypes()
        for name in ImpressionTable.field_names():
            assert getattr(table, name).dtype == np.dtype(dtypes[name]), name

    def test_empty_batch_is_noop(self):
        builder = ImpressionBuilder()
        builder.add_batch(**batch(0))
        assert len(builder) == 0
        assert len(builder.build()) == 0

    def test_ragged_batch_rejected(self):
        builder = ImpressionBuilder()
        arrays = batch(3, clicks=np.array([1.0, 2.0]))
        with pytest.raises(RecordError):
            builder.add_batch(**arrays)

    def test_missing_field_rejected(self):
        builder = ImpressionBuilder()
        arrays = batch(2)
        del arrays["spend"]
        with pytest.raises(RecordError):
            builder.add_batch(**arrays)


class TestTable:
    def test_ragged_rejected(self):
        table = build_table([row(), row(day=2.0)])
        with pytest.raises(RecordError):
            ImpressionTable(
                **{
                    name: (
                        getattr(table, name)[:1]
                        if name == "day"
                        else getattr(table, name)
                    )
                    for name in ImpressionTable.field_names()
                }
            )

    def test_select(self):
        table = build_table([row(day=1.0), row(day=2.0), row(day=3.0)])
        subset = table.select(table.day > 1.5)
        assert len(subset) == 2

    def test_in_window_half_open(self):
        table = build_table([row(day=1.0), row(day=2.0), row(day=3.0)])
        window = table.in_window(1.0, 3.0)
        assert len(window) == 2
        assert set(window.day.tolist()) == {1.0, 2.0}

    def test_totals(self):
        table = build_table([row(clicks=5.0, spend=2.5), row(clicks=3.0, spend=1.0)])
        assert table.total_clicks() == 8.0
        assert table.total_spend() == 3.5

    def test_has_fraud_competition_excludes_self(self):
        # A fraud advertiser alone on the page: n_fraud_shown == 1 is itself.
        table = build_table(
            [
                row(fraud_labeled=True, n_fraud_shown=1),
                row(fraud_labeled=True, n_fraud_shown=2),
                row(fraud_labeled=False, n_fraud_shown=1),
                row(fraud_labeled=False, n_fraud_shown=0),
            ]
        )
        expected = [False, True, True, False]
        assert table.has_fraud_competition.tolist() == expected

"""Tests for per-advertiser aggregation."""

import numpy as np

from repro.analysis.aggregates import aggregate_by_advertiser
from repro.records.impressions import ImpressionBuilder


def table_from(rows):
    n = len(rows)
    advertiser_id, weight, clicks, spend = (
        np.asarray(rows, dtype=float).reshape(n, 4).T
    )
    builder = ImpressionBuilder()
    builder.add_batch(
        day=np.ones(n),
        advertiser_id=advertiser_id,
        ad_id=np.ones(n),
        vertical=np.zeros(n),
        country=np.zeros(n),
        match_type=np.zeros(n),
        position=np.ones(n),
        mainline=np.ones(n, dtype=bool),
        weight=weight,
        clicks=clicks,
        spend=spend,
        price=np.full(n, 0.5),
        n_shown=np.ones(n),
        n_fraud_shown=np.zeros(n),
        fraud_labeled=np.zeros(n, dtype=bool),
    )
    return builder.build()


class TestAggregation:
    def test_sums_per_advertiser(self):
        table = table_from([(1, 10, 2, 1.0), (1, 20, 3, 2.0), (2, 5, 1, 0.5)])
        agg = aggregate_by_advertiser(table)
        assert agg.impressions_of(1) == 30
        assert agg.clicks_of(1) == 5
        assert agg.spend_of(1) == 3.0
        assert agg.impressions_of(2) == 5

    def test_missing_advertiser_zero(self):
        agg = aggregate_by_advertiser(table_from([(1, 10, 2, 1.0)]))
        assert agg.impressions_of(42) == 0.0
        assert agg.clicks_of(42) == 0.0
        assert agg.spend_of(42) == 0.0

    def test_mask(self):
        table = table_from([(1, 10, 2, 1.0), (1, 20, 3, 2.0)])
        agg = aggregate_by_advertiser(table, mask=table.weight > 15)
        assert agg.impressions_of(1) == 20

    def test_empty(self):
        agg = aggregate_by_advertiser(table_from([]))
        assert len(agg) == 0
        assert agg.clicks_of(1) == 0.0

    def test_as_dicts(self):
        table = table_from([(3, 10, 2, 1.0), (7, 5, 1, 0.5)])
        impressions, clicks, spend = aggregate_by_advertiser(table).as_dicts()
        assert impressions == {3: 10.0, 7: 5.0}
        assert clicks == {3: 2.0, 7: 1.0}
        assert spend == {3: 1.0, 7: 0.5}

    def test_ids_sorted(self):
        table = table_from([(9, 1, 0, 0.0), (2, 1, 0, 0.0), (5, 1, 0, 0.0)])
        agg = aggregate_by_advertiser(table)
        assert agg.advertiser_ids.tolist() == sorted(agg.advertiser_ids.tolist())
        assert (np.diff(agg.advertiser_ids) > 0).all()

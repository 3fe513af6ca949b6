"""End-to-end regression: batched Phase 3 vs the scalar oracle.

The vectorized auction loop is designed to replay the scalar loop's RNG
draws in the same order on the same streams, so a same-seed simulation
must produce an identical impression table — not merely statistically
close.  These tests pin that property at engine scale (the kernel-level
differential tests live in ``tests/auction/test_batch_equivalence.py``).
"""

import numpy as np
import pytest

from repro import obs
from repro.config import small_config
from repro.records.impressions import ImpressionBuilder, ImpressionTable
from repro.simulator.engine import SimulationEngine
from repro.simulator.market import MarketIndex

#: The Phase-3 counters both paths bump.
PHASE3_COUNTERS = (
    "auction.rows_emitted",
    "auction.queries_sampled",
    "clicks.poisson_draws",
    "clickmodel.clicks_drawn",
)


def _phase3_run(config, scalar: bool) -> tuple[ImpressionTable, dict]:
    """Phase 3's table and how much it moved each Phase-3 counter."""
    engine = SimulationEngine(config)
    accounts, _ = engine.generate_population()
    market = MarketIndex(accounts)
    builder = ImpressionBuilder()
    before = {name: obs.counter(name).value for name in PHASE3_COUNTERS}
    if scalar:
        engine.run_auctions_scalar(market, builder)
    else:
        engine.run_auctions(market, builder)
    deltas = {name: obs.counter(name).value - before[name] for name in PHASE3_COUNTERS}
    return builder.build(), deltas


@pytest.fixture(scope="module")
def runs():
    config = small_config(seed=31, days=90)
    return _phase3_run(config, scalar=False), _phase3_run(config, scalar=True)


@pytest.fixture(scope="module")
def tables(runs):
    return tuple(table for table, _ in runs)


class TestBatchedEngineRegression:
    def test_tables_bit_identical(self, tables):
        batched, scalar = tables
        assert len(batched) == len(scalar)
        for name in ImpressionTable.field_names():
            left = getattr(batched, name)
            right = getattr(scalar, name)
            assert left.dtype == right.dtype, name
            np.testing.assert_array_equal(left, right, err_msg=name)

    def test_counters_bumped_identically(self, runs):
        (batched_table, batched), (_, scalar) = runs
        assert batched == scalar
        assert batched["auction.rows_emitted"] == len(batched_table)
        assert all(batched[name] > 0 for name in PHASE3_COUNTERS)

    def test_per_advertiser_aggregates_match(self, tables):
        """The satellite guarantee: per-advertiser totals line up.

        Subsumed by bit-identity but asserted separately so a future
        intentional RNG-order change (which would break bit-identity)
        still has a meaningful, noise-tolerant aggregate check to keep.
        """
        batched, scalar = tables
        for table in tables:
            assert len(table) > 0
        advertisers = np.union1d(
            np.unique(batched.advertiser_id), np.unique(scalar.advertiser_id)
        )
        for name in ("weight", "spend", "clicks"):
            left = np.zeros(len(advertisers))
            right = np.zeros(len(advertisers))
            left_index = np.searchsorted(advertisers, batched.advertiser_id)
            right_index = np.searchsorted(advertisers, scalar.advertiser_id)
            np.add.at(left, left_index, getattr(batched, name))
            np.add.at(right, right_index, getattr(scalar, name))
            np.testing.assert_allclose(left, right, rtol=1e-9, err_msg=name)

    def test_full_run_matches_phase_decomposition(self):
        """`run_simulation` and the manual phase pipeline agree."""
        from repro import run_simulation

        config = small_config(seed=31, days=90)
        result = run_simulation(config)
        batched, _ = _phase3_run(config, scalar=False)
        np.testing.assert_array_equal(result.impressions.clicks, batched.clicks)
        np.testing.assert_array_equal(result.impressions.spend, batched.spend)

    def test_validation_suite_passes_on_batched_output(self):
        """`python -m repro.validation --small` stays green."""
        from repro.validation.__main__ import main

        assert main(["--small"]) == 0

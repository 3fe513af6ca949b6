"""Overhead smoke: the day ledger must stay within 3% of run time.

Acceptance bar from the cross-run observability PR: collecting the
marketplace-health timeseries (one :class:`DayLedger`, whose Phase-1
half is computed from Phase 1's outputs and whose market rows the
engine's auction loop records, one per day) costs < 3% over an
unledgered run.  Both sides time the same whole run -- Phases 1 and 2,
the auctions and the impression table -- and differ only in the ledger
passed to ``run_auctions``.  Same noise-floor protocol as the telemetry
overhead bench: minimum of three runs per side plus a small absolute
epsilon for sub-second configs.
"""

from __future__ import annotations

import time

from repro.config import small_config
from repro.obs.timeseries import DayLedger
from repro.records.impressions import ImpressionBuilder
from repro.simulator.engine import SimulationEngine

RUNS = 3
RELATIVE_BUDGET = 1.03
ABSOLUTE_EPSILON_S = 0.05


def _timed_run(config, ledgered: bool) -> float:
    start = time.perf_counter()
    engine = SimulationEngine(config)
    summaries, records, market = engine.build_phase1()
    ledger = None
    if ledgered:
        ledger = DayLedger(config.days)
        ledger.record_phase1(summaries, records, engine.pipeline.policy.changes)
    builder = ImpressionBuilder()
    engine.run_auctions(market, builder, ledger=ledger)
    builder.build()
    return time.perf_counter() - start


def test_dayledger_overhead_under_three_percent():
    config = small_config(seed=7, days=60)
    _timed_run(config, ledgered=False)  # warm-up

    baseline = min(_timed_run(config, ledgered=False) for _ in range(RUNS))
    ledgered = min(_timed_run(config, ledgered=True) for _ in range(RUNS))
    budget = baseline * RELATIVE_BUDGET + ABSOLUTE_EPSILON_S
    assert ledgered <= budget, (
        f"ledgered run {ledgered:.3f}s exceeds {budget:.3f}s "
        f"(baseline {baseline:.3f}s)"
    )

"""Two-year marketplace simulation."""

from .cache import cached_simulation, clear_cache, seed_cache, set_cache_capacity
from .engine import RNG_STREAMS, SimulationEngine, run_simulation
from .market import MarketIndex
from .querygen import CellSampler, MatchTable, QueryBatch, QuerySampler, match_table
from .registration import FraudShareSchedule, sample_daily_counts
from .results import AccountSummary, SimulationResult

__all__ = [
    "RNG_STREAMS",
    "SimulationEngine",
    "run_simulation",
    "cached_simulation",
    "clear_cache",
    "seed_cache",
    "set_cache_capacity",
    "MarketIndex",
    "CellSampler",
    "MatchTable",
    "match_table",
    "QueryBatch",
    "QuerySampler",
    "FraudShareSchedule",
    "sample_daily_counts",
    "AccountSummary",
    "SimulationResult",
]

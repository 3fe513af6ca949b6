"""In-process simulation cache.

Experiments and benchmarks share simulations: every figure of a paper
section is computed from the same underlying logs.  The cache keys on
the full configuration, so ablations (which modify the config) get
their own runs.

The cache is an LRU bounded at :data:`CACHE_CAPACITY` results:
full-scale results hold multi-million-row impression tables, so an
unbounded dict would grow without limit across a long ablation sweep.
Least-recently-*used* entries are evicted (a cache hit refreshes
recency).
"""

from __future__ import annotations

from collections import OrderedDict

from .. import obs
from ..config import SimulationConfig
from .engine import run_simulation
from .results import SimulationResult

__all__ = [
    "CACHE_CAPACITY",
    "cached_simulation",
    "clear_cache",
]

#: Number of simulation results kept alive.
CACHE_CAPACITY = 8

_CACHE: OrderedDict[SimulationConfig, SimulationResult] = OrderedDict()

# Cache telemetry (repro.obs): hit/miss/eviction counters surface how
# well experiment sweeps share simulations.
_HITS = obs.counter("simcache.hits")
_MISSES = obs.counter("simcache.misses")
_EVICTIONS = obs.counter("simcache.evictions")


def _evict() -> None:
    while len(_CACHE) > CACHE_CAPACITY:
        _CACHE.popitem(last=False)
        _EVICTIONS.inc()


def cached_simulation(config: SimulationConfig) -> SimulationResult:
    """Run (or reuse) the simulation for ``config``."""
    result = _CACHE.get(config)
    if result is None:
        _MISSES.inc()
        result = run_simulation(config)
        _CACHE[config] = result
        _evict()
    else:
        _HITS.inc()
        _CACHE.move_to_end(config)
    return result


def clear_cache() -> None:
    """Drop all cached simulations (frees memory in long test sessions)."""
    _CACHE.clear()

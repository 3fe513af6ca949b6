"""Tests for the in-process simulation cache."""

import gc
import weakref

import pytest

from repro import small_config
from repro.simulator import cache
from repro.simulator.cache import cached_simulation, clear_cache


class TestCache:
    def test_same_config_shares_result(self):
        config = small_config(seed=123, days=20)
        first = cached_simulation(config)
        second = cached_simulation(config)
        assert first is second

    def test_equal_configs_share(self):
        first = cached_simulation(small_config(seed=124, days=20))
        second = cached_simulation(small_config(seed=124, days=20))
        assert first is second

    def test_different_configs_distinct(self):
        a = cached_simulation(small_config(seed=125, days=20))
        b = cached_simulation(small_config(seed=126, days=20))
        assert a is not b

    def test_clear(self):
        config = small_config(seed=127, days=20)
        first = cached_simulation(config)
        clear_cache()
        second = cached_simulation(config)
        assert first is not second


@pytest.fixture()
def bounded_cache(monkeypatch):
    """Isolate the LRU at a bound of 2; empty it before and after."""
    monkeypatch.setattr(cache, "CACHE_CAPACITY", 2)
    clear_cache()
    yield
    clear_cache()


class TestBoundedLru:
    def test_eviction_actually_frees_entries(self, bounded_cache):
        configs = [small_config(seed=200 + i, days=20) for i in range(3)]
        first = cached_simulation(configs[0])
        probe = weakref.ref(first)
        del first
        cached_simulation(configs[1])
        cached_simulation(configs[2])  # evicts the seed=200 entry
        gc.collect()
        assert probe() is None, "evicted result still referenced"

    def test_hit_refreshes_recency(self, bounded_cache):
        configs = [small_config(seed=210 + i, days=20) for i in range(3)]
        oldest = cached_simulation(configs[0])
        cached_simulation(configs[1])
        assert cached_simulation(configs[0]) is oldest  # refresh
        cached_simulation(configs[2])  # evicts seed=211, not seed=210
        assert cached_simulation(configs[0]) is oldest

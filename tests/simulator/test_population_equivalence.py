"""End-to-end regression: batched Phase 1 vs the scalar oracle.

:meth:`SimulationEngine.generate_population` (the batched materializer)
must reproduce :meth:`SimulationEngine.generate_population_scalar`
exactly on a same-seed engine: every account summary, every returned
account, the pickled market, and -- the strongest invariant -- the bit
state of all five named RNG streams after generation, which any skipped
or reordered draw would break.

Phase 1 frees each account's per-ad and per-bid columns once it is
summarized, so the returned accounts hold only their id, times,
detection outcome, profile, activity end and offers; the summaries are
what carry the columns' counts and sums here.  Column-level
equivalence of the two materializers, every column compared after the
same trim, lives in ``tests/behavior/test_batch_materializer.py``.
"""

import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.behavior import MaterializedAccount
from repro.config import small_config
from repro.simulator.engine import RNG_STREAMS, SimulationEngine
from repro.simulator.market import MarketIndex


def _generate(scalar: bool):
    engine = SimulationEngine(small_config(seed=123, days=20))
    if scalar:
        accounts, summaries = engine.generate_population_scalar()
    else:
        accounts, summaries = engine.generate_population()
    return accounts, summaries, engine.rng_state()


@pytest.fixture(scope="module")
def populations():
    return _generate(scalar=False), _generate(scalar=True)


class TestPopulationEquivalence:
    def test_rng_stream_states_identical(self, populations):
        (_, _, batched), (_, _, scalar) = populations
        assert set(batched) == set(RNG_STREAMS)
        assert batched == scalar

    def test_summaries_identical(self, populations):
        (_, batched, _), (_, scalar, _) = populations
        assert len(batched) == len(scalar)
        for mine, theirs in zip(batched, scalar):
            for name in mine.__dataclass_fields__:
                a = getattr(mine, name)
                b = getattr(theirs, name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype, name
                    np.testing.assert_array_equal(a, b, err_msg=name)
                else:
                    assert a == b, name

    def test_entities_identical(self, populations):
        (batched, _, _), (scalar, _, _) = populations
        assert len(batched) == len(scalar)
        for mine, theirs in zip(batched, scalar):
            for field in fields(MaterializedAccount):
                name = field.name
                assert getattr(mine, name) == getattr(theirs, name), name

    def test_markets_byte_identical(self, populations):
        (batched, _, _), (scalar, _, _) = populations
        assert pickle.dumps(MarketIndex(batched)) == pickle.dumps(
            MarketIndex(scalar)
        )

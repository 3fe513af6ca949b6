"""Differential regression: batched materializer vs the scalar factory.

:func:`repro.behavior.batch.materialize_account_batch` must replay the
scalar factory's RNG draws in the same order on the same stream, so a
same-seed materialization -- followed by the same ``trim`` -- must
produce bit-identical account columns -- ids, ads, bids, maintenance
events, offers -- and the generator's state afterwards.  The
engine-level sweep lives in
``tests/simulator/test_population_equivalence.py``; these tests isolate
the materializer and pin the low-level numpy identities the batching
relies on.
"""

from bisect import bisect_right
from dataclasses import fields

import numpy as np
import pytest

from repro.behavior import (
    IdAllocator,
    MaterializedAccount,
    materialize_account,
    materialize_account_batch,
    sample_fraud_profile,
    sample_legitimate_profile,
)
from repro.config import small_config
from repro.rng import choice_cdf, draw_index, stream
from repro.taxonomy.keywords import (
    evasive_keyword_tables,
    keyword_cdf,
    keyword_pool,
    keyword_weights,
)

CREATED_TIME = 3.0
FIRST_AD_TIME = 3.5
HORIZON = 120.0


def _profiles():
    """A deterministic mix covering every materializer branch."""
    config = small_config(seed=55, days=120)
    rng = stream(55, "population")
    cases = []
    for _ in range(12):
        cases.append(("legit", sample_legitimate_profile(config, rng)))
    for _ in range(10):
        cases.append(("fraud", sample_fraud_profile(config, rng, prolific=False)))
    for _ in range(6):
        cases.append(("prolific", sample_fraud_profile(config, rng, prolific=True)))
    return config, cases


def _materialize(materializer, profile, config, end_time):
    rng = stream(4242, "population")
    ids = IdAllocator()
    account = MaterializedAccount(
        advertiser_id=1, profile=profile, created_time=CREATED_TIME
    )
    materializer(account, FIRST_AD_TIME, HORIZON, config, ids, rng)
    account.trim(end_time)
    account.activity_end = end_time
    return account, rng.bit_generator.state


def _assert_accounts_identical(expected, actual):
    """Every field -- identity, first-ad time, profile, every column --
    compared exactly."""
    for field in fields(MaterializedAccount):
        name = field.name
        assert getattr(actual, name) == getattr(expected, name), name


class TestMaterializerEquivalence:
    @pytest.mark.parametrize(
        "end_time",
        [
            pytest.param(HORIZON + 1.0, id="keep-everything"),
            pytest.param(10.0, id="mid-life-trim"),
            pytest.param(FIRST_AD_TIME, id="trim-to-nothing"),
        ],
    )
    def test_bit_identical_after_trim(self, end_time):
        config, cases = _profiles()
        for label, profile in cases:
            want, want_state = _materialize(
                materialize_account, profile, config, end_time
            )
            got, got_state = _materialize(
                materialize_account_batch, profile, config, end_time
            )
            assert got_state == want_state, (label, "rng state diverged")
            _assert_accounts_identical(want, got)


class TestBatchingPrimitives:
    """The numpy identities the batched draw loop is built on."""

    def test_batched_uniforms_match_scalar_draws(self):
        a = stream(7, "population")
        b = stream(7, "population")
        batched = a.random(64)
        scalar = np.array([b.random() for _ in range(64)])
        np.testing.assert_array_equal(batched, scalar)
        assert a.bit_generator.state == b.bit_generator.state

    def test_choice_cdf_replicates_generator_choice(self):
        weights = keyword_weights("techsupport", exponent=1.8)
        cdf = choice_cdf(weights)
        a = stream(11, "population")
        b = stream(11, "population")
        for _ in range(500):
            assert draw_index(a, cdf) == int(b.choice(len(weights), p=weights))
        assert a.bit_generator.state == b.bit_generator.state

    def test_bisect_matches_searchsorted(self):
        cdf = keyword_cdf("techsupport", exponent=1.8)
        cdf_list = cdf.tolist()
        rng = stream(13, "population")
        for u in rng.random(2000).tolist():
            assert bisect_right(cdf_list, u) == int(
                cdf.searchsorted(u, side="right")
            )

    def test_evasive_tables_replicate_safe_renormalization(self):
        for vertical in ("techsupport", "downloads", "luxury"):
            weights = keyword_weights(vertical, exponent=1.8)
            risky, safe, safe_cdf = evasive_keyword_tables(vertical, 1.8)
            assert len(risky) == len(keyword_pool(vertical))
            if not len(safe):
                continue
            safe_weights = weights[safe]
            expected = choice_cdf(safe_weights / safe_weights.sum())
            a = stream(17, "population")
            b = stream(17, "population")
            for _ in range(200):
                want = int(safe[int(b.choice(len(safe_weights), p=safe_weights / safe_weights.sum()))])
                got = int(safe[draw_index(a, np.asarray(safe_cdf))])
                assert got == want
            np.testing.assert_array_equal(np.asarray(safe_cdf), expected)

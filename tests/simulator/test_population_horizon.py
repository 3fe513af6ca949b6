"""The whole-horizon Phase 1 plan arrays.

:meth:`SimulationEngine.generate_population` runs a two-pass
whole-horizon sweep (draws, then build).  The draws pass records a
columnar :class:`~repro.behavior.horizon.PopulationPlan`; its slices
and per-day aggregates must agree with the generated population.
Equivalence with the scalar oracle is pinned in
``test_population_equivalence.py``.
"""

import numpy as np
import pytest

from repro.behavior.horizon import PlanRecorder, PopulationPlan
from repro.config import small_config
from repro.simulator.engine import SimulationEngine


@pytest.fixture(scope="module")
def population():
    engine = SimulationEngine(small_config(seed=123, days=20))
    accounts, summaries = engine.generate_population()
    return engine, accounts, summaries


class TestPopulationPlan:
    def test_plan_populated_by_generation(self, population):
        engine, accounts, _ = population
        assert SimulationEngine(small_config(seed=123, days=20)).population_plan is None
        assert isinstance(engine.population_plan, PopulationPlan)
        assert len(engine.population_plan) == len(accounts)

    def test_plan_matches_summaries(self, population):
        engine, accounts, summaries = population
        plan = engine.population_plan
        for row, (account, summary) in enumerate(zip(accounts, summaries)):
            assert plan.created_time[row] == summary.created_time
            assert plan.activity_end[row] == summary.activity_end
            assert bool(plan.is_fraud[row]) == summary.is_fraud_ground_truth
            assert plan.registration_day[row] == int(summary.created_time)
            if summary.shutdown_time is None:
                assert np.isnan(plan.shutdown_time[row])
            else:
                assert plan.shutdown_time[row] == summary.shutdown_time
            # Materialized accounts are exactly those that built offers
            # or ads; empties kept activity_end == created_time.
            if not plan.materialized[row]:
                assert account.activity_end == account.advertiser.created_time

    def test_registration_day_nondecreasing(self, population):
        engine, _, _ = population
        days = engine.population_plan.registration_day
        assert np.all(np.diff(days) >= 0)

    def test_day_slice_partitions_population(self, population):
        engine, _, summaries = population
        plan = engine.population_plan
        covered = 0
        for day in range(plan.days):
            sl = plan.day_slice(day)
            covered += sl.stop - sl.start
            for row in range(sl.start, sl.stop):
                assert int(summaries[row].created_time) == day
        assert covered == len(plan)

    def test_registrations_per_day_matches_slices(self, population):
        engine, _, _ = population
        plan = engine.population_plan
        per_day = plan.registrations_per_day()
        assert per_day.sum() == len(plan)
        for day in range(plan.days):
            sl = plan.day_slice(day)
            assert per_day[day] == sl.stop - sl.start

    def test_churn_and_shutdown_aggregates(self, population):
        engine, _, summaries = population
        plan = engine.population_plan
        churn = plan.churn_per_day()
        expected_churn = sum(
            1 for s in summaries if s.activity_end < float(plan.days)
        )
        assert churn.sum() == expected_churn
        shutdowns = plan.shutdowns_per_day()
        expected_shut = sum(
            1
            for s in summaries
            if s.shutdown_time is not None
            and s.shutdown_time < float(plan.days)
        )
        assert shutdowns.sum() == expected_shut

    def test_lifetime_is_end_minus_created(self, population):
        engine, _, _ = population
        plan = engine.population_plan
        np.testing.assert_array_equal(
            plan.lifetime, plan.activity_end - plan.created_time
        )


def test_recorder_round_trip():
    recorder = PlanRecorder(days=3)
    recorder.record(0, 0.25, 3.0, False, True, None)
    recorder.record(2, 2.5, 2.75, True, True, 2.75)
    assert len(recorder) == 2
    plan = recorder.build()
    assert plan.registration_day.dtype == np.int64
    assert plan.created_time.dtype == np.float64
    assert plan.is_fraud.dtype == np.bool_
    assert np.isnan(plan.shutdown_time[0])
    assert plan.shutdown_time[1] == 2.75
    assert plan.day_slice(1) == slice(1, 1)
    np.testing.assert_array_equal(plan.registrations_per_day(), [1, 0, 1])

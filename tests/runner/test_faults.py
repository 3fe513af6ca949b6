"""FaultPlan semantics: deterministic matching, one-shot firing."""

import pytest

from repro.runner import Fault, FaultPlan, InjectedCrash


class TestFaultMatching:
    def test_site_and_day_must_match(self):
        fault = Fault(site="phase3:day", day=7)
        assert fault.matches("phase3:day", 7)
        assert not fault.matches("phase3:day", 6)
        assert not fault.matches("phase3:checkpoint", 7)

    def test_day_none_matches_any_day(self):
        fault = Fault(site="phase1:day")
        assert fault.matches("phase1:day", 0)
        assert fault.matches("phase1:day", 99)


class TestFaultPlan:
    def test_inert_when_empty(self):
        FaultPlan().fire("phase3:day", day=3)  # no exception

    def test_crash_fires_exactly_once(self):
        plan = FaultPlan.crash_at("phase3:day", day=3)
        plan.fire("phase3:day", day=2)
        assert plan.pending  # not yet
        with pytest.raises(InjectedCrash, match="phase3:day day=3"):
            plan.fire("phase3:day", day=3)
        assert not plan.pending
        assert plan.fired[0].site == "phase3:day"
        plan.fire("phase3:day", day=3)  # consumed: inert on re-fire

    def test_faults_fire_in_plan_order(self):
        plan = FaultPlan(
            [Fault(site="phase3:day", day=5), Fault(site="phase3:day")]
        )
        with pytest.raises(InjectedCrash):
            plan.fire("phase3:day", day=5)
        # The wildcard fault is still pending for a later day.
        assert len(plan.pending) == 1
        with pytest.raises(InjectedCrash):
            plan.fire("phase3:day", day=6)
        assert not plan.pending

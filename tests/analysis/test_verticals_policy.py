"""Tests tying the vertical-spend analysis to the policy timeline."""

import pytest

from repro import run_simulation, small_config
from repro.analysis.verticals import vertical_spend_by_month


@pytest.fixture(scope="module")
def banned_result():
    config = small_config(seed=41, days=180).with_detection(
        techsupport_ban_day=90.0
    )
    return run_simulation(config)


class TestPolicyShape:
    def test_techsupport_present_before_ban(self, banned_result):
        series = vertical_spend_by_month(banned_result).series["techsupport"]
        assert series[:3].sum() > 0

    def test_techsupport_collapses_after_ban(self, banned_result):
        series = vertical_spend_by_month(banned_result).series["techsupport"]
        before = series[:3].mean()
        after = series[4:].mean()
        assert after < before

    def test_other_verticals_survive_ban(self, banned_result):
        all_series = vertical_spend_by_month(banned_result).series
        others = sum(
            values[4:].sum()
            for name, values in all_series.items()
            if name != "techsupport"
        )
        assert others > 0

    def test_new_entrants_adapt(self, banned_result):
        """Fraud registered well after the ban avoids the vertical."""
        adapted = [
            a
            for a in banned_result.accounts
            if a.is_fraud_ground_truth and a.created_time > 90.0 + 35.0
        ]
        assert adapted, "expected post-ban fraud registrations"
        offenders = [
            a for a in adapted if "techsupport" in a.verticals
        ]
        assert len(offenders) == 0

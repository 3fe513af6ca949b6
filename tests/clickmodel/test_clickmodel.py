"""Tests for the position-bias click model."""

import pytest

from repro.auction.slots import SlotPlacement
from repro.clickmodel import examination_probability
from repro.config import ClickConfig

CONFIG = ClickConfig()


class TestExamination:
    def test_top_slot_highest(self):
        top = examination_probability(SlotPlacement(1, True), CONFIG)
        second = examination_probability(SlotPlacement(2, True), CONFIG)
        assert top == pytest.approx(CONFIG.top_examination)
        assert second < top

    def test_mainline_decays_geometrically(self):
        p1 = examination_probability(SlotPlacement(1, True), CONFIG)
        p2 = examination_probability(SlotPlacement(2, True), CONFIG)
        p3 = examination_probability(SlotPlacement(3, True), CONFIG)
        assert p2 / p1 == pytest.approx(CONFIG.mainline_decay)
        assert p3 / p2 == pytest.approx(CONFIG.mainline_decay)

    def test_sidebar_much_weaker_than_mainline(self):
        mainline_last = examination_probability(SlotPlacement(4, True), CONFIG)
        sidebar_first = examination_probability(SlotPlacement(5, False), CONFIG)
        assert sidebar_first < mainline_last

    def test_sidebar_decays(self):
        near = examination_probability(SlotPlacement(2, False), CONFIG)
        far = examination_probability(SlotPlacement(8, False), CONFIG)
        assert far < near

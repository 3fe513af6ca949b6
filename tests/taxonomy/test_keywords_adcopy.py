"""Tests for keyword pools and ad-copy rendering."""

import pytest

from repro.matching.blacklist import Blacklist, contains_phone_number
from repro.taxonomy.adcopy import AdCopy, render_ad, sample_table2
from repro.taxonomy.keywords import (
    BRAND_TOKENS,
    DECORATOR_TOKENS,
    keyword_pool,
    keyword_weights,
    risky_keyword_mask,
)
from repro.taxonomy.verticals import vertical_names


class TestKeywordPools:
    def test_every_vertical_has_pool(self):
        for name in vertical_names():
            pool = keyword_pool(name)
            assert len(pool) >= 8
            assert all(isinstance(phrase, tuple) and phrase for phrase in pool)

    def test_unknown_vertical(self):
        with pytest.raises(KeyError):
            keyword_pool("nonexistent")

    def test_pool_unique(self):
        for name in ("downloads", "retail"):
            pool = keyword_pool(name)
            assert len(pool) == len(set(pool))

    def test_weights_align_and_normalize(self):
        for name in ("techsupport", "finance"):
            pool = keyword_pool(name)
            weights = keyword_weights(name)
            assert len(weights) == len(pool)
            assert weights.sum() == pytest.approx(1.0)
            # Zipf: head heavier than tail.
            assert weights[0] > weights[-1]

    def test_higher_exponent_more_concentrated(self):
        flat = keyword_weights("downloads", exponent=1.1)
        steep = keyword_weights("downloads", exponent=1.8)
        assert steep[0] > flat[0]

    def test_risky_mask(self):
        mask = risky_keyword_mask("impersonation")
        pool = keyword_pool("impersonation")
        assert len(mask) == len(pool)
        assert any(mask)  # brand-laden phrases exist
        mask_clean = risky_keyword_mask("weightloss")
        assert not any(mask_clean)

    def test_decorators_exist(self):
        assert "best" in DECORATOR_TOKENS
        assert len(set(DECORATOR_TOKENS)) == len(DECORATOR_TOKENS)


class TestAdCopy:
    def test_text_concatenates(self):
        copy = AdCopy("Title", "Body text.")
        assert copy.text() == "Title Body text."

    def test_render_known_vertical(self, rng):
        copy = render_ad("luxury", rng)
        assert copy.title and copy.body

    def test_render_unknown_falls_back(self, rng):
        copy = render_ad("some_new_vertical", rng)
        assert copy.title

    def test_evasive_techsupport_hides_phone(self, rng):
        for _ in range(20):
            copy = render_ad("techsupport", rng, evasive=True)
            assert not contains_phone_number(copy.text())

    def test_evasive_avoids_plain_brands(self, rng):
        blacklist = Blacklist.default()
        hits = 0
        for _ in range(40):
            copy = render_ad("luxury", rng, evasive=True)
            hits += bool(blacklist.term_hits(copy.text()))
        # Evasive luxury copy picks clean templates: no plain brand hits.
        assert hits == 0

    def test_nonevasive_sometimes_risky(self, rng):
        blacklist = Blacklist.default()
        hits = sum(
            bool(blacklist.term_hits(render_ad("luxury", rng).text()))
            for _ in range(60)
        )
        assert hits > 0

    def test_impersonation_stays_branded_even_evasive(self, rng):
        """The fraudster must name the brand to impersonate it; evasive
        rendering can only homoglyph it, not drop it."""
        blacklist = Blacklist.default()
        from repro.matching.evasion import deobfuscate

        caught_after_deobfuscation = 0
        for _ in range(30):
            copy = render_ad("impersonation", rng, evasive=True)
            if blacklist.term_hits(deobfuscate(copy.text())):
                caught_after_deobfuscation += 1
        assert caught_after_deobfuscation > 0


class TestTable2:
    def test_five_categories(self):
        rows = sample_table2()
        assert [r[0] for r in rows] == [
            "techsupport",
            "downloads",
            "luxury",
            "wrinkles",
            "impersonation",
        ]

    def test_rows_have_copy(self):
        for _, title, body in sample_table2():
            assert title and body

    def test_brand_tokens_fictional(self):
        """Table 2 uses stand-in brands, never real trademarks."""
        text = " ".join(t + " " + b for _, t, b in sample_table2()).lower()
        for real in ("coach ", "discord ", "target "):
            assert real not in text + " "
        assert any(token in text for token in BRAND_TOKENS)

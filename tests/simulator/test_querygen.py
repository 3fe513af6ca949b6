"""Tests for query generation, the match tables and the eligibility index."""

import numpy as np
import pytest

from repro import obs
from repro.config import QueryConfig, small_config
from repro.entities.enums import MatchType
from repro.matching.matcher import matches
from repro.records.codes import MATCH_CODES
from repro.records.impressions import ImpressionBuilder
from repro.simulator.engine import SimulationEngine
from repro.simulator.market import MarketIndex
from repro.simulator.querygen import (
    CellSampler,
    MatchTable,
    QuerySampler,
    eligibility_index,
    match_table,
)
from repro.taxonomy.keywords import keyword_pool, keyword_weights
from repro.taxonomy.verticals import VERTICALS

#: Query shapes in index order: (decorated, shuffled).
SHAPES = ((False, False), (True, False), (True, True))


def _slice(vertical: int, shape: int, seed: int):
    """The index's (kw, code) slice for one (vertical, shape, seed) slot."""
    index = eligibility_index()
    slot = index.slot_base[vertical] + shape * index.pool_size[vertical] + seed
    first, count = index.start[slot], index.count[slot]
    return index.kw[first : first + count], index.code[first : first + count]


def _reference_pairs(table: MatchTable, seed: int, decorated: bool, shuffled: bool):
    """Eligible (kw, code) arrays rebuilt one seed at a time from the tables."""
    kws, codes = [], []
    if not decorated and not shuffled:
        exact = np.flatnonzero(table.exact[:, seed])
        kws.append(exact)
        codes.append(np.full(len(exact), MATCH_CODES[MatchType.EXACT]))
    if not shuffled:
        phrase = np.flatnonzero(table.phrase[:, seed])
        kws.append(phrase)
        codes.append(np.full(len(phrase), MATCH_CODES[MatchType.PHRASE]))
    broad = np.flatnonzero(table.broad[:, seed])
    kws.append(broad)
    codes.append(np.full(len(broad), MATCH_CODES[MatchType.BROAD]))
    return (
        np.concatenate(kws).astype(np.int64),
        np.concatenate(codes).astype(np.int8),
    )


def _reference_day(config: QueryConfig, rng: np.random.Generator) -> list[tuple]:
    """One day of queries built one query at a time from the same draws.

    The per-query reference that ``QuerySampler.sample_day`` must
    reproduce column for column.  Rows are ``(cell, vertical, country,
    seed_index, decorated, shuffled, weight)``.
    """
    cells = CellSampler()
    seed_cdf = [np.cumsum(keyword_weights(v.name)) for v in VERTICALS]
    count = config.auctions_per_day
    cell_ids = cells.sample(rng, count)
    uniform = rng.random((count, 3))
    rows = []
    for index in range(count):
        vertical_code, country_code = cells.split(int(cell_ids[index]))
        seed_index = int(np.searchsorted(seed_cdf[vertical_code], uniform[index, 0]))
        seed_index = min(seed_index, len(seed_cdf[vertical_code]) - 1)
        decorated = uniform[index, 1] < config.decorate_prob
        shuffled = decorated and uniform[index, 2] < config.shuffle_prob
        factor = (
            config.tail_weight_factor if decorated else config.head_weight_factor
        )
        rows.append(
            (
                int(cell_ids[index]),
                vertical_code,
                country_code,
                seed_index,
                bool(decorated),
                bool(shuffled),
                config.volume_weight * factor,
            )
        )
    return rows


class TestMatchTable:
    def test_agrees_with_matcher(self):
        """The table must reproduce the real matcher on pool pairs."""
        name = "weightloss"
        pool = keyword_pool(name)
        table = match_table(name)
        for kw_index, keyword in enumerate(pool):
            for seed_index, seed in enumerate(pool):
                assert table.exact[kw_index, seed_index] == matches(
                    keyword, MatchType.EXACT, seed
                )
                assert table.phrase[kw_index, seed_index] == matches(
                    keyword, MatchType.PHRASE, seed
                )
                assert table.broad[kw_index, seed_index] == matches(
                    keyword, MatchType.BROAD, seed
                )

    def test_diagonal_always_eligible(self):
        table = match_table("downloads")
        size = len(keyword_pool("downloads"))
        for index in range(size):
            assert table.exact[index, index]
            assert table.phrase[index, index]
            assert table.broad[index, index]

    def test_exact_requires_plain_query(self):
        table = match_table("downloads")
        assert table.eligible(0, MATCH_CODES[MatchType.EXACT], 0, False, False)
        assert not table.eligible(0, MATCH_CODES[MatchType.EXACT], 0, True, False)
        assert not table.eligible(0, MATCH_CODES[MatchType.EXACT], 0, True, True)

    def test_phrase_survives_decoration_not_shuffle(self):
        table = match_table("downloads")
        assert table.eligible(0, MATCH_CODES[MatchType.PHRASE], 0, True, False)
        assert not table.eligible(0, MATCH_CODES[MatchType.PHRASE], 0, True, True)

    def test_broad_survives_shuffle(self):
        table = match_table("downloads")
        assert table.eligible(0, MATCH_CODES[MatchType.BROAD], 0, True, True)

    def test_eligible_pairs_consistent(self):
        table = match_table("luxury")
        luxury = [v.name for v in VERTICALS].index("luxury")
        kws, codes = _slice(luxury, 0, 0)
        assert len(kws)
        for kw_index, code in zip(kws.tolist(), codes.tolist()):
            assert table.eligible(kw_index, code, 0, False, False)
        # Shuffled queries only produce broad pairs.
        _, codes = _slice(luxury, 2, 0)
        assert set(codes.tolist()) == {MATCH_CODES[MatchType.BROAD]}


class TestEligibilityIndex:
    def test_slices_match_per_seed_reference(self):
        """Every slot holds its seed's pairs in exact, phrase, broad order."""
        for vertical, info in enumerate(VERTICALS):
            table = match_table(info.name)
            for shape, (decorated, shuffled) in enumerate(SHAPES):
                for seed in range(len(keyword_pool(info.name))):
                    kws, codes = _slice(vertical, shape, seed)
                    ref_kws, ref_codes = _reference_pairs(
                        table, seed, decorated, shuffled
                    )
                    assert kws.dtype == np.int64 and codes.dtype == np.int8
                    np.testing.assert_array_equal(kws, ref_kws)
                    np.testing.assert_array_equal(codes, ref_codes)
                    for kw_index, code in zip(kws.tolist(), codes.tolist()):
                        assert table.eligible(
                            kw_index, code, seed, decorated, shuffled
                        )

    def test_pairs_gathers_each_query_slice_in_order(self, rng):
        index = eligibility_index()
        batch = QuerySampler(QueryConfig(auctions_per_day=300)).sample_day(rng)
        query, kws, codes = index.pairs(batch)
        assert np.all(np.diff(query) >= 0)
        shapes = batch.decorated.astype(int) + batch.shuffled
        for row in range(len(batch)):
            ref_kws, ref_codes = _slice(
                int(batch.vertical[row]), int(shapes[row]), int(batch.seed_index[row])
            )
            np.testing.assert_array_equal(kws[query == row], ref_kws)
            np.testing.assert_array_equal(codes[query == row], ref_codes)


class TestCellSampler:
    def test_split_roundtrip(self):
        cells = CellSampler()
        for cell_id in (0, 5, cells.n_cells - 1):
            vertical, country = cells.split(cell_id)
            assert cells.cell_of(vertical, country) == cell_id

    def test_sampling_follows_volume(self, rng):
        cells = CellSampler()
        samples = cells.sample(rng, 20_000)
        counts = np.bincount(samples, minlength=cells.n_cells)
        probs = cells.cell_probabilities()
        top_expected = int(np.argmax(probs))
        assert counts[top_expected] == counts.max()


class TestQuerySampler:
    def test_day_sample_size(self, rng):
        sampler = QuerySampler(QueryConfig(auctions_per_day=37))
        queries = sampler.sample_day(rng)
        assert len(queries) == 37

    def test_query_fields_valid(self, rng):
        sampler = QuerySampler(QueryConfig(auctions_per_day=500))
        batch = sampler.sample_day(rng)
        assert np.all((batch.vertical >= 0) & (batch.vertical < len(VERTICALS)))
        pool_sizes = np.array([len(keyword_pool(v.name)) for v in VERTICALS])
        assert np.all(batch.seed_index >= 0)
        assert np.all(batch.seed_index < pool_sizes[batch.vertical])
        assert np.all(batch.weight > 0)
        assert np.all(batch.decorated[batch.shuffled])

    def test_decoration_rate(self, rng):
        config = QueryConfig(auctions_per_day=4000, decorate_prob=0.4)
        sampler = QuerySampler(config)
        batch = sampler.sample_day(rng)
        rate = np.mean(batch.decorated)
        assert rate == pytest.approx(0.4, abs=0.04)

    def test_no_decoration_when_disabled(self, rng):
        config = QueryConfig(decorate_prob=0.0)
        sampler = QuerySampler(config)
        assert not sampler.sample_day(rng).decorated.any()

    @pytest.mark.parametrize(
        "config",
        [
            QueryConfig(),
            QueryConfig(auctions_per_day=1),
            QueryConfig(auctions_per_day=3120),
            QueryConfig(decorate_prob=0.0),
            QueryConfig(decorate_prob=1.0, shuffle_prob=1.0),
        ],
        ids=["default", "one", "dense", "undecorated", "all-shuffled"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 20170101])
    def test_columns_equal_per_query_draws(self, config, seed):
        """Same columns, same draws as sampling one query at a time."""
        ref_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        expected = _reference_day(config, ref_rng)
        batch = QuerySampler(config).sample_day(rng)
        columns = (
            batch.cell,
            batch.vertical,
            batch.country,
            batch.seed_index,
            batch.decorated,
            batch.shuffled,
            batch.weight,
        )
        assert list(zip(*(column.tolist() for column in columns))) == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestStreamCounters:
    def test_counters_count_queries_and_gathered_keys(self, monkeypatch):
        config = small_config(seed=5, days=12)
        engine = SimulationEngine(config)
        accounts, _ = engine.generate_population()
        market = MarketIndex(accounts)
        calls = []
        sample_day = QuerySampler.sample_day

        def counted(self, rng):
            calls.append(rng)
            return sample_day(self, rng)

        monkeypatch.setattr(QuerySampler, "sample_day", counted)
        matched = obs.metrics().counter("matching.candidates_matched")
        sampled = obs.metrics().counter("auction.queries_sampled")
        matched_before, sampled_before = matched.value, sampled.value
        with obs.capture() as sink:
            engine.run_auctions(market, ImpressionBuilder())
        keys = sum(
            event["attrs"]["keys"]
            for event in sink.events
            if event["kind"] == "span" and event["name"] == "auction.gather"
        )
        assert calls and keys > 0
        assert matched.value - matched_before == keys
        assert (
            sampled.value - sampled_before
            == config.query.auctions_per_day * len(calls)
        )

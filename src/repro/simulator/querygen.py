"""Sampled query stream and pre-computed match tables.

Queries are sampled per (vertical, country) cell proportionally to the
joint search volume.  Each query starts from a *seed* keyword phrase in
the vertical's pool and is optionally decorated with extra tokens
(exercising phrase/broad matching) or shuffled (only broad survives a
reorder).  A day's queries come back as one :class:`QueryBatch` of
parallel columns, never one object per search.

Eligibility of a (keyword, match-type) offer for a query depends only
on (vertical, seed, decorated, shuffled), so per vertical we pre-compute
a match table over pool x pool pairs using the real matcher, and
:class:`EligibilityIndex` flattens every vertical's tables into one CSR
index of eligible pairs per (vertical, query shape, seed): a whole
day's candidate pairs are one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import obs
from ..config import QueryConfig
from ..entities.enums import MatchType
from ..matching.matcher import broad_match, exact_match, phrase_match
from ..records.codes import MATCH_CODES
from ..taxonomy.geography import COUNTRIES
from ..taxonomy.keywords import keyword_pool, keyword_weights
from ..taxonomy.verticals import VERTICALS

__all__ = [
    "QueryBatch",
    "MatchTable",
    "match_table",
    "EligibilityIndex",
    "eligibility_index",
    "CellSampler",
    "QuerySampler",
]

# Observability handle (repro.obs): candidate (keyword, match-type)
# pairs matched, bumped once per gathered day.  A plain attribute add
# -- no RNG contact.
_CANDIDATES_MATCHED = obs.counter("matching.candidates_matched")


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """One day's sampled query instances, as parallel columns.

    Row ``i`` stands in for ``weight[i]`` searches in cell ``cell[i]``
    (split into ``vertical[i]`` and ``country[i]``), seeded by pool
    phrase ``seed_index[i]`` of its vertical.  ``shuffled`` implies
    ``decorated``.
    """

    cell: np.ndarray
    vertical: np.ndarray
    country: np.ndarray
    seed_index: np.ndarray
    decorated: np.ndarray
    shuffled: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.cell)


class MatchTable:
    """Per-vertical eligibility of (keyword, match type) offers.

    ``eligible(kw, match_code, seed, decorated, shuffled)`` answers: is
    an offer on pool keyword ``kw`` with the given match type eligible
    for a query seeded by pool phrase ``seed``?

    * Exact: keyword == query, so only undecorated, unshuffled queries
      whose seed equals the keyword.
    * Phrase: keyword contiguous in query; decoration appends tokens
      outside the seed so contiguity within the seed is what matters;
      a shuffle breaks ordering.
    * Broad: keyword tokens (or synonyms) anywhere in the query;
      order-insensitive so shuffles are fine.
    """

    def __init__(self, vertical_name: str) -> None:
        pool = keyword_pool(vertical_name)
        size = len(pool)
        self.exact = np.zeros((size, size), dtype=bool)
        self.phrase = np.zeros((size, size), dtype=bool)
        self.broad = np.zeros((size, size), dtype=bool)
        for kw_index, keyword in enumerate(pool):
            for seed_index, seed in enumerate(pool):
                self.exact[kw_index, seed_index] = exact_match(keyword, seed)
                self.phrase[kw_index, seed_index] = phrase_match(keyword, seed)
                self.broad[kw_index, seed_index] = broad_match(keyword, seed)

    def eligible(
        self,
        kw_index: int,
        match_code: int,
        seed_index: int,
        decorated: bool,
        shuffled: bool,
    ) -> bool:
        if match_code == MATCH_CODES[MatchType.EXACT]:
            return (
                not decorated
                and not shuffled
                and bool(self.exact[kw_index, seed_index])
            )
        if match_code == MATCH_CODES[MatchType.PHRASE]:
            return not shuffled and bool(self.phrase[kw_index, seed_index])
        return bool(self.broad[kw_index, seed_index])


@lru_cache(maxsize=None)
def match_table(vertical_name: str) -> MatchTable:
    """Cached match table for a vertical."""
    return MatchTable(vertical_name)


class EligibilityIndex:
    """Every vertical's eligible (keyword, match code) pairs, as one CSR index.

    A query's *shape* is 0 (plain), 1 (decorated) or 2 (decorated and
    shuffled).  Slot ``slot_base[v] + shape * pool_size[v] + seed``
    holds the pairs eligible for a query of vertical ``v`` seeded by
    pool phrase ``seed``: ``kw[start[slot]:start[slot] + count[slot]]``
    (int64 keyword indices) and the same slice of ``code`` (int8 match
    codes), exact matches first (ascending keyword index), then phrase,
    then broad.  Read-only once built.
    """

    def __init__(self) -> None:
        exact = MATCH_CODES[MatchType.EXACT]
        phrase = MATCH_CODES[MatchType.PHRASE]
        broad = MATCH_CODES[MatchType.BROAD]
        sizes: list[int] = []
        counts: list[np.ndarray] = []
        kws: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        for vertical in VERTICALS:
            table = match_table(vertical.name)
            size = len(table.exact)
            # eligible[shape, seed, code, kw]; np.nonzero walks it in C
            # order, which is slot order, then match code (exact <
            # phrase < broad), then keyword index.
            eligible = np.zeros((3, size, 3, size), dtype=bool)
            eligible[0, :, exact] = table.exact.T
            eligible[:2, :, phrase] = table.phrase.T
            eligible[:, :, broad] = table.broad.T
            _, _, code, kw = np.nonzero(eligible)
            sizes.append(size)
            counts.append(eligible.reshape(3 * size, -1).sum(axis=1))
            kws.append(kw)
            codes.append(code)
        self.pool_size = np.array(sizes, dtype=np.int64)
        self.slot_base = np.cumsum(3 * self.pool_size) - 3 * self.pool_size
        self.count = np.concatenate(counts).astype(np.int64)
        self.start = np.cumsum(self.count) - self.count
        self.kw = np.concatenate(kws).astype(np.int64)
        self.code = np.concatenate(codes).astype(np.int8)
        for column in (
            self.pool_size, self.slot_base, self.count, self.start, self.kw, self.code
        ):
            column.setflags(write=False)

    def slots(self, batch: QueryBatch) -> np.ndarray:
        """The index slot of every query in ``batch``."""
        vertical = batch.vertical
        shape = batch.decorated.astype(np.int64) + batch.shuffled
        return (
            self.slot_base[vertical]
            + shape * self.pool_size[vertical]
            + batch.seed_index
        )

    def pairs(self, batch: QueryBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(query, kw, code)`` of every eligible pair of every query.

        Query-major, each query's pairs in slot order; one gather for
        the whole batch.
        """
        slots = self.slots(batch)
        counts = self.count[slots]
        query = np.repeat(np.arange(len(slots)), counts)
        # Position of each pair in kw/code: its slot's start plus its
        # offset within the query's run of pairs.
        shift = self.start[slots] - (np.cumsum(counts) - counts)
        position = np.repeat(shift, counts) + np.arange(len(query))
        _CANDIDATES_MATCHED.inc(len(query))
        return query, self.kw[position], self.code[position]


@lru_cache(maxsize=None)
def eligibility_index() -> EligibilityIndex:
    """The cached eligibility index, built on first use."""
    return EligibilityIndex()


class CellSampler:
    """Samples (vertical, country) cells by joint query volume."""

    def __init__(self) -> None:
        vertical_volumes = np.array([v.query_volume for v in VERTICALS])
        country_volumes = np.array([c.query_volume for c in COUNTRIES])
        joint = np.outer(vertical_volumes, country_volumes).ravel()
        self._probs = joint / joint.sum()
        self._n_countries = len(COUNTRIES)

    @property
    def n_cells(self) -> int:
        """Total number of (vertical, country) cells."""
        return len(self._probs)

    def cell_probabilities(self) -> np.ndarray:
        """Per-cell sampling probabilities (copy)."""
        return self._probs.copy()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Cell ids (vertical_code * n_countries + country_code)."""
        return rng.choice(self.n_cells, size=size, p=self._probs)

    def split(self, cell_id: int | np.ndarray) -> tuple:
        """(vertical code, country code) of a cell id, or of an array of them."""
        return divmod(cell_id, self._n_countries)

    @staticmethod
    def cell_of(vertical_code: int, country_code: int) -> int:
        """Cell id of a (vertical, country) pair."""
        return vertical_code * len(COUNTRIES) + country_code


class QuerySampler:
    """Generates the day's query instances."""

    def __init__(self, config: QueryConfig) -> None:
        self._config = config
        self._cells = CellSampler()
        # Cumulative keyword popularity per vertical for fast seed draws.
        self._seed_cdf = [
            np.cumsum(keyword_weights(v.name)) for v in VERTICALS
        ]

    @property
    def cells(self) -> CellSampler:
        """The underlying cell sampler."""
        return self._cells

    def sample_day(self, rng: np.random.Generator) -> QueryBatch:
        """All query instances for one day.

        Two draws on ``rng``: the cells, then one ``(count, 3)`` block
        of uniforms (seed pick, decoration, shuffle) per query.
        """
        config = self._config
        count = config.auctions_per_day
        cell = self._cells.sample(rng, count)
        uniform = rng.random((count, 3))
        vertical, country = self._cells.split(cell)
        seed_index = np.empty(count, dtype=np.int64)
        for code, cdf in enumerate(self._seed_cdf):
            mask = vertical == code
            seed_index[mask] = np.minimum(
                np.searchsorted(cdf, uniform[mask, 0]), len(cdf) - 1
            )
        decorated = uniform[:, 1] < config.decorate_prob
        shuffled = decorated & (uniform[:, 2] < config.shuffle_prob)
        weight = np.where(
            decorated,
            config.volume_weight * config.tail_weight_factor,
            config.volume_weight * config.head_weight_factor,
        )
        return QueryBatch(
            cell=cell,
            vertical=vertical,
            country=country,
            seed_index=seed_index,
            decorated=decorated,
            shuffled=shuffled,
            weight=weight,
        )

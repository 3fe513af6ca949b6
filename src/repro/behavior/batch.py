"""Batched account materialization (the Phase-1 hot path).

:func:`materialize_account_batch` is a draw-for-draw replay of
:func:`repro.behavior.factory.materialize_account` that produces
bit-identical output -- the same account columns and offers, the same
RNG stream state afterwards -- at a fraction of the cost.  The scalar
factory is retained as the differential oracle; the equivalence rests
on a small set of numpy facts the tests pin down:

* ``Generator.random(n)`` yields the same doubles as ``n`` successive
  ``Generator.random()`` calls, so a run of consecutive same-stream
  uniform draws can be issued as one array call.
* ``Generator.choice(n, p=w)`` consumes exactly one uniform and inverts
  it through ``w``'s normalized cumulative sum with a right-sided
  ``searchsorted`` -- precomputing that CDF (see
  :func:`repro.rng.choice_cdf`) replaces each ``choice`` call, value
  and state, without re-validating ``p`` every time.
* ``bisect.bisect_right`` on the CDF as a Python list returns the same
  index as the array ``searchsorted`` (both are right-sided binary
  searches over the identical float64 values), at a fraction of the
  call overhead -- the per-bid match-type draw uses it.

Draws that cannot batch -- ones whose *presence* depends on an earlier
draw, like the brand-avoidance re-draw or the per-entity maintenance
schedule -- stay scalar but drop the per-call fat: cached CDF tables
instead of ``choice``'s argument validation, tuple lookups instead of
per-call dict construction.  The draw loop records plain columns (pool
indices, match codes, floats) into the
:class:`~repro.behavior.factory.MaterializedAccount` both materializers
fill.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .. import obs
from ..auction.quality import MATCH_RELEVANCE
from ..config import SimulationConfig
from ..entities.enums import MatchType
from ..taxonomy.adcopy import render_ad, templates_for
from ..taxonomy.geography import country as country_info
from ..taxonomy.keywords import evasive_keyword_tables, keyword_cdf
from ..taxonomy.verticals import vertical as vertical_info
from .factory import (
    FRAUD_KEYWORD_ZIPF,
    MAX_INDEXED_OFFERS_PER_CAMPAIGN,
    IdAllocator,
    MaterializedAccount,
    _creation_times,
    _destination_domains,
)

__all__ = ["materialize_account_batch"]

#: Match types in stream-draw order; index ``i`` is also the match code
#: (:data:`repro.records.codes.MATCH_CODES` uses the same ordering).
_MATCH_TYPES: tuple[MatchType, ...] = (
    MatchType.EXACT,
    MatchType.PHRASE,
    MatchType.BROAD,
)
_MATCH_RELEVANCE: tuple[float, ...] = tuple(
    MATCH_RELEVANCE[mt] for mt in _MATCH_TYPES
)

# Observability handles (repro.obs): plain attribute bumps driven by
# values the draw loop computed anyway -- no RNG stream is touched.
# ``draws_recorded`` counts recorded draw columns (ad creations,
# keyword picks, maintenance events).
_ACCOUNTS_MATERIALIZED = obs.counter("population.accounts_materialized")
_DRAWS_RECORDED = obs.counter("population.draws_recorded")


def materialize_account_batch(
    account: MaterializedAccount,
    first_ad_time: float,
    horizon: float,
    config: SimulationConfig,
    ids: IdAllocator,
    rng: np.random.Generator,
) -> None:
    """Draw an account's ads and keyword bids into ``account`` -- fast.

    Bit-identical to :func:`repro.behavior.factory.materialize_account`:
    the same columns, and the same ``rng`` state afterwards.
    """
    profile = account.profile
    account.first_ad_time = first_ad_time
    n_ads = profile.n_ads
    domains = _destination_domains(profile, n_ads, rng)
    ad_times = _creation_times(n_ads, first_ad_time, horizon, rng)
    # Evasion is an operator *style*, decided once per account (same
    # short-circuit as the scalar path: no draw for legitimate accounts).
    evasive = profile.is_fraud and rng.random() < profile.evasion_skill

    is_fraud = profile.is_fraud
    evasion_skill = profile.evasion_skill
    exponent = FRAUD_KEYWORD_ZIPF if is_fraud else 1.1
    # Per-campaign lookup tables and accumulators, unpacked per ad in
    # the hot loop.  Keyword picks and match types are recorded as pool
    # indices / match codes.
    preps = []
    for vertical_name in profile.verticals:
        avoid = (
            is_fraud
            and evasion_skill > 0
            and vertical_name not in ("impersonation", "phishing")
        )
        kcdf = keyword_cdf(vertical_name, exponent)
        if avoid:
            risky, safe, safe_cdf = evasive_keyword_tables(
                vertical_name, exponent
            )
            safe = safe.tolist()
            safe_cdf = safe_cdf.tolist()
        else:
            risky = safe = safe_cdf = None
        kw_idx_col: list[int] = []
        mcode_col: list[int] = []
        max_bid_col: list[float] = []
        created_col: list[float] = []
        account.kw_idx_cols.append(kw_idx_col)
        account.mcode_cols.append(mcode_col)
        account.max_bid_cols.append(max_bid_col)
        account.created_cols.append(created_col)
        preps.append(
            (
                vertical_name,
                vertical_info(vertical_name).base_ctr,
                templates_for(vertical_name),
                kcdf,
                kcdf.tolist(),
                avoid,
                risky,
                safe,
                safe_cdf,
                kw_idx_col,
                mcode_col,
                max_bid_col,
                created_col,
            )
        )

    n_campaigns = len(preps)
    n_domains = len(domains)
    kw_per_ad = profile.kw_per_ad
    mod_rate = profile.mod_rate_per_entity
    default_bid = config.auction.default_max_bid
    default_clamped = max(0.05, default_bid)
    levels = profile.bid_levels
    mult_table = (levels.exact, levels.phrase, levels.broad)
    mcdf = profile.match_mix.cdf().tolist()
    rel = _MATCH_RELEVANCE
    max_indexed = MAX_INDEXED_OFFERS_PER_CAMPAIGN
    aq_rank = profile.quality * profile.rank_gaming

    rand = rng.random
    lognormal = rng.lognormal
    normal = rng.normal
    poisson = rng.poisson
    uniform = rng.uniform
    integers = rng.integers
    np_exp = np.exp
    bisect = bisect_right

    ad_ids = [ids.ad_id() for _ in range(n_ads)]
    copies = account.ad_copies
    kw_creation_times = account.kw_creation_times
    ad_mod_times = account.ad_mod_times
    kw_mod_times = account.kw_mod_times
    indexed = [0] * n_campaigns
    offer_append = account.offers.append

    for ad_index, created in enumerate(ad_times):
        pos = ad_index % n_campaigns
        (
            vertical_name,
            base_ctr,
            templates,
            kcdf,
            kcdf_list,
            avoid,
            risky,
            safe,
            safe_cdf,
            kw_idx_col,
            mcode_col,
            max_bid_col,
            created_col,
        ) = preps[pos]
        if evasive:
            copy = render_ad(vertical_name, rng, evasive=True)
        else:
            copy = templates[int(integers(len(templates)))]
        engagement = float(lognormal(0.0, 0.25))
        copies.append(copy)

        span = horizon - created
        has_mods = span > 0 and mod_rate > 0
        if has_mods:
            rate_span = mod_rate * span
            count = poisson(rate_span)
            if count:
                ad_mod_times += uniform(created, horizon, size=int(count)).tolist()
        else:
            rate_span = 0.0

        if avoid:
            picks = []
            n_safe = len(safe)
            for _ in range(kw_per_ad):
                index = bisect(kcdf_list, rand())
                if risky[index] and rand() < evasion_skill:
                    if n_safe:
                        index = safe[bisect(safe_cdf, rand())]
                picks.append(index)
        elif kw_per_ad <= 16:
            picks = [bisect(kcdf_list, u) for u in rand(kw_per_ad).tolist()]
        else:
            picks = kcdf.searchsorted(rand(kw_per_ad), side="right").tolist()

        ad_id = ad_ids[ad_index]
        quality_base = aq_rank * engagement * base_ctr
        n_indexed = indexed[pos]
        n_before = len(max_bid_col)
        kw_append = kw_idx_col.append
        mc_append = mcode_col.append
        mb_append = max_bid_col.append
        seen: set[int] = set()
        seen_add = seen.add
        for kw_index in picks:
            match_idx = bisect(mcdf, rand())
            key = kw_index * 3 + match_idx
            if key in seen:
                continue
            seen_add(key)
            multiplier = mult_table[match_idx]
            if multiplier == 1.0:
                max_bid = default_clamped
            else:
                max_bid = max(
                    0.05,
                    default_bid * multiplier * float(np_exp(normal(0.0, 0.15))),
                )
            kw_append(kw_index)
            mc_append(match_idx)
            mb_append(max_bid)
            if has_mods:
                count = poisson(rate_span)
                if count:
                    kw_mod_times += uniform(
                        created, horizon, size=int(count)
                    ).tolist()
            if n_indexed < max_indexed:
                offer_append(
                    (
                        ad_id,
                        pos,
                        kw_index,
                        match_idx,
                        max_bid,
                        quality_base * rel[match_idx],
                        created,
                    )
                )
                n_indexed += 1
        indexed[pos] = n_indexed
        n_accepted = len(max_bid_col) - n_before
        if n_accepted:
            chunk = [created] * n_accepted
            created_col += chunk
            kw_creation_times += chunk

    _ACCOUNTS_MATERIALIZED.inc()
    _DRAWS_RECORDED.inc(
        n_ads + len(kw_creation_times) + len(ad_mod_times) + len(kw_mod_times)
    )
    for target in profile.target_countries:
        country_info(target)
    account.ad_ids = ad_ids
    account.ad_domains = [domains[i % n_domains] for i in range(n_ads)]
    account.ad_creation_times = ad_times

"""The simulation engine.

Runs in three phases:

1. **Population** -- day by day, sample registrations, build profiles,
   materialize campaigns/ads/keyword bids, and run the detection
   pipeline.  Detection outcomes depend only on account attributes and
   the policy timeline, so the full population (with shutdown times)
   can be generated before any auction runs.  A detection sampled to
   land *after* the study end is discarded: that account is analysed
   as non-fraudulent, exactly as undetected fraud is at Bing.
   Each registration is one
   :class:`~repro.behavior.factory.MaterializedAccount`, trimmed and
   summarized as soon as its draws are done, in the same pass; only
   its summary, its identity and outcome fields, its profile and its
   auction offers outlive its turn, so no per-ad or per-bid column is
   held across the horizon.  Materialization runs through the batched
   path (:func:`~repro.behavior.batch.materialize_account_batch`): grouped
   numpy draws on the same named streams in the same draw order as the
   scalar factory, so the population -- and everything downstream --
   is bit-identical to :meth:`SimulationEngine.generate_population_scalar`,
   the retained differential oracle.
2. **Market build** -- flatten every keyword offer into the vectorized
   :class:`~repro.simulator.market.MarketIndex`.
3. **Auctions** -- for each day, compute live offers, sample the query
   stream, run GSP auctions, sample clicks, and append impression rows.

Phase 3 is array-native: each day's queries arrive as one columnar
:class:`~repro.simulator.querygen.QueryBatch`, their eligible
(keyword, match) pairs come from one gather on the flat
:class:`~repro.simulator.querygen.EligibilityIndex`, and the resulting
candidate batch (market row indices, no per-query or per-candidate
objects) is ranked and priced by the batched kernel in
:mod:`repro.auction.batch`; clicks are drawn with a single vectorized
Poisson call, and rows land in the
:class:`~repro.records.impressions.ImpressionBuilder` as one numpy
chunk per day.  The pre-vectorization scalar loop is retained as
:meth:`SimulationEngine.run_auctions_scalar` -- it is the differential
oracle the batched path is tested against, and because the batched path
replays the scalar path's RNG draws in the same order on the same
streams, both produce bit-identical impression tables.
"""

from __future__ import annotations

import gc
from itertools import chain

import numpy as np

from .. import obs
from ..auction.batch import run_auction_batch
from ..auction.gsp import Candidate, run_auction
from ..behavior.batch import materialize_account_batch
from ..behavior.factory import IdAllocator, MaterializedAccount, materialize_account
from ..behavior.fraudulent import sample_fraud_profile
from ..behavior.legitimate import sample_legitimate_profile
from ..behavior.profiles import AdvertiserProfile
from ..clickmodel.position_bias import examination_probability, examination_table
from ..config import SimulationConfig
from ..detection.pipeline import DetectionOutcome, DetectionPipeline
from ..entities.enums import ShutdownReason
from ..errors import SimulationError
from ..records.codes import match_code, match_type_from_code
from ..records.impressions import ImpressionBuilder, ImpressionTable
from ..records.schemas import DetectionRecord
from ..rng import stream
from ..taxonomy.geography import country as country_info
from .market import MarketIndex, bucket_keys
from .querygen import EligibilityIndex, QuerySampler, eligibility_index
from .registration import FraudShareSchedule, sample_daily_counts
from .results import AccountSummary, SimulationResult

__all__ = ["RNG_STREAMS", "SimulationEngine", "run_simulation"]

#: The five named RNG streams every run draws from, in a stable order.
#: The checkpoint runner serializes the ``bit_generator`` state of each
#: one at every checkpoint; restoring them is what makes an
#: interrupted-and-resumed run bit-identical to an uninterrupted one.
RNG_STREAMS: tuple[str, ...] = (
    "population",
    "detection",
    "market",
    "queries",
    "clicks",
)

#: Mean days before a legitimate account goes dormant (stops running
#: campaigns) -- keeps the active population roughly stationary.
LEGIT_DORMANCY_MEAN_DAYS = 300.0

# Observability handles (repro.obs).  Counter bumps are plain
# attribute adds and never touch the named RNG streams; spans use the
# monotonic clock only.  A traced run is bit-identical to an untraced
# one -- tests/obs/test_determinism.py pins that invariant.
_ROWS_EMITTED = obs.counter("auction.rows_emitted")
_QUERIES_SAMPLED = obs.counter("auction.queries_sampled")
_CANDIDATES_GATHERED = obs.counter("auction.candidates_gathered")
_CLICK_DRAWS = obs.counter("clicks.poisson_draws")
_CLICKS_DRAWN = obs.counter("clickmodel.clicks_drawn")
#: Days after a policy ban before new fraud entrants stop choosing the
#: banned vertical (word gets around the affiliate forums).
POLICY_LEARNING_LAG_DAYS = 30.0


def _day_throughput(days_done: int, days_total: int, elapsed: float) -> dict:
    """Heartbeat throughput/ETA attrs from a phase's day progress.

    ``{}`` when no time has elapsed yet (first heartbeat on a very
    coarse clock) so the event simply omits the fields rather than
    reporting an infinite rate.
    """
    if elapsed <= 0 or days_done <= 0:
        return {}
    rate = days_done / elapsed
    return {
        "days_per_sec": round(rate, 3),
        "eta_s": round(max(0, days_total - days_done) / rate, 1),
    }


class SimulationEngine:
    """Orchestrates one full simulation run."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        seed = config.seed
        self._rng_population = stream(seed, "population")
        self._rng_detection = stream(seed, "detection")
        self._rng_market = stream(seed, "market")
        self._rng_queries = stream(seed, "queries")
        self._rng_clicks = stream(seed, "clicks")
        self.pipeline = DetectionPipeline(
            config.detection, config.query, float(config.days)
        )
        self._ids = IdAllocator()
        self._next_advertiser_id = 0

    # ------------------------------------------------------------------
    # RNG stream state (checkpoint/resume support)
    # ------------------------------------------------------------------

    def _streams(self) -> dict[str, np.random.Generator]:
        return {
            "population": self._rng_population,
            "detection": self._rng_detection,
            "market": self._rng_market,
            "queries": self._rng_queries,
            "clicks": self._rng_clicks,
        }

    def rng_state(self) -> dict[str, dict]:
        """JSON-serializable ``bit_generator`` states of all five streams."""
        return {
            name: gen.bit_generator.state
            for name, gen in self._streams().items()
        }

    def set_rng_state(self, states: dict[str, dict]) -> None:
        """Restore stream states captured by :meth:`rng_state`; a
        malformed one raises :class:`SimulationError` naming its stream."""
        streams = self._streams()
        if not isinstance(states, dict) or set(states) != set(streams):
            got = sorted(states) if isinstance(states, dict) else type(states).__name__
            raise SimulationError(
                f"rng state must map exactly the streams {sorted(streams)}, got {got}"
            )
        for name, generator in streams.items():
            try:
                generator.bit_generator.state = states[name]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SimulationError(
                    f"rng state of stream {name!r} is malformed: {exc!r}"
                ) from None

    # ------------------------------------------------------------------
    # Phase 1: population
    # ------------------------------------------------------------------

    def _plan_account(
        self,
        profile: AdvertiserProfile,
        created_time: float,
        materializer=materialize_account_batch,
    ) -> MaterializedAccount:
        """Register one account and make every RNG draw it takes.

        Builds the account's one :class:`MaterializedAccount` and
        performs the draw-bearing half of account generation -- screen,
        materialize, evaluate, commit, dormancy -- in the canonical
        per-account order, filling in its first-ad time, detection
        outcome and ``activity_end``.  An account screened out or
        registered too late to post keeps empty columns.
        :meth:`_finish_account` (trim, summary, free), which draws
        nothing, finishes it.
        """
        total_days = float(self.config.days)
        rng_d = self._rng_detection
        rng_p = self._rng_population
        self._next_advertiser_id += 1
        account = MaterializedAccount(
            advertiser_id=self._next_advertiser_id,
            profile=profile,
            created_time=created_time,
            activity_end=total_days,
        )

        if profile.is_fraud:
            screen_time = self.pipeline.screen_registration(
                profile, created_time, rng_d
            )
            if screen_time is not None:
                # A freeze that lands after the study ends leaves, within
                # the study, a pending registration that never posts.
                if screen_time < total_days:
                    screened = DetectionOutcome(
                        screen_time, ShutdownReason.REGISTRATION_SCREEN, True
                    )
                    self._shut_down(account, screened)
                return account

        first_ad_time = created_time + profile.first_ad_delay
        if first_ad_time >= total_days:
            return account

        materializer(
            account, first_ad_time, total_days, self.config, self._ids, rng_p
        )
        if profile.is_fraud:
            outcome = self.pipeline.evaluate_fraud_account(
                account, first_ad_time, rng_d
            )
        else:
            outcome = self.pipeline.evaluate_legitimate_account(
                created_time, rng_d, total_days
            )
        if outcome.detected and outcome.shutdown_time < total_days:
            self._shut_down(account, outcome, sorted(set(account.ad_domains)))
        elif not profile.is_fraud:
            # An undetected legitimate account goes dormant; undetected
            # fraud (analysed as non-fraudulent) competes to the end.
            dormancy = float(rng_p.exponential(LEGIT_DORMANCY_MEAN_DAYS))
            account.activity_end = min(total_days, created_time + dormancy)
        return account

    def _shut_down(self, account, outcome, domains=None) -> None:
        """Freeze ``account`` at ``outcome``, a detection inside the
        study, and commit its record (and domains) to the pipeline."""
        account.shutdown_time = outcome.shutdown_time
        account.shutdown_reason = outcome.reason
        account.labeled_fraud = outcome.labeled_fraud
        account.activity_end = float(outcome.shutdown_time)
        self.pipeline.commit(account.advertiser_id, outcome, domains)

    def _finish_account(
        self, account: MaterializedAccount, adv_row: int
    ) -> AccountSummary:
        """The draw-free tail of account generation: trim, summarize, free.

        Never touches an RNG stream.  An account that never
        materialized has empty columns, so its trim is a no-op and its
        summary counts nothing.  Once counted, its per-ad and per-bid
        columns are freed (:meth:`MaterializedAccount.free_inventory`).
        """
        account.trim(account.activity_end)
        profile = account.profile
        info = country_info(profile.country)
        default_bid = self.config.auction.default_max_bid
        bid_count = np.zeros(3)
        bid_sum = np.zeros(3)
        bid_above = np.zeros(3)
        # One campaign-major pass over every bid.  ``bincount``
        # accumulates weights sequentially in array order, so each sum
        # is that of a plain loop over the campaigns' bids in turn.
        mcodes = np.fromiter(chain.from_iterable(account.mcode_cols), np.int8)
        if len(mcodes):
            max_bids = np.fromiter(
                chain.from_iterable(account.max_bid_cols), np.float64
            )
            bid_count = np.bincount(mcodes, minlength=3).astype(np.float64)
            bid_sum = np.bincount(mcodes, weights=max_bids, minlength=3)
            bid_above = np.bincount(
                mcodes[max_bids > default_bid * 1.0001], minlength=3
            ).astype(np.float64)
        summary = AccountSummary(
            advertiser_id=account.advertiser_id,
            adv_row=adv_row,
            kind=profile.kind,
            labeled_fraud=account.labeled_fraud,
            created_time=account.created_time,
            first_ad_time=account.first_ad_time,
            shutdown_time=account.shutdown_time,
            shutdown_reason=(
                account.shutdown_reason.value
                if account.shutdown_reason is not None
                else None
            ),
            activity_end=account.activity_end,
            country=profile.country,
            language=info.language,
            currency=info.currency,
            verticals=profile.verticals,
            n_ads=len(account.ad_creation_times),
            n_keywords=len(account.kw_creation_times),
            n_domains=len(set(account.ad_domains)),
            ad_creation_times=np.asarray(account.ad_creation_times, dtype=np.float64),
            kw_creation_times=np.asarray(account.kw_creation_times, dtype=np.float64),
            ad_mod_times=np.asarray(account.ad_mod_times, dtype=np.float64),
            kw_mod_times=np.asarray(account.kw_mod_times, dtype=np.float64),
            bid_count_by_match=bid_count,
            bid_sum_by_match=bid_sum,
            bid_above_default_by_match=bid_above,
            activity_scale=profile.activity_scale,
            participation=profile.participation_prob,
            quality=profile.quality,
        )
        account.free_inventory()
        return summary

    def _draw_day_registrations(self, day, rng, schedule):
        """Yield one day's ``(profile, created_time)`` pairs lazily.

        A generator on purpose: the caller interleaves its own draws
        (screening, materialization, detection) between registrations,
        and the canonical stream order puts each account's profile
        draws immediately before *that account's* downstream draws --
        never batched ahead.
        """
        config = self.config
        n_fraud, n_nonfraud = sample_daily_counts(
            config.population, schedule, day, rng
        )
        for is_fraud in [True] * n_fraud + [False] * n_nonfraud:
            created_time = day + float(rng.random())
            if is_fraud:
                prolific = (
                    rng.random() < config.population.prolific_fraud_fraction
                )
                banned = tuple(
                    change.banned_vertical
                    for change in self.pipeline.policy.changes
                    if created_time >= change.day + POLICY_LEARNING_LAG_DAYS
                )
                profile = sample_fraud_profile(
                    config, rng, prolific, banned_verticals=banned
                )
            else:
                profile = sample_legitimate_profile(config, rng)
            yield profile, created_time

    def _generate_population_horizon(
        self,
        on_day_complete=None,
        materializer=None,
    ) -> tuple[list[MaterializedAccount], list[AccountSummary]]:
        """Phase 1 as one pass over the horizon.

        The pass performs every RNG draw in the canonical order
        (:meth:`_plan_account`) and finishes each account -- trim,
        summary and free, :meth:`_finish_account`, which draws nothing
        -- as soon as its draws are done.  Only the summary and the
        account's one :class:`MaterializedAccount`, holding its id,
        times, detection outcome, profile, activity end and trimmed
        offers, outlive the account's turn; its per-ad and per-bid
        columns are freed there, so memory does not grow with every
        bid of the horizon.  Day-boundary side-effects (heartbeats,
        ``on_day_complete``) fire after each day's accounts, so the
        checkpoint runner's fault sites and progress reporting see
        whole days.

        ``materializer`` replaces :meth:`_plan_account`'s default
        batched materializer; the scalar oracle passes
        :func:`~repro.behavior.factory.materialize_account`.
        """
        config = self.config
        rng = self._rng_population
        schedule = FraudShareSchedule(config.population, config.days, rng)
        accounts: list[MaterializedAccount] = []
        summaries: list[AccountSummary] = []
        mode = "horizon" if materializer is None else "scalar"
        heartbeat = obs.HEARTBEAT_EVERY
        tracer = obs.tracer()
        # Nearly everything allocated here is either retained for the
        # whole run (offers, summaries) or freed promptly by reference
        # counting (each account's columns); cyclic GC only adds pauses
        # that scale with the live-object count.  Pause it for the pass.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            with obs.span(
                "phase1.population", days=config.days, materializer=mode
            ) as phase_span:
                with obs.span("phase1.draws", days=config.days):
                    for day in range(config.days):
                        for profile, created_time in self._draw_day_registrations(
                            day, rng, schedule
                        ):
                            account = (
                                self._plan_account(profile, created_time)
                                if materializer is None
                                else self._plan_account(
                                    profile, created_time, materializer
                                )
                            )
                            summaries.append(
                                self._finish_account(account, len(accounts))
                            )
                            accounts.append(account)
                        if heartbeat and (day + 1) % heartbeat == 0:
                            elapsed = tracer.now() - phase_span.start
                            throughput = _day_throughput(
                                day + 1, config.days, elapsed
                            )
                            obs.event(
                                "heartbeat",
                                phase="phase1",
                                day=day,
                                accounts=len(accounts),
                                **throughput,
                            )
                        if on_day_complete is not None:
                            on_day_complete(day)
        finally:
            if gc_was_enabled:
                gc.enable()
        return accounts, summaries

    def generate_population(
        self,
        on_day_complete=None,
    ) -> tuple[list[MaterializedAccount], list[AccountSummary]]:
        """Phase 1: create every account with its detection outcome.

        Runs the one-pass horizon path
        (:meth:`_generate_population_horizon`) with the batched
        materializer and returns ``(accounts, summaries)``, one of each
        per registration in order.  Each account keeps its id, times,
        detection outcome, profile, activity end and trimmed offers;
        its per-ad and per-bid columns are empty, counted into its
        summary and freed.  The output -- accounts, summaries and
        post-generation RNG stream states -- is bit-identical to the
        retained oracle, :meth:`generate_population_scalar`.

        ``on_day_complete(day)``, if given, is invoked after each day's
        registrations are fully generated -- the checkpoint runner's
        instrumentation point for progress reporting and fault
        injection.
        """
        return self._generate_population_horizon(on_day_complete)

    def generate_population_scalar(
        self,
        on_day_complete=None,
    ) -> tuple[list[MaterializedAccount], list[AccountSummary]]:
        """The pre-vectorization Phase 1, kept as the oracle.

        The same one pass, drawing one value at a time through
        :func:`~repro.behavior.factory.materialize_account`.
        Slow but simple enough to trust: the differential tests assert
        :meth:`generate_population` reproduces its accounts, summaries
        and RNG stream states exactly.
        """
        return self._generate_population_horizon(
            on_day_complete, materializer=materialize_account
        )

    def build_phase1(
        self, on_day_complete=None
    ) -> tuple[list[AccountSummary], list[DetectionRecord], MarketIndex]:
        """Phases 1 and 2 from the seed: the account summaries, the
        detection records and the market, which is all Phase 3 and the
        result read of them and what the runner's snapshots store.
        :meth:`run`, the checkpoint runner and the doctor's full replay
        all build them here."""
        accounts, summaries = self.generate_population(on_day_complete)
        with obs.span("phase2.market", accounts=len(accounts)):
            market = MarketIndex(accounts)
        return summaries, self.pipeline.records, market

    # ------------------------------------------------------------------
    # Phase 3: auctions
    # ------------------------------------------------------------------

    def run_auctions(
        self,
        market: MarketIndex,
        builder: ImpressionBuilder,
        start_day: int = 0,
        end_day: int | None = None,
        on_day_complete=None,
        ledger: obs.DayLedger | None = None,
    ) -> None:
        """Phase 3: the daily auction loop, array-native.

        Produces an impression stream bit-identical to
        :meth:`run_auctions_scalar`: candidate gathering, ranking,
        dedupe, layout and pricing are exact array re-formulations of
        the scalar mechanics, and the day's click draws are issued as
        one vectorized Poisson call over the same lambda sequence the
        scalar loop would draw one by one (numpy ``Generator`` draws
        are stream-equivalent either way).

        ``start_day`` resumes the loop at a given day: all RNG draws
        happen inside the day body, so a caller that restores the
        stream states captured after day ``start_day - 1`` (see
        :meth:`rng_state`) continues the exact draw sequence of an
        uninterrupted run.  ``end_day`` (exclusive, default: the whole
        horizon) stops the loop early with the streams positioned
        exactly as an uninterrupted run would have them after day
        ``end_day - 1`` -- the run doctor uses this to re-simulate just
        a damaged chunk's day range.  ``on_day_complete(day)`` fires
        after each day's rows are in ``builder`` -- including days that
        produced no rows -- which is where the checkpoint runner
        persists progress.

        ``ledger``, if given, records each day's market sums
        (:meth:`~repro.obs.timeseries.DayLedger.record_day`) before
        ``on_day_complete``: reductions of arrays the day body already
        computed, so no RNG stream moves.
        """
        config = self.config
        if end_day is None:
            end_day = config.days
        if not 0 <= start_day <= end_day <= config.days:
            raise SimulationError(
                f"day range [{start_day}, {end_day}) outside "
                f"[0, {config.days}]"
            )
        sampler = QuerySampler(config.query)
        auction_config = config.auction
        exam_table = examination_table(config.click, auction_config.total_slots)
        index = eligibility_index()
        heartbeat = obs.HEARTBEAT_EVERY
        tracer = obs.tracer()
        # The builder may be drained mid-loop (checkpoint chunks), so
        # progress is tracked off the cumulative rows counter instead.
        rows_at_start = _ROWS_EMITTED.value
        with obs.span(
            "phase3.auctions", start_day=start_day, days=config.days
        ) as phase_span:
            for day in range(start_day, end_day):
                fields = None if ledger is None else {}
                with obs.span("phase3.day", day=day):
                    self._run_auction_day(
                        day, market, builder, sampler, exam_table, index, fields
                    )
                if ledger is not None:
                    ledger.record_day(day, **fields)
                if heartbeat and (day + 1) % heartbeat == 0:
                    elapsed = tracer.now() - phase_span.start
                    rows = _ROWS_EMITTED.value - rows_at_start
                    throughput = _day_throughput(
                        day + 1 - start_day, end_day - start_day, elapsed
                    )
                    obs.event(
                        "heartbeat",
                        phase="phase3",
                        day=day,
                        rows=rows,
                        **throughput,
                    )
                if on_day_complete is not None:
                    on_day_complete(day)

    def _emit_empty_auction_day(self) -> None:
        """Gather + kernel on zero candidates, for span parity.

        Used by days that cannot reach the real gather (no live
        offers).  ``run_auction_batch`` is deterministic and draw-free,
        so this moves no RNG stream, and its counts are zero.
        """
        empty_ids = np.zeros(0, dtype=np.int64)
        empty_vals = np.zeros(0, dtype=np.float64)
        with obs.span("auction.gather", keys=0):
            pass
        run_auction_batch(
            empty_ids,
            empty_ids,
            empty_ids,
            empty_vals,
            empty_vals,
            np.zeros(0, dtype=bool),
            self.config.auction,
            0,
        )

    def _run_auction_day(
        self,
        day: int,
        market: MarketIndex,
        builder: ImpressionBuilder,
        sampler: QuerySampler,
        exam_table: np.ndarray,
        index: EligibilityIndex,
        fields: dict | None,
    ) -> None:
        """One day of the batched auction loop (body of Phase 3); when
        ``fields`` is a dict, the day's ledger sums are stored in it."""
        config = self.config
        rng_clicks = self._rng_clicks
        auction_config = config.auction
        time = day + 0.5
        buckets = market.day_buckets(time, self._rng_market)
        if len(buckets) == 0:
            # Span parity: a dead-market day (e.g. day 0, when no offer
            # is live yet at t=0.5) must still emit the auction.gather
            # and auction.kernel spans, or per-day span counts go off by
            # one across the horizon.  Query sampling stays skipped --
            # the scalar oracle draws nothing on such days either -- and
            # the kernel is draw-free, so no RNG stream moves.
            self._emit_empty_auction_day()
            return
        if fields is not None:
            fields["active_accounts"] = int(
                np.unique(market.adv_row[buckets.rows]).size
            )
        queries = sampler.sample_day(self._rng_queries)
        n_queries = len(queries)
        _QUERIES_SAMPLED.inc(n_queries)
        weight = queries.weight
        # One flat (cell, keyword, match) key array for the whole
        # day's query stream, resolved in a single bucket gather.  An
        # empty key set (no query matched any keyword) flows through
        # the same gather + kernel calls so the spans emit every day.
        query_of_key, kw_all, mcode_all = index.pairs(queries)
        keys = bucket_keys(queries.cell[query_of_key], kw_all, mcode_all)
        with obs.span("auction.gather", keys=len(keys)):
            rows, key_index = buckets.gather(keys)
        _CANDIDATES_GATHERED.inc(int(rows.size))
        segments = query_of_key[key_index]
        mcode = mcode_all[key_index]
        result = run_auction_batch(
            segments,
            market.advertiser_id[rows],
            market.ad_id[rows],
            market.max_bid[rows],
            market.quality[rows],
            market.fraud_labeled[rows],
            auction_config,
            n_queries,
        )
        if fields is not None:
            fields["kernel_candidates"] = len(segments)
            fields["kernel_shown"] = len(result)
        if len(result) == 0:
            return
        shown_rows = rows[result.candidate_index]
        shown_seg = result.segment
        examine = exam_table[
            result.mainline.astype(np.intp), result.position
        ]
        p_click = np.minimum(1.0, examine * market.quality[shown_rows])
        lam = weight[shown_seg] * p_click
        clicks = np.zeros(len(lam), dtype=np.float64)
        positive = np.flatnonzero(lam > 0)
        if positive.size:
            clicks[positive] = rng_clicks.poisson(lam[positive])
        _CLICK_DRAWS.inc(int(positive.size))
        _CLICKS_DRAWN.inc(float(clicks.sum()))
        _ROWS_EMITTED.inc(len(lam))
        spend = clicks * result.price
        if fields is not None:
            # Pure reductions over arrays already computed for the
            # impression batch -- no RNG contact, no behavior change.
            fraud = market.fraud_labeled[shown_rows]
            fields.update(
                impressions=float(weight[shown_seg].sum()),
                clicks=float(clicks.sum()),
                fraud_clicks=float(clicks[fraud].sum()),
                spend=float(spend.sum()),
                fraud_spend=float(spend[fraud].sum()),
                rows=len(lam),
                auctions=int(np.count_nonzero(result.n_shown)),
                mainline_slots=int(result.mainline.sum()),
            )
        builder.add_batch(
            day=np.full(len(lam), time),
            advertiser_id=market.advertiser_id[shown_rows],
            ad_id=market.ad_id[shown_rows],
            vertical=queries.vertical[shown_seg],
            country=queries.country[shown_seg],
            match_type=mcode[result.candidate_index],
            position=result.position,
            mainline=result.mainline,
            weight=weight[shown_seg],
            clicks=clicks,
            spend=spend,
            price=result.price,
            n_shown=result.n_shown[shown_seg],
            n_fraud_shown=result.n_fraud_shown[shown_seg],
            fraud_labeled=market.fraud_labeled[shown_rows],
        )

    def run_auctions_scalar(
        self, market: MarketIndex, builder: ImpressionBuilder
    ) -> None:
        """The pre-vectorization Phase 3 loop, kept as the oracle.

        One :class:`~repro.auction.gsp.Candidate` object per eligible
        offer, one scalar Poisson draw per shown ad.  Slow, but simple
        enough to trust: the differential and end-to-end regression
        tests assert :meth:`run_auctions` reproduces its output exactly,
        and that both bump the Phase-3 counters (queries sampled,
        Poisson draws, clicks drawn, rows emitted) by the same amounts.
        """
        config = self.config
        sampler = QuerySampler(config.query)
        index = eligibility_index()
        pair_kw = index.kw.tolist()
        pair_code = index.code.tolist()
        click_config = config.click
        rng_clicks = self._rng_clicks
        fields = ImpressionTable.field_names()
        for day in range(config.days):
            time = day + 0.5
            buckets = market.day_buckets(time, self._rng_market)
            if len(buckets) == 0:
                continue
            queries = sampler.sample_day(self._rng_queries)
            _QUERIES_SAMPLED.inc(len(queries))
            slots = index.slots(queries)
            first = index.start[slots]
            stop = first + index.count[slots]
            day_rows: list[tuple] = []
            for cell, vertical, country, weight, lo, hi in zip(
                queries.cell.tolist(),
                queries.vertical.tolist(),
                queries.country.tolist(),
                queries.weight.tolist(),
                first.tolist(),
                stop.tolist(),
            ):
                candidates: list[Candidate] = []
                for kw_index, mcode in zip(pair_kw[lo:hi], pair_code[lo:hi]):
                    rows = buckets.lookup(cell, kw_index, mcode)
                    if rows is None:
                        continue
                    match_type = match_type_from_code(mcode)
                    for i in rows:
                        candidates.append(
                            Candidate(
                                advertiser_id=int(market.advertiser_id[i]),
                                ad_id=int(market.ad_id[i]),
                                match_type=match_type,
                                max_bid=float(market.max_bid[i]),
                                quality=float(market.quality[i]),
                                fraud_labeled=bool(market.fraud_labeled[i]),
                            )
                        )
                if not candidates:
                    continue
                outcome = run_auction(candidates, config.auction)
                if not outcome.shown:
                    continue
                n_shown = outcome.n_shown
                n_fraud = outcome.n_fraud_labeled()
                for shown in outcome.shown:
                    candidate = shown.candidate
                    examine = examination_probability(shown.placement, click_config)
                    p_click = min(1.0, examine * candidate.quality)
                    clicks = 0.0
                    if p_click > 0:
                        clicks = float(rng_clicks.poisson(weight * p_click))
                        _CLICK_DRAWS.inc()
                        _CLICKS_DRAWN.inc(clicks)
                    # One row, in ImpressionTable.field_names() order.
                    day_rows.append(
                        (
                            time,
                            candidate.advertiser_id,
                            candidate.ad_id,
                            vertical,
                            country,
                            match_code(candidate.match_type),
                            shown.position,
                            shown.mainline,
                            weight,
                            clicks,
                            clicks * shown.price_per_click,
                            shown.price_per_click,
                            n_shown,
                            n_fraud,
                            candidate.fraud_labeled,
                        )
                    )
            _ROWS_EMITTED.inc(len(day_rows))
            if day_rows:
                builder.add_batch(
                    **dict(zip(fields, map(list, zip(*day_rows))))
                )

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run all three phases and return the bundled result."""
        with obs.span("run", seed=self.config.seed, days=self.config.days):
            summaries, records, market = self.build_phase1()
            builder = ImpressionBuilder()
            self.run_auctions(market, builder)
            return SimulationResult(
                config=self.config,
                accounts=summaries,
                impressions=builder.build(),
                detections=list(records),
                policy_changes=list(self.pipeline.policy.changes),
            )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Convenience wrapper: build an engine and run it."""
    return SimulationEngine(config).run()

"""Marketplace-health day ledger: per-day timeseries for a whole run.

The paper's core results are *time dynamics* -- fraud share, shutdown
rates, spend regimes around the Year-2 policy change (Figures 1-6).
:class:`DayLedger` collects those same marketplace-health signals as
one row per simulated day, fed by the engine (registrations, per-day
auction aggregates), the detection pipeline (per-stage shutdowns,
bucketed by shutdown day), and the batched auction kernel (candidate /
shown counts), and persists them as ``dayledger.jsonl`` in the
checkpoint-runner run directory.

Like every other piece of :mod:`repro.obs`, the ledger is a **pure
observer**: it never draws randomness, never reads a clock, and only
does arithmetic on values its callers already computed -- a ledgered
run is bit-identical to an unledgered one (``tests/obs/
test_dayledger.py``) and the collection overhead stays under the same
3% budget as the JSONL telemetry sink
(``benchmarks/test_ledger_overhead.py``).

Crash-safety and resume mirror the telemetry sink: the runner flushes
the ledger with the atomic whole-file rewrite protocol
(:mod:`repro.records.atomic`) exactly when the manifest becomes
durable, and a resumed run preloads the durable prefix -- Phase-1
fields always (the Phase-1 snapshot is durable), per-day market fields
only for days before the resume point (later days are re-simulated and
re-accumulated).  Because re-simulated days replay the same draws on
the same arrays in the same order, the final ``dayledger.jsonl`` of an
interrupted-and-resumed run is **byte-identical** to an uninterrupted
run's (``tests/runner/test_dayledger_resume.py``).

Row schema (JSON object per line, keys sorted; floats as Python repr):

``day``
    The simulated day the row describes.
``registrations_legit`` / ``registrations_fraud``
    Accounts registered that day, split by ground truth (Fig 1).
``shutdowns``
    ``{stage: count}`` of enforcement actions whose shutdown time
    lands on this day (Fig 5/6 dynamics; stages are
    :class:`~repro.entities.enums.ShutdownReason` values).
``policy_change``
    ``true`` on days a policy change takes effect (omitted otherwise);
    anchors the diff's policy-window deltas.
``active_accounts``
    Distinct accounts with at least one live offer that day.
``impressions`` / ``clicks`` / ``spend``
    Day totals (``impressions`` is the summed query weight each shown
    row stands in for).
``fraud_clicks`` / ``fraud_spend``
    The slice of the totals on eventually-labeled-fraud accounts.
``rows`` / ``auctions`` / ``mainline_slots``
    Impression rows emitted, auctions that showed at least one ad, and
    mainline placements filled.
``kernel_candidates`` / ``kernel_shown``
    Batched-kernel feed: candidates ranked and ads shown that day.
``fraud_click_share`` / ``fraud_spend_share`` / ``mean_cpc`` /
``mainline_depth``
    Derived at serialization time from the sums above (Figures 3/6 and
    the Section 6 competition framing).
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "ANALYZE_NAME",
    "DAYLEDGER_NAME",
    "LEDGER_SERIES",
    "POLICY_KEY_SERIES",
    "POLICY_WINDOW_DAYS",
    "DayLedger",
    "load_rows",
    "window_means",
]

#: Ledger file name inside a checkpoint-runner run directory.
DAYLEDGER_NAME = "dayledger.jsonl"

#: File ``python -m repro.obs analyze`` writes next to the ledger
#: (:mod:`repro.obs.analyze`).
ANALYZE_NAME = "analyze.json"

#: Days on each side of a policy change over which window means are
#: computed (four weeks -- matches the paper's quarter-scale framing of
#: the Year-2 regime shift without washing it out).
POLICY_WINDOW_DAYS = 28

#: The series the text diff and the analysis summary print around a
#: policy day (the JSON documents carry every series).
POLICY_KEY_SERIES = (
    "shutdowns.policy_change",
    "fraud_click_share",
    "fraud_spend_share",
    "registrations_fraud",
    "spend",
)

#: Integer accumulators fed during Phase 3 (market/auction sourced).
_MARKET_INT_FIELDS = (
    "rows",
    "auctions",
    "active_accounts",
    "mainline_slots",
    "kernel_candidates",
    "kernel_shown",
)

#: Float accumulators fed during Phase 3.
_MARKET_FLOAT_FIELDS = (
    "impressions",
    "clicks",
    "fraud_clicks",
    "spend",
    "fraud_spend",
)

#: Every per-day numeric series a ledger row exposes (diffable set).
#: ``shutdowns`` is a nested ``{stage: count}`` map and is flattened to
#: ``shutdowns.<stage>`` series by :func:`rows_to_series`.
LEDGER_SERIES: tuple[str, ...] = (
    "registrations_legit",
    "registrations_fraud",
    *_MARKET_INT_FIELDS,
    *_MARKET_FLOAT_FIELDS,
    "fraud_click_share",
    "fraud_spend_share",
    "mean_cpc",
    "mainline_depth",
)


def _zero_market_row() -> dict:
    row: dict = {name: 0 for name in _MARKET_INT_FIELDS}
    row.update({name: 0.0 for name in _MARKET_FLOAT_FIELDS})
    return row


class DayLedger:
    """Per-day marketplace-health accumulator for one run.

    Attach the run's ledger with :func:`repro.obs.set_dayledger` (the
    checkpoint runner does this automatically); instrumented call
    sites fetch it via :func:`repro.obs.dayledger` and skip all work
    when none is attached.
    """

    def __init__(self, days: int | None = None) -> None:
        #: Total simulated days, when known -- used to clamp shutdown
        #: buckets and to emit a row for every day at serialization.
        self.days = days
        self._phase1: dict[int, dict] = {}
        self._shutdowns: dict[int, dict[str, int]] = {}
        self._policy_days: set[int] = set()
        self._market: dict[int, dict] = {}
        self._current: dict | None = None

    # -- Phase-1 feeds (engine day loop, detection pipeline) -----------

    def record_registrations(self, day: int, legit: int, fraud: int) -> None:
        """One Phase-1 day's registrations, split legit/fraud."""
        self._phase1[int(day)] = {
            "registrations_legit": int(legit),
            "registrations_fraud": int(fraud),
        }

    def record_shutdown(self, time: float, stage: str) -> None:
        """One enforcement action, bucketed by its shutdown day."""
        day = int(time)
        if self.days is not None:
            day = min(day, self.days - 1)
        bucket = self._shutdowns.setdefault(day, {})
        bucket[stage] = bucket.get(stage, 0) + 1

    def record_policy_change(self, day: float) -> None:
        """Mark the day a policy change takes effect."""
        self._policy_days.add(int(day))

    # -- Phase-3 feeds (engine auction loop, batched kernel) -----------

    def begin_day(self, day: int) -> None:
        """Open (and zero) the market row for one Phase-3 day.

        Called once per simulated day *before* any market feed, so days
        with no live offers or no shown ads still serialize as explicit
        zero rows.  Subsequent kernel feeds accumulate into this day.
        """
        row = _zero_market_row()
        self._market[int(day)] = row
        self._current = row

    def record_kernel(self, candidates: int, shown: int) -> None:
        """Batched-kernel feed for the currently open day (no-op when
        no day is open -- the kernel also runs in kernel-only tests)."""
        row = self._current
        if row is None:
            return
        row["kernel_candidates"] += int(candidates)
        row["kernel_shown"] += int(shown)

    def record_active_accounts(self, day: int, count: int) -> None:
        """Distinct accounts with live offers on one day."""
        self._market[int(day)]["active_accounts"] = int(count)

    def record_auction_day(
        self,
        day: int,
        *,
        impressions: float,
        clicks: float,
        fraud_clicks: float,
        spend: float,
        fraud_spend: float,
        rows: int,
        auctions: int,
        mainline_slots: int,
    ) -> None:
        """One day's auction aggregates (engine feed, once per day)."""
        row = self._market[int(day)]
        row["impressions"] += float(impressions)
        row["clicks"] += float(clicks)
        row["fraud_clicks"] += float(fraud_clicks)
        row["spend"] += float(spend)
        row["fraud_spend"] += float(fraud_spend)
        row["rows"] += int(rows)
        row["auctions"] += int(auctions)
        row["mainline_slots"] += int(mainline_slots)

    # -- serialization -------------------------------------------------

    def _day_range(self) -> range:
        if self.days is not None:
            return range(self.days)
        seen = (*self._phase1, *self._shutdowns, *self._market)
        return range(max(seen) + 1 if seen else 0)

    def rows(self) -> list[dict]:
        """One merged dict per day, derived fields included, day order."""
        merged: list[dict] = []
        for day in self._day_range():
            row: dict = {"day": day}
            row.update(
                self._phase1.get(
                    day, {"registrations_legit": 0, "registrations_fraud": 0}
                )
            )
            row["shutdowns"] = dict(sorted(self._shutdowns.get(day, {}).items()))
            if day in self._policy_days:
                row["policy_change"] = True
            market = self._market.get(day)
            if market is not None:
                row.update(market)
                clicks = market["clicks"]
                spend = market["spend"]
                auctions = market["auctions"]
                row["fraud_click_share"] = (
                    market["fraud_clicks"] / clicks if clicks else 0.0
                )
                row["fraud_spend_share"] = (
                    market["fraud_spend"] / spend if spend else 0.0
                )
                row["mean_cpc"] = spend / clicks if clicks else 0.0
                row["mainline_depth"] = (
                    market["mainline_slots"] / auctions if auctions else 0.0
                )
            merged.append(row)
        return merged

    def to_jsonl(self) -> str:
        """Canonical JSONL text (sorted keys, compact separators)."""
        return (
            "\n".join(
                json.dumps(row, sort_keys=True, separators=(",", ":"))
                for row in self.rows()
            )
            + "\n"
        )

    def flush(self, path: str | Path) -> str:
        """Atomically persist the ledger (tmp + fsync + ``os.replace``).

        Returns the serialized text so callers can checksum exactly
        what landed (the checkpoint manifest vouches for the ledger
        this way).
        """
        from ..records.atomic import atomic_write_text

        text = self.to_jsonl()
        atomic_write_text(path, text)
        return text

    # -- resume --------------------------------------------------------

    def preload(self, path: str | Path, market_before: int) -> None:
        """Reload the durable prefix of an interrupted run's ledger.

        Phase-1 fields (registrations, shutdown buckets, policy days)
        are durable with the Phase-1 snapshot and reload for every day;
        market fields reload only for ``day < market_before`` -- later
        days were never checkpointed (or sat in a discarded tail chunk)
        and will be re-accumulated by the resumed day loop.  A missing
        file is not an error: the ledger simply re-covers what the
        resumed process simulates (pre-ledger run dirs stay resumable).
        """
        path = Path(path)
        if not path.exists():
            return
        for row in load_rows(path):
            day = int(row["day"])
            self._phase1[day] = {
                "registrations_legit": int(row.get("registrations_legit", 0)),
                "registrations_fraud": int(row.get("registrations_fraud", 0)),
            }
            shutdowns = row.get("shutdowns") or {}
            if shutdowns:
                self._shutdowns[day] = {
                    str(stage): int(n) for stage, n in shutdowns.items()
                }
            if row.get("policy_change"):
                self._policy_days.add(day)
            if day < market_before and "rows" in row:
                market = _zero_market_row()
                for name in _MARKET_INT_FIELDS:
                    market[name] = int(row.get(name, 0))
                for name in _MARKET_FLOAT_FIELDS:
                    market[name] = float(row.get(name, 0.0))
                self._market[day] = market
        self._current = None


def load_rows(path: str | Path) -> list[dict]:
    """Parse a ``dayledger.jsonl`` file into per-day row dicts.

    The atomic-flush protocol means a *durable* ledger never contains
    a torn line -- but live readers (``watch``, ``analyze`` on a
    still-running run) can race the whole-file rewrite and observe a
    truncated or garbage tail.  Trailing malformed lines are therefore
    skipped with one logged notice and the healthy prefix returned; a
    malformed line *followed by* healthy rows cannot be a rewrite race
    and still raises ``ValueError`` naming the offending line (that is
    damage, and the run doctor's business).
    """
    rows: list[dict] = []
    bad: list[str] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            bad.append(f"{path}:{lineno}: malformed ledger line ({exc})")
            continue
        if not isinstance(row, dict) or "day" not in row:
            bad.append(f"{path}:{lineno}: not a ledger row")
            continue
        if bad:
            raise ValueError(bad[0])
        rows.append(row)
    if bad:
        from .logsetup import get_logger

        get_logger("obs.timeseries").warning(
            "%s; skipped %d trailing line(s) (mid-rewrite tail)",
            bad[0],
            len(bad),
        )
    return rows


def rows_to_series(rows: list[dict]) -> dict[str, list[float]]:
    """Flatten ledger rows into ``{series_name: [value per day]}``.

    Covers every name in :data:`LEDGER_SERIES` plus one
    ``shutdowns.<stage>`` series per stage seen in the rows.  Missing
    values (a day the run never reached) read as 0.
    """
    stages = sorted(
        {stage for row in rows for stage in (row.get("shutdowns") or {})}
    )
    series: dict[str, list[float]] = {name: [] for name in LEDGER_SERIES}
    for stage in stages:
        series[f"shutdowns.{stage}"] = []
    for row in rows:
        for name in LEDGER_SERIES:
            series[name].append(float(row.get(name, 0)))
        shutdowns = row.get("shutdowns") or {}
        for stage in stages:
            series[f"shutdowns.{stage}"].append(float(shutdowns.get(stage, 0)))
    return series


def policy_days(rows: list[dict]) -> list[int]:
    """Days flagged ``policy_change`` in a ledger row list."""
    return [int(row["day"]) for row in rows if row.get("policy_change")]


def window_means(
    series: dict[str, list[float]], day: int
) -> dict[str, tuple[float, float]]:
    """(pre, post) window means per series around a policy day."""
    out: dict[str, tuple[float, float]] = {}
    for name, values in series.items():
        pre = values[max(0, day - POLICY_WINDOW_DAYS) : day]
        post = values[day : day + POLICY_WINDOW_DAYS]
        out[name] = (
            float(sum(pre) / len(pre)) if pre else 0.0,
            float(sum(post) / len(post)) if post else 0.0,
        )
    return out

"""Marketplace-health day ledger: per-day timeseries for a whole run.

The paper's core results are *time dynamics* -- fraud share, shutdown
rates, spend regimes around the Year-2 policy change (Figures 1-6).
:class:`DayLedger` holds those same marketplace-health signals as one
row per simulated day, persisted as ``dayledger.jsonl`` in the
checkpoint-runner run directory.  Two writers fill it, each owning its
half of every row: :meth:`DayLedger.record_phase1` computes the Phase-1
half (registrations, shutdowns, policy days) from Phase 1's outputs,
and :meth:`~repro.simulator.engine.SimulationEngine.run_auctions`
records each Phase-3 day's market half (:meth:`DayLedger.record_day`).

Like every other piece of :mod:`repro.obs`, the ledger is a **pure
observer**: it never draws randomness, never reads a clock, and only
does arithmetic on values its callers already computed -- a ledgered
run is bit-identical to an unledgered one (``tests/obs/
test_dayledger.py``) and the collection overhead stays under the same
3% budget as the JSONL telemetry sink
(``benchmarks/test_ledger_overhead.py``).

Crash-safety and resume: the runner flushes the ledger with the atomic
whole-file rewrite protocol (:mod:`repro.records.atomic`) just before
each manifest save.  A resumed run recomputes the Phase-1 half from the
Phase-1 snapshot and reloads only the market rows of days before the
resume point (:meth:`DayLedger.preload`), re-simulating the rest with
the same draws on the same arrays in the same order, so its final
``dayledger.jsonl`` is **byte-identical** to an uninterrupted run's
(``tests/runner/test_dayledger_resume.py``) -- or, when the durable
file lacks one of those rows, the run carries on without a ledger.

Row schema (JSON object per line, keys sorted; floats as Python repr):

``day``
    The simulated day the row describes.
``registrations_legit`` / ``registrations_fraud``
    Accounts registered that day, split by ground truth (Fig 1).
``shutdowns``
    ``{stage: count}`` of detection records whose shutdown time lands
    on this day (Fig 5/6 dynamics; stages are
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
    Candidates the batched auction kernel ranked, and ads it showed,
    that day.
``fraud_click_share`` / ``fraud_spend_share`` / ``mean_cpc`` /
``mainline_depth``
    Derived at serialization time from the sums above (Figures 3/6 and
    the Section 6 competition framing).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from ..detection.policy import PolicyChange
    from ..records.schemas import DetectionRecord
    from ..simulator.results import AccountSummary

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

#: Integer market fields of a Phase-3 day.
_MARKET_INT_FIELDS = (
    "rows",
    "auctions",
    "active_accounts",
    "mainline_slots",
    "kernel_candidates",
    "kernel_shown",
)

#: Float market fields of a Phase-3 day.
_MARKET_FLOAT_FIELDS = (
    "impressions",
    "clicks",
    "fraud_clicks",
    "spend",
    "fraud_spend",
)

_MARKET_FIELDS = (*_MARKET_INT_FIELDS, *_MARKET_FLOAT_FIELDS)

#: Every per-day numeric series a ledger row exposes (diffable set).
#: ``shutdowns`` is a nested ``{stage: count}`` map and is flattened to
#: ``shutdowns.<stage>`` series by :func:`rows_to_series`.
LEDGER_SERIES: tuple[str, ...] = (
    "registrations_legit",
    "registrations_fraud",
    *_MARKET_FIELDS,
    "fraud_click_share",
    "fraud_spend_share",
    "mean_cpc",
    "mainline_depth",
)


class DayLedger:
    """Per-day marketplace-health rows for a run of ``days`` days.

    :meth:`record_phase1` sets the Phase-1 half of every row and
    :meth:`record_day` one day's market half; a day whose market half
    was never recorded serializes without market fields.
    """

    def __init__(self, days: int) -> None:
        #: Simulated days; :meth:`rows` emits one row for each.
        self.days = days
        self._registrations: Counter[tuple[int, bool]] = Counter()
        self._shutdowns: dict[int, Counter[str]] = {}
        self._policy_days: frozenset[int] = frozenset()
        self._market: dict[int, dict] = {}

    def record_phase1(
        self,
        summaries: Iterable[AccountSummary],
        records: Iterable[DetectionRecord],
        policy_changes: Iterable[PolicyChange],
    ) -> None:
        """Set the Phase-1 half of every row from Phase 1's outputs:
        registrations per ``int(created_time)`` by ground truth,
        shutdowns per ``int(time)`` of each detection record by stage,
        and the days policy changes take effect inside the study."""
        self._registrations = Counter(
            (int(summary.created_time), summary.kind.is_fraud)
            for summary in summaries
        )
        shutdowns: dict[int, Counter[str]] = {}
        for record in records:
            shutdowns.setdefault(int(record.time), Counter())[record.stage] += 1
        self._shutdowns = shutdowns
        self._policy_days = frozenset(
            int(change.day)
            for change in policy_changes
            if 0 <= change.day < self.days
        )

    def record_day(self, day: int, **fields: float) -> None:
        """Set one Phase-3 day's market sums (named as in
        :data:`LEDGER_SERIES`); one not given reads 0, an unknown one
        raises ``TypeError``."""
        row = {name: int(fields.pop(name, 0)) for name in _MARKET_INT_FIELDS}
        row.update(
            (name, float(fields.pop(name, 0.0))) for name in _MARKET_FLOAT_FIELDS
        )
        if fields:
            raise TypeError(f"unknown day-ledger fields: {sorted(fields)}")
        self._market[int(day)] = row

    # -- serialization -------------------------------------------------

    def rows(self) -> list[dict]:
        """One merged dict per day, derived fields included, day order."""
        merged: list[dict] = []
        for day in range(self.days):
            row: dict = {
                "day": day,
                "registrations_legit": self._registrations[day, False],
                "registrations_fraud": self._registrations[day, True],
                "shutdowns": dict(sorted(self._shutdowns.get(day, {}).items())),
            }
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
        """Reload the market rows of days ``< market_before`` from an
        interrupted run's durable ledger; later days are re-simulated
        and the Phase-1 half comes from :meth:`record_phase1`.  Raises
        ``OSError`` or ``ValueError`` when the file is unreadable or
        malformed or lacks one of those rows: a stale or partial ledger
        that must not be vouched for."""
        try:
            market = {row["day"]: row for row in load_rows(path) if "rows" in row}
            for day in range(market_before):
                fields = {name: market[day][name] for name in _MARKET_FIELDS}
                self.record_day(day, **fields)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(
                f"{path}: no whole market row for every day before "
                f"{market_before} ({exc!r})"
            ) from exc


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

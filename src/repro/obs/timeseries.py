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

Durability and resume: until the run completes, the market rows live
in the run manifest, each chunk entry carrying its days'
(:meth:`DayLedger.market_rows`).  A resumed run recomputes the Phase-1
half from the Phase-1 snapshot, re-records the rows of the verified
chunks and re-simulates the rest with the same draws on the same arrays
in the same order.  ``dayledger.jsonl`` is written once, atomically
(:mod:`repro.records.atomic`), when the run completes, and is
**byte-identical** to an uninterrupted run's
(``tests/runner/test_dayledger_resume.py``).

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
    "MARKET_FIELDS",
    "MARKET_INT_FIELDS",
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
MARKET_INT_FIELDS = (
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

#: The market half of a row, as :meth:`DayLedger.record_day` takes it.
MARKET_FIELDS = (*MARKET_INT_FIELDS, *_MARKET_FLOAT_FIELDS)

#: Every per-day numeric series a ledger row exposes (diffable set).
#: ``shutdowns`` is a nested ``{stage: count}`` map and is flattened to
#: ``shutdowns.<stage>`` series by :func:`rows_to_series`.
LEDGER_SERIES: tuple[str, ...] = (
    "registrations_legit",
    "registrations_fraud",
    *MARKET_FIELDS,
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
        row = {name: int(fields.pop(name, 0)) for name in MARKET_INT_FIELDS}
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

    def market_rows(self, day_start: int, day_end: int) -> list[dict]:
        """The recorded market halves of days ``[day_start, day_end)``,
        in day order: the rows a run-manifest chunk entry carries."""
        return [dict(self._market[day]) for day in range(day_start, day_end)]


def load_rows(path: str | Path) -> list[dict]:
    """Parse a ``dayledger.jsonl`` file into per-day row dicts.

    The ledger is written once, whole, through ``os.replace``, so no
    reader can see a partial file: a line that is not a JSON object
    with a ``day``, wherever it is, is damage (the run doctor's
    business) and raises ``ValueError`` naming the first such line, as
    does a file with no rows at all.
    """
    rows: list[dict] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: malformed ledger line ({exc})"
            ) from None
        if not isinstance(row, dict) or "day" not in row:
            raise ValueError(f"{path}:{lineno}: not a ledger row")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no ledger rows")
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

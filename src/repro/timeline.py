"""Simulation calendar.

The paper spans two years of Bing data.  The simulator uses an abstract
calendar of 104 seven-day weeks (728 days) split into two years of 364
days, each made of twelve ~30.33-day "months" and four quarters.  Months
are labeled the way the paper labels its x-axes: ``1/Y1`` .. ``12/Y2``
(plus ``1/Y3`` as the right edge of the range).

Times are floats measured in days since the start of the measurement
period; sub-day resolution matters because the median fraudulent account
survives less than a day (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DAYS_PER_WEEK",
    "DAYS_PER_YEAR",
    "MONTHS_PER_YEAR",
    "TOTAL_DAYS",
    "TOTAL_WEEKS",
    "DAYS_PER_MONTH",
    "Window",
    "day_to_week",
    "day_to_month",
    "day_to_year",
    "month_label",
    "month_start",
    "quarter_window",
    "primary_window",
    "named_windows",
]

DAYS_PER_WEEK = 7
MONTHS_PER_YEAR = 12
DAYS_PER_YEAR = 364
TOTAL_DAYS = 2 * DAYS_PER_YEAR
TOTAL_WEEKS = TOTAL_DAYS // DAYS_PER_WEEK
DAYS_PER_MONTH = DAYS_PER_YEAR / MONTHS_PER_YEAR


@dataclass(frozen=True)
class Window:
    """A half-open interval ``[start, end)`` of simulation days."""

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window: [{self.start}, {self.end})")

    @property
    def length(self) -> float:
        """Window length in days."""
        return self.end - self.start

    def contains(self, day: float) -> bool:
        """Whether the day falls inside the half-open window."""
        return self.start <= day < self.end

    def overlaps(self, start: float, end: float) -> bool:
        """Whether the activity interval ``[start, end)`` intersects this window."""
        return start < self.end and end > self.start

    def clip(self, start: float, end: float) -> float:
        """Length of the overlap between ``[start, end)`` and this window."""
        lo = max(start, self.start)
        hi = min(end, self.end)
        return max(0.0, hi - lo)


def day_to_week(day: float) -> int:
    """Week index (0-based) containing ``day``."""
    return int(day // DAYS_PER_WEEK)


def day_to_month(day: float) -> int:
    """Month index (0-based, across both years) containing ``day``."""
    return min(int(day // DAYS_PER_MONTH), 2 * MONTHS_PER_YEAR - 1)


def day_to_year(day: float) -> int:
    """Year index (0-based) containing ``day``."""
    return min(int(day // DAYS_PER_YEAR), 1)


def month_label(month_index: int) -> str:
    """Paper-style axis label for a 0-based month index, e.g. ``7/Y1``."""
    year = month_index // MONTHS_PER_YEAR + 1
    month = month_index % MONTHS_PER_YEAR + 1
    return f"{month}/Y{year}"


def month_start(month_index: int) -> float:
    """First day of the 0-based month index."""
    return month_index * DAYS_PER_MONTH


def quarter_window(year: int, quarter: int) -> Window:
    """Measurement window for ``quarter`` (1-4) of ``year`` (1-2)."""
    if year not in (1, 2):
        raise ValueError(f"year must be 1 or 2, got {year}")
    if quarter not in (1, 2, 3, 4):
        raise ValueError(f"quarter must be in 1..4, got {quarter}")
    start = (year - 1) * DAYS_PER_YEAR + (quarter - 1) * (DAYS_PER_YEAR / 4)
    return Window(start, start + DAYS_PER_YEAR / 4, f"Y{year}Q{quarter}")


def primary_window(days: int) -> Window:
    """The paper's workhorse window for a run of ``days`` days: Year 1 Q2.

    Falls back to the middle half of the simulated span for runs too
    short to reach the end of Year 1 Q2 (test configurations).
    """
    window = quarter_window(1, 2)
    if window.end <= days:
        return window
    return Window(days * 0.25, days * 0.75, "short-run window")


def named_windows() -> dict[str, Window]:
    """The five analysis windows used throughout the paper's figures.

    Figure 4 uses "Q2 Year 1", "Oct. Year 1", "Q1 Year 2", "Apr. Year 2"
    and "Oct. Year 2"; the month-named windows are single months.
    """
    octo1 = month_start(9)
    apr2 = month_start(MONTHS_PER_YEAR + 3)
    octo2 = month_start(MONTHS_PER_YEAR + 9)
    return {
        "Q2 Year 1": quarter_window(1, 2),
        "Oct. Year 1": Window(octo1, octo1 + DAYS_PER_MONTH, "Oct. Year 1"),
        "Q1 Year 2": quarter_window(2, 1),
        "Apr. Year 2": Window(apr2, apr2 + DAYS_PER_MONTH, "Apr. Year 2"),
        "Oct. Year 2": Window(octo2, octo2 + DAYS_PER_MONTH, "Oct. Year 2"),
    }

"""Experiment plumbing.

Each experiment module exposes ``run(context) -> ExperimentOutput``.
The shared :class:`ExperimentContext` memoizes the expensive
intermediates (subset builders, competition analyzers) so running all
21 experiments costs one simulation plus one pass of each analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.cdf import Ecdf
from ..analysis.competition import CompetitionAnalyzer
from ..analysis.subsets import SubsetBuilder
from ..config import SimulationConfig
from ..plotting.ascii import render_cdfs, render_lines, render_series_table
from ..simulator.cache import cached_simulation
from ..simulator.results import SimulationResult
from ..timeline import Window, primary_window

__all__ = ["ExperimentOutput", "ExperimentContext", "Chart", "Table"]

#: Subset size used by experiments.  The paper samples ~10,000 from
#: millions of advertisers; our marketplace holds ~12k non-fraudulent
#: accounts, so 2,000 preserves the paper's subset-of-population
#: semantics (a 10k target would simply take everyone) and keeps the
#: matched-sampling step fast.
SUBSET_TARGET = 2_000


@dataclass(frozen=True)
class Chart:
    """One renderable chart: either raw series or ECDF curves."""

    title: str
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    cdfs: dict[str, Ecdf] = field(default_factory=dict)
    logx: bool = False
    xlabel: str = ""
    ylabel: str = ""

    def render(self) -> str:
        """ASCII rendering of the chart."""
        if self.cdfs:
            return render_cdfs(
                self.cdfs, self.title, logx=self.logx, xlabel=self.xlabel
            )
        return render_lines(
            self.series,
            self.title,
            logx=self.logx,
            xlabel=self.xlabel,
            ylabel=self.ylabel,
        )

    def as_series(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The chart's data as named (x, y) arrays."""
        if self.cdfs:
            return {name: (c.x, c.y) for name, c in self.cdfs.items()}
        return dict(self.series)


@dataclass(frozen=True)
class Table:
    """One renderable table."""

    title: str
    headers: list[str]
    rows: list[list]

    def render(self) -> str:
        return render_series_table(self.headers, self.rows, self.title)


@dataclass(frozen=True)
class ExperimentOutput:
    """What one experiment produced."""

    experiment_id: str
    title: str
    charts: list[Chart] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Headline scalars, for EXPERIMENTS.md's paper-vs-measured records.
    metrics: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        for table in self.tables:
            parts.append(table.render())
        for chart in self.charts:
            parts.append(chart.render())
        if self.metrics:
            parts.append(
                "metrics: "
                + ", ".join(f"{k}={v:.4g}" for k, v in self.metrics.items())
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts) + "\n"


class ExperimentContext:
    """Shared state for a batch of experiments over one simulation."""

    def __init__(
        self,
        config: SimulationConfig,
        result: SimulationResult | None = None,
        subset_target: int = SUBSET_TARGET,
    ) -> None:
        self.config = config
        self._result = result
        self.subset_target = subset_target
        self._builders: dict[str, SubsetBuilder] = {}
        self._analyzers: dict[tuple[str, bool], CompetitionAnalyzer] = {}

    @property
    def result(self) -> SimulationResult:
        """The (lazily simulated) shared result."""
        if self._result is None:
            self._result = cached_simulation(self.config)
        return self._result

    def primary_window(self) -> Window:
        """The paper's workhorse window (:func:`repro.timeline.primary_window`)."""
        return primary_window(self.config.days)

    def subsets(self, window: Window | None = None) -> SubsetBuilder:
        """Memoized subset builder for a window."""
        window = window or self.primary_window()
        key = f"{window.start}:{window.end}"
        builder = self._builders.get(key)
        if builder is None:
            builder = SubsetBuilder(
                self.result, window, target_size=self.subset_target
            )
            self._builders[key] = builder
        return builder

    def analyzer(
        self, window: Window | None = None, dubious_only: bool = False
    ) -> CompetitionAnalyzer:
        window = window or self.primary_window()
        key = (f"{window.start}:{window.end}", dubious_only)
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            analyzer = CompetitionAnalyzer(
                self.result, window, dubious_only=dubious_only
            )
            self._analyzers[key] = analyzer
        return analyzer

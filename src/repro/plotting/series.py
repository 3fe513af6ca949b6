"""Numeric series export for external plotting."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from ..records.atomic import atomic_write_text

__all__ = ["export_series_csv"]


def export_series_csv(
    series: dict[str, tuple[np.ndarray, np.ndarray]], path: str | Path
) -> None:
    """Write named (x, y) series as long-format CSV (series, x, y).

    The file is rendered in memory and lands through
    :func:`~repro.records.atomic.atomic_write_text`, so a series that
    fails to convert leaves any previous file as it was.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["series", "x", "y"])
    for name, (x, y) in series.items():
        for xv, yv in zip(np.asarray(x), np.asarray(y)):
            writer.writerow([name, float(xv), float(yv)])
    atomic_write_text(path, text.getvalue())

"""ASCII rendering and CSV export of figure data."""

from .ascii import render_cdfs, render_lines, render_series_table
from .series import export_series_csv

__all__ = [
    "render_cdfs",
    "render_lines",
    "render_series_table",
    "export_series_csv",
]

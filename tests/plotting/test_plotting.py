"""Tests for ASCII rendering and series export."""

import csv

import numpy as np
import pytest

from repro.analysis.cdf import ecdf
from repro.plotting import (
    export_series_csv,
    render_cdfs,
    render_lines,
    render_series_table,
)


class TestRenderLines:
    def test_basic_render(self):
        x = np.linspace(0, 10, 20)
        text = render_lines({"a": (x, x**2)}, "squares", xlabel="x", ylabel="y")
        assert "squares" in text
        assert "a" in text
        assert "|" in text

    def test_empty_series(self):
        text = render_lines({}, "nothing")
        assert "no data" in text

    def test_log_axis(self):
        x = np.logspace(0, 3, 10)
        text = render_lines({"a": (x, x)}, "log", logx=True)
        assert "(log)" in text or "log" in text

    def test_log_axis_no_positive(self):
        text = render_lines({"a": (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))},
                            "bad", logx=True)
        assert "no positive" in text

    def test_multiple_series_distinct_glyphs(self):
        x = np.linspace(0, 1, 5)
        text = render_lines({"one": (x, x), "two": (x, 1 - x)}, "t")
        assert "o one" in text
        assert "x two" in text

    def test_constant_series(self):
        x = np.linspace(0, 1, 5)
        text = render_lines({"flat": (x, np.ones(5))}, "flat")
        assert "flat" in text


class TestRenderCdfs:
    def test_render(self):
        curves = {"F": ecdf([1.0, 2.0, 3.0]), "NF": ecdf([2.0, 4.0])}
        text = render_cdfs(curves, "cdfs")
        assert "F" in text and "NF" in text


class TestRenderTable:
    def test_alignment(self):
        text = render_series_table(
            ["name", "value"], [["alpha", 1.5], ["b", 22.123456]], "title"
        )
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "name" in lines[1]
        assert "alpha" in lines[3]

    def test_float_formatting(self):
        text = render_series_table(["v"], [[0.123456789]])
        assert "0.1235" in text


class TestExport:
    def test_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        export_series_csv(
            {"a": (np.array([1.0, 2.0]), np.array([0.5, 1.0]))}, path
        )
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["series", "x", "y"]
        assert len(rows) == 3

    def test_failed_export_keeps_old_file(self, tmp_path):
        # The second series cannot convert: nothing is written, the old
        # file stays and no temporary file is left behind.
        class Broken:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("boom")

        path = tmp_path / "series.csv"
        path.write_text("old\n")
        series = {
            "a": (np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])),
            "b": (Broken(), np.array([1.0])),
        }
        with pytest.raises(RuntimeError, match="boom"):
            export_series_csv(series, path)
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

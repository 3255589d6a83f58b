"""Tests for the shared benchmark harness utilities."""

import json

import numpy as np
import pytest

from repro.bench import (
    TimingStats,
    bench_output_dir,
    bench_scale,
    cached_suspension,
    format_bytes,
    format_table,
    measure_seconds,
    record_benchmark,
)
from repro.bench.record import RECORD_SCHEMA


class TestScale:
    def test_default_is_ci(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "ci"

    def test_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "PAPER")
        assert bench_scale() == "paper"

    def test_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            bench_scale()


class TestCachedSuspension:
    def test_returns_same_object(self):
        a = cached_suspension(30, 0.1, seed=0)
        b = cached_suspension(30, 0.1, seed=0)
        assert a is b

    def test_distinct_keys_distinct_systems(self):
        a = cached_suspension(30, 0.1, seed=0)
        b = cached_suspension(30, 0.15, seed=0)
        assert a is not b
        assert a.box.length != b.box.length


class TestMeasure:
    def test_returns_timing_stats(self):
        stats = measure_seconds(lambda: sum(range(1000)))
        assert isinstance(stats, TimingStats)
        assert stats.best > 0
        assert stats.repeats == 1
        assert stats.std == 0.0

    def test_best_of_repeats(self):
        calls = []
        stats = measure_seconds(lambda: calls.append(1), repeats=3,
                                warmup=2)
        assert len(calls) == 5
        assert stats.repeats == 3
        assert 0 <= stats.best <= stats.mean
        assert stats.std >= 0


class TestRecord:
    def test_output_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_OUTDIR", str(tmp_path))
        assert bench_output_dir() == tmp_path
        monkeypatch.delenv("REPRO_BENCH_OUTDIR")
        assert str(bench_output_dir()) == "."

    def test_record_roundtrip(self, tmp_path):
        stats = measure_seconds(lambda: None, repeats=2)
        path = record_benchmark(
            "unit", ["name", "t (s)"],
            [["a", 1.5], ["b", stats]],
            meta={"nested": [[1, 2], [3, 4]]}, out_dir=tmp_path)
        assert path == tmp_path / "BENCH_unit.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == RECORD_SCHEMA
        assert doc["name"] == "unit"
        assert doc["headers"] == ["name", "t (s)"]
        assert doc["rows"][0] == ["a", 1.5]
        # TimingStats serializes to its stat dict, not a string
        assert doc["rows"][1][1]["repeats"] == 2
        assert doc["meta"]["nested"] == [[1, 2], [3, 4]]

    def test_record_creates_missing_outdir(self, monkeypatch, tmp_path):
        missing = tmp_path / "not" / "there"
        monkeypatch.setenv("REPRO_BENCH_OUTDIR", str(missing))
        path = record_benchmark("mk", ["v"], [[1]])
        assert path == missing / "BENCH_mk.json" and path.exists()

    def test_record_handles_numpy_scalars(self, tmp_path):
        path = record_benchmark("np", ["v"], [[np.float64(0.5)]],
                                out_dir=tmp_path)
        doc = json.loads(path.read_text())
        assert doc["rows"][0][0] == 0.5


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(10) == "10.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024 ** 3) == "3.0 GB"

    def test_format_table_alignment(self):
        out = format_table("T", ["aa", "b"], [[1, 2.5], [30, 0.125]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "aa" in lines[2]
        # all rows have the same rendered width
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_format_table_empty_rows(self):
        out = format_table("empty", ["x"], [])
        assert "x" in out

    def test_float_formatting(self):
        out = format_table("t", ["v"], [[0.123456789]])
        assert "0.1235" in out

    def test_numpy_scalars(self):
        # np.float64 subclasses float, so it takes the float format path
        out = format_table("t", ["v"], [[np.float64(1.5)]])
        assert "1.5" in out

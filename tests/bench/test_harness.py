"""Tests for the experiment result tables."""

import pytest

from repro.bench import ResultTable, results_dir


class TestResultTable:
    def test_add_row_validates_columns(self):
        table = ResultTable("EX", "demo", ["a", "b"])
        table.add_row(a=1, b=2)
        with pytest.raises(ValueError):
            table.add_row(a=1)
        with pytest.raises(ValueError):
            table.add_row(a=1, b=2, c=3)

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            ResultTable("EX", "demo", [])

    def test_to_text_aligned(self):
        table = ResultTable("EX", "demo title", ["k", "time_ms"])
        table.add_row(k=5, time_ms=1.234)
        table.add_row(k=40, time_ms=19.9)
        text = table.to_text()
        lines = text.split("\n")
        assert lines[0] == "EX: demo title"
        assert "k" in lines[1] and "time_ms" in lines[1]
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_float_formatting(self):
        table = ResultTable("EX", "demo", ["v"])
        table.add_row(v=0.000123)
        table.add_row(v=123456.0)
        text = table.to_text()
        assert "0.000123" in text
        assert "123,456" in text

    def test_save_writes_txt_and_csv(self, tmp_path):
        table = ResultTable("E99", "demo", ["x"])
        table.add_row(x=1)
        path = table.save(tmp_path)
        assert path.read_text().startswith("E99: demo")
        assert (tmp_path / "e99.csv").read_text().startswith("x")

    def test_column_accessor(self):
        table = ResultTable("EX", "demo", ["x", "y"])
        table.add_row(x=1, y=2)
        table.add_row(x=3, y=4)
        assert table.column("x") == [1, 3]
        with pytest.raises(KeyError):
            table.column("z")

    def test_results_dir_created(self, tmp_path):
        directory = results_dir(tmp_path / "nested" / "results")
        assert directory.exists()

    def test_default_dir_is_ignored_unless_requested(self, monkeypatch):
        from repro.bench.harness import WRITE_RESULTS_ENV

        monkeypatch.delenv(WRITE_RESULTS_ENV, raising=False)
        scratch = results_dir()
        assert scratch.name == "latest"
        assert scratch.parent.name == "results"
        monkeypatch.setenv(WRITE_RESULTS_ENV, "1")
        assert results_dir() == scratch.parent

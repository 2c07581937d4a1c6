"""Tests for the benchmark reporting helpers."""

import importlib.util
import json
import os
import sys

import pytest

from repro.bench import report
from repro.bench.report import format_table, print_results, print_series


class TestFormatTable:
    def test_columns_are_aligned(self):
        rows = [{"protocol": "PoE", "throughput": 123456},
                {"protocol": "HotStuff", "throughput": 7}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 3
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "PoE" in lines[1] and "HotStuff" in lines[2]

    def test_explicit_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert "c" in header and "a" in header and "b" not in header

    def test_missing_keys_render_empty(self):
        rows = [{"a": 1}, {"a": 2, "b": "x"}]
        text = format_table(rows, columns=["a", "b"])
        assert "x" in text

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"


class TestRecorder:
    """``print_results`` / ``print_series`` record what they print."""

    @pytest.fixture(autouse=True)
    def fresh_recorder(self, monkeypatch):
        monkeypatch.setattr(report, "RECORDED", [])

    def test_print_results_records_title_and_rows(self, capsys):
        print_results("My Table", iter([{"x": 1}, {"x": 2}]))
        assert "My Table" in capsys.readouterr().out
        assert report.RECORDED == [("My Table", [{"x": 1}, {"x": 2}])]

    def test_print_series_records_points(self, capsys):
        print_series("My Series", [{"t": 1, "v": 2.5}])
        assert "t=1, v=2.5" in capsys.readouterr().out
        assert report.RECORDED == [("My Series", [{"t": 1, "v": 2.5}])]

    def test_column_selection_prints_a_subset_and_records_whole_rows(self, capsys):
        print_results("Narrow", [{"a": 1, "b": 2}], columns=["a"])
        assert "b" not in capsys.readouterr().out.splitlines()[-2]
        assert report.RECORDED == [("Narrow", [{"a": 1, "b": 2}])]


class TestFigureExpectations:
    """``benchmarks/conftest.py``: the ``--json`` table and the ``--expected`` diff."""

    @pytest.fixture(scope="class")
    def harness(self):
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
        del sys.modules[spec.name]

    @staticmethod
    def _table(**figures):
        return {"schema": 1, "scale": "quick", "figures": figures}

    def test_table_holds_every_printed_figure_and_round_trips(self, harness, monkeypatch):
        monkeypatch.setattr(harness, "RECORDED", [("Fig — a", [{"n": 4, "x": 1.5}])])
        table = harness.figure_table()
        assert table["figures"] == {"Fig — a": [{"n": 4, "x": 1.5}]}
        assert json.loads(harness.render_figure_table(table)) == table
        assert harness.diff_against_expected(table, table) == []

    def test_a_title_printed_twice_is_an_error(self, harness, monkeypatch):
        monkeypatch.setattr(harness, "RECORDED", [("Fig", []), ("Fig", [])])
        with pytest.raises(ValueError, match="Fig"):
            harness.figure_table()

    def test_moved_missing_and_extra_rows_name_figure_and_row(self, harness):
        pinned = self._table(fig8=[{"scheme": "None", "txn": 10}, {"scheme": "ED", "txn": 3}])
        moved = self._table(fig8=[{"scheme": "None", "txn": 10}, {"scheme": "ED", "txn": 4}])
        assert harness.diff_against_expected(moved, pinned) == [
            "fig8: row 1: observed {'scheme': 'ED', 'txn': 4}, "
            "recorded {'scheme': 'ED', 'txn': 3}"]
        short = self._table(fig8=pinned["figures"]["fig8"][:1])
        assert harness.diff_against_expected(short, pinned) == [
            "fig8: row 1: observed absent, recorded {'scheme': 'ED', 'txn': 3}"]
        assert harness.diff_against_expected(pinned, short) == [
            "fig8: row 1: observed {'scheme': 'ED', 'txn': 3}, recorded absent"]

    def test_missing_and_extra_figures_are_differences(self, harness):
        differences = harness.diff_against_expected(
            self._table(fig7=[], fig9=[]), self._table(fig7=[], fig8=[]))
        assert differences == ["fig8: pinned, but this run did not produce it",
                               "fig9: not in the expectations file"]

    def test_another_scale_is_not_comparable(self, harness):
        paper = dict(self._table(fig7=[{"x": 1}]), scale="paper")
        differences = harness.diff_against_expected(paper, self._table(fig7=[{"x": 2}]))
        assert len(differences) == 1 and differences[0].startswith("scale:")


class TestPerfDeltaMode:
    """check_processed_events: perf-smoke's per-row deltas from the pins."""

    def _row(self, protocol="poe-mac", n=32, events=1000):
        return {"protocol": protocol, "n": n, "batch_size": 100,
                "total_batches": 60, "seed": 3, "processed_events": events}

    def test_check_processed_events_passes_on_match(self):
        from repro.bench.perf import check_processed_events, row_key
        row = self._row(events=1234)
        expectations = {"rows": {row_key(row): 1234}}
        assert check_processed_events([row], expectations) == []

    def test_check_processed_events_reports_all_mismatch_kinds(self):
        from repro.bench.perf import check_processed_events, row_key
        drifted = self._row(events=1234)
        unexpected = self._row(protocol="pbft", events=50)
        expectations = {"rows": {row_key(drifted): 1200,
                                 "zyzzyva:n4:b100:t60:s3": 77}}
        problems = check_processed_events([drifted, unexpected], expectations)
        assert len(problems) == 3  # drift, unexpected row, missing row
        assert any("1234 != expected 1200" in p for p in problems)
        assert any("no expectation recorded" in p for p in problems)
        assert any("missing from the suite" in p for p in problems)

    def test_check_processed_events_pins_digest_memo_misses(self):
        from repro.bench.perf import check_processed_events, row_key
        row = dict(self._row(events=1234), digest_memo_misses=40)
        key = row_key(row)
        pinned = {"rows": {key: 1234}, "digest_memo_misses": {key: 40}}
        assert check_processed_events([row], pinned) == []
        per_replica_again = dict(row, digest_memo_misses=160)
        problems = check_processed_events([per_replica_again], pinned)
        assert problems == [f"{key}: digest_memo_misses 160 != expected 40"]

    def test_check_processed_events_pins_peak_heap_entries(self):
        from repro.bench.perf import check_processed_events, row_key
        large = dict(self._row(events=1234), peak_heap_entries=274)
        small = self._row(n=4, events=50)  # rows under n=32 record no peak
        pinned = {"rows": {row_key(large): 1234, row_key(small): 50},
                  "peak_heap_entries": {row_key(large): 274}}
        assert check_processed_events([large, small], pinned) == []
        per_receiver_again = dict(large, peak_heap_entries=3637)
        unpinned = dict(small, peak_heap_entries=12)
        problems = check_processed_events([per_receiver_again, unpinned],
                                          pinned)
        assert problems == [
            f"{row_key(large)}: peak_heap_entries 3637 != expected 274",
            f"{row_key(small)}: peak_heap_entries 12 != expected None"]


class TestPerfCommandLine:
    """``bench_perf_fabric.py`` takes ``--check-events`` only."""

    @pytest.fixture(scope="class")
    def bench(self):
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "bench_perf_fabric.py")
        spec = importlib.util.spec_from_file_location("bench_perf_fabric", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("flag", ["--profile", "--parallel", "--compare",
                                      "--shards", "--output"])
    def test_a_removed_mode_is_rejected_before_the_suite_runs(
            self, bench, flag, monkeypatch, capsys):
        def run_suite():
            raise AssertionError("the suite ran")
        monkeypatch.setattr(bench, "run_suite", run_suite)
        with pytest.raises(SystemExit) as exit_info:
            bench.main([flag, "x"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


class TestCountedRow:
    """``count_cluster``: one run, its exact counts."""

    def test_the_counting_run_is_the_plain_run(self):
        from repro.bench.perf import count_cluster
        from repro.fabric.cluster import Cluster, ClusterConfig
        row = count_cluster("poe-mac", 4, total_batches=6)
        assert "peak_heap_entries" not in row  # recorded from n=32 up
        cluster = Cluster(ClusterConfig(protocol="poe-mac", num_replicas=4,
                                        batch_size=100, total_batches=6, seed=3))
        cluster.start()
        cluster.run_until_done()
        assert row["processed_events"] == cluster.simulator.processed_events

    def test_peak_heap_is_per_broadcast_not_per_receiver(self, monkeypatch):
        from repro.bench import perf
        monkeypatch.setattr(perf, "PEAK_HEAP_MIN_REPLICAS", 16)
        row = perf.count_cluster("pbft", 16, total_batches=6)
        again = perf.count_cluster("pbft", 16, total_batches=6)
        assert row["peak_heap_entries"] == again["peak_heap_entries"]
        # 16 outstanding slots x 16 senders x 15 receivers would be 3840
        # live deliveries; entries are per broadcast (plus timers).
        assert 0 < row["peak_heap_entries"] < 16 * 16 * 2

"""Shared configuration for the benchmark harness.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper.  The benchmarks run on the deterministic simulator, so they are
CPU-bound Python; to keep the default run laptop-sized they use a reduced
"quick" scale (fewer replicas, fewer batches).  Set the environment
variable ``REPRO_BENCH_SCALE=paper`` to sweep the paper's full replica
counts (4-91) and batch counts — expect a run of tens of minutes.

The session's figure rows (``repro.bench.report.RECORDED``) are written
with ``--json PATH`` and compared with ``--expected
benchmarks/FIGURE_EXPECTATIONS.json``, which pins the quick scale.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

import pytest

from repro.bench.report import RECORDED


@dataclass(frozen=True)
class BenchScale:
    """Size of the benchmark sweeps."""

    name: str
    replica_counts: tuple
    num_batches: int
    batch_sizes: tuple
    view_change_duration_ms: float
    delay_decisions: int


QUICK = BenchScale(
    name="quick",
    replica_counts=(4, 16, 32),
    num_batches=80,
    batch_sizes=(10, 50, 100, 200),
    view_change_duration_ms=3_000.0,
    delay_decisions=60,
)

PAPER = BenchScale(
    name="paper",
    replica_counts=(4, 16, 32, 64, 91),
    num_batches=120,
    batch_sizes=(10, 50, 100, 200, 400),
    view_change_duration_ms=8_000.0,
    delay_decisions=200,
)


def current_scale() -> BenchScale:
    return PAPER if os.environ.get("REPRO_BENCH_SCALE", "quick") == "paper" else QUICK


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return current_scale()


def pytest_addoption(parser) -> None:
    """Same ``--json`` / ``--expected`` pair as ``examples/fault_matrix.py``."""
    parser.addoption("--json", metavar="PATH", default=None,
                     help="write every figure's rows printed by this session "
                          "as one JSON file")
    parser.addoption("--expected", metavar="PATH", default=None,
                     help="diff the figure rows against a pinned file "
                          "(benchmarks/FIGURE_EXPECTATIONS.json); any moved, "
                          "missing or extra row fails the session")


def figure_table() -> Dict[str, object]:
    """The machine-readable form of every figure printed so far."""
    figures = dict(RECORDED)
    if len(figures) != len(RECORDED):
        raise ValueError("a figure title was printed twice: "
                         f"{[title for title, _rows in RECORDED]}")
    table = {"schema": 1, "scale": current_scale().name, "figures": figures}
    # Through JSON once, so rows compare as the pinned file stores them.
    return json.loads(json.dumps(table))


def render_figure_table(table: Dict[str, object]) -> str:
    """JSON with one row per line, so a moved value is a one-line diff."""
    figures = ",\n".join(
        f"  {json.dumps(title, ensure_ascii=False)}: [\n"
        + ",\n".join(f"   {json.dumps(row)}" for row in rows) + "\n  ]"
        for title, rows in table["figures"].items())
    return (f'{{\n "schema": {table["schema"]},\n "scale": "{table["scale"]}",\n'
            f' "figures": {{\n{figures}\n }}\n}}\n')


def diff_against_expected(table: Dict[str, object],
                          expected: Dict[str, object]) -> List[str]:
    """Row-for-row differences; empty when the run reproduced every pin."""
    for key in ("schema", "scale"):
        if expected[key] != table[key]:
            return [f"{key}: run is {table[key]!r}, expectations are for "
                    f"{expected[key]!r} — rows are not comparable"]
    observed, recorded = table["figures"], expected["figures"]
    differences = []
    for title in sorted(set(observed) | set(recorded)):
        if title not in recorded:
            differences.append(f"{title}: not in the expectations file")
        elif title not in observed:
            differences.append(f"{title}: pinned, but this run did not produce it")
        else:
            for index, (have, want) in enumerate(zip_longest(
                    observed[title], recorded[title], fillvalue="absent")):
                if have != want:
                    differences.append(f"{title}: row {index}: observed {have}, "
                                       f"recorded {want}")
    return differences


def pytest_sessionfinish(session) -> None:
    json_path = session.config.getoption("--json")
    expected_path = session.config.getoption("--expected")
    if not (json_path or expected_path):
        return
    table = figure_table()
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(render_figure_table(table))
    if expected_path:
        with open(expected_path, "r", encoding="utf-8") as handle:
            differences = diff_against_expected(table, json.load(handle))
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line("")
        if differences:
            reporter.write_line(f"figure rows differ from {expected_path}:", red=True)
            for line in differences:
                reporter.write_line(f"  {line}", red=True)
            session.exitstatus = session.exitstatus or pytest.ExitCode.TESTS_FAILED
        else:
            reporter.write_line(f"figure rows match {expected_path} "
                                f"({len(table['figures'])} figures)")

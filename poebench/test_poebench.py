"""Self-test of poebench: every workload at 1/20 size, both passes."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import agree  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """{workload: {0: detail, 1: detail}} at 1/20 size, one timed rep,
    two set-ups, no host-speed calibration."""
    out = tmp_path_factory.mktemp("poebench")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "calibrate", lambda: measure.REFERENCE_S)
        patch.setattr(measure, "MIN_REPS", 1)
        patch.setattr(measure, "TRACE_MIN_REPS", 1)
        patch.setattr(measure, "SETUP_CALLS", 2)
        return {name: {trace: run.run_one(name, seed=3, seconds=0.0,
                                          trace=trace, out=out, scale=0.05)
                       for trace in (0, 1)}
                for name in WORKLOADS}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "poebench/run.py"]
    assert SPEC["paths"] == ["poebench"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(measured, trace, key):
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(NAME.fullmatch(name) for name in expected)
    for name, passes in measured.items():
        result = run.result_line(passes[trace])
        emitted = {m: v["unit"] for m, v in result["metrics"].items()}
        assert emitted == expected, name
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1


def test_traced_rep_reproduces_the_untraced_events(measured):
    # check() compares them; a mismatch makes the run incorrect.
    for name, passes in measured.items():
        detail = passes[1]
        assert detail["problems"] == [], name
        assert detail["reps"][-1]["traced"]


def test_self_fractions_sum_to_one(measured):
    for name, passes in measured.items():
        detail = passes[1]
        total = sum(row["self_frac"] for row in detail["layers"])
        assert total == pytest.approx(1.0, abs=0.01), name
        assert [row["layer"] for row in detail["layers"]] == layers.LAYERS


def test_spans_form_a_tree(measured):
    for name, passes in measured.items():
        spans = passes[1]["spans"]
        assert spans[0]["parent"] is None
        for span in spans[1:]:
            assert 0 <= span["parent"] < span["id"]
            assert span["start_s"] <= span["end_s"]
        chunks = [s for s in spans if s["name"] == "chunk"]
        events = passes[1]["metrics"]["net.simulator.events"]["value"]
        assert sum(c["events"] for c in chunks) == events, name


def test_exact_counts_separate_the_workloads(measured):
    def value(name, metric):
        return measured[name][1]["metrics"][metric]["value"]

    assert value("mac_flood_n32", "crypto.threshold.calls") == 0
    assert value("ts_linear_n32", "crypto.threshold.calls") > 0
    for name in WORKLOADS:
        sharded = name == "xshard_2sh_x20"
        assert (value(name, "fabric.sharding.calls") > 0) == sharded
        assert (value(name, "fabric.sharding.windows") > 0) == sharded
        crashed = name == "primary_crash_n16"
        assert (value(name, "protocols.recovery.view_changes") >= 1) == crashed


def test_every_module_has_a_layer():
    package = HERE.parent / "src" / "repro"
    modules = {str(path.relative_to(package).with_suffix(""))
               for path in package.rglob("*.py")
               if path.name != "__init__.py"
               and path.relative_to(package).parts[0] != "bench"}
    assert modules - set(layers.MODULE_LAYER) == set()
    assert set(layers.MODULE_LAYER) - modules == set()


def test_agree_verdicts():
    base = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert agree.verdict(base, base, "higher", 0.1) == "same"
    assert agree.verdict(base, dict(base, value=111.0), "lower", 0.1) == "worse"
    assert agree.verdict(base, dict(base, value=89.0), "higher", 0.1) == "worse"
    assert agree.verdict(base, dict(base, value=89.0), "lower", 0.1) == "same"
    wide = {"value": 100.0, "q1": 90.0, "q3": 110.0}
    assert agree.verdict(base, wide, "higher", 0.1) == "unresolved"


def test_a_result_agrees_with_itself(measured, tmp_path, capsys):
    results = {"workloads": {
        name: {"end_to_end": passes[0]["metrics"],
               "per_layer": passes[1]["metrics"]}
        for name, passes in measured.items()}}
    path = tmp_path / "results.json"
    path.write_text(json.dumps(results))
    assert agree.main(path, path, BENCHMARK) == 0
    rows = capsys.readouterr().out.splitlines()
    # Two set-ups of a toy size can spread wider than the bound, so
    # "unresolved" may appear; nothing else may.
    assert not [row for row in rows[1:-1]
                if row.split()[-1] not in ("same", "unresolved")]

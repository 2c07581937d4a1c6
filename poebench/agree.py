"""``--agree A B``: do two result files agree?

For every (workload, end-to-end metric) the second file's median is
compared with the first's against the metric's bound in
``BENCHMARK.json``:

* ``worse`` — B is worse than A by more than the bound;
* ``unresolved`` — not worse, but the quartile spread of A or of B is
  wider than the bound, so "same" cannot be told from "a little worse";
* ``same`` — otherwise.

Per-layer metrics have no bound; the exact counts among them (unit
``count``) are compared for equality and reported as ``same``/``moved``.
The exit code is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict


def _spread(metric: Dict[str, float]) -> float:
    if not metric["value"]:  # ok_op_frac of a run that failed a check
        return 0.0
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> str:
    loss = a["value"] - b["value"] if better == "higher" \
        else b["value"] - a["value"]
    if loss > bound * abs(a["value"]):
        return "worse"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "same"


def _cell(metric: Dict[str, float]) -> str:
    return f"{metric['value']:.6g} [{metric['q1']:.6g}, {metric['q3']:.6g}]"


def main(path_a: Path, path_b: Path, benchmark: Path) -> int:
    spec = json.loads(benchmark.read_text())
    runs_a = json.loads(path_a.read_text())["workloads"]
    runs_b = json.loads(path_b.read_text())["workloads"]
    tally = {"same": 0, "worse": 0, "unresolved": 0, "moved": 0}
    print("workload metric A[q1,q3] B[q1,q3] verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        a, b = runs_a[workload], runs_b[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            result = verdict(a["end_to_end"][name], b["end_to_end"][name],
                             m["better"], m["bound"])
            tally[result] += 1
            print(workload, name, _cell(a["end_to_end"][name]),
                  _cell(b["end_to_end"][name]), result)
        for m in spec["per_layer"]:
            name = m["name"]
            if m["unit"] != "count" or "per_layer" not in a \
                    or "per_layer" not in b:
                continue
            left, right = a["per_layer"][name], b["per_layer"][name]
            result = "same" if left["value"] == right["value"] else "moved"
            tally[result] += 1
            print(workload, name, f"{left['value']:g}", f"{right['value']:g}",
                  result)
    print(", ".join(f"{count} {name}" for name, count in tally.items()))
    return 1 if tally["worse"] else 0

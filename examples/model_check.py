#!/usr/bin/env python3
"""Bounded model checker: exhaustive interleavings of the recovery engine.

Drives the deterministic simulator through *every* delivery ordering of a
tiny cluster (n=4, one or two batches), with optional crash and
equivocation choice points, and evaluates the cross-replica safety
invariants (divergent prefixes, duplicate execution, broken ledger
chains, rollbacks past a stable checkpoint) at every reachable state.
Deadlocks and stalls are distinguished from legitimate quiescence, and
the smallest max-view over all completing orderings is reported, so a
cell advertised as "forces a view change" provably does.

The default cells pair PoE and PBFT with (a) a primary that may crash at
any point, (b) a primary dead from the start — every ordering recovers
through a view change — and (c) an equivocating primary plus a crashed
backup.  ``--all-protocols`` adds Zyzzyva and SBFT crash-recovery cells.
State/transition counts are deterministic; ``--expected`` diffs them
against the checked-in ``MCK_EXPECTATIONS.json`` so a state-space change
shows up as a reviewable diff.

Any violation is cut to a shortest trace (``modelcheck.check`` re-explores
breadth-first) and serialized as replayable JSON.  ``--replay``
re-executes such a trace event by event, validating each step against
the recorded labels.  ``--revert-demo`` re-introduces a fixed recovery
bug (stale-slot eviction in ``adopt_new_view``, PR 3) under a
monkeypatch and lets the checker's randomized deferral hunt rediscover
it, shrink the trace to a local minimum, and write the counterexample.

Run with::

    python examples/model_check.py [--cells NAME ...] [--all-protocols]
        [--json OUT.json] [--expected MCK_EXPECTATIONS.json]
        [--artifact-dir DIR] [--replay TRACE.json [--reverted-fix]]
        [--revert-demo [--out TRACE.json]]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fabric.modelcheck import (
    EXTRA_CELLS,
    MODEL_CHECK_CELLS,
    check,
    load_trace,
    replay_trace,
    write_counterexample,
)
from repro.fabric.revertdemo import (
    REVERT_DEMO_WALK_SEED,
    reverted_stale_slot_fix,
    run_revert_demo,
)
from repro.fabric.scenarios import unknown_name_message


def run_replay(path: str, reverted_fix: bool) -> int:
    config, entries = load_trace(path)
    print(f"replaying {len(entries)} events against {config.protocol} "
          f"(timer_gate={config.timer_gate})")
    if reverted_fix:
        with reverted_stale_slot_fix():
            _cluster, violations = replay_trace(config, entries)
    else:
        _cluster, violations = replay_trace(config, entries)
    if violations:
        print("violations at the final state:")
        for violation in violations:
            print(f"  - [{violation.kind}] {violation.detail}")
    else:
        print("no violations at the final state")
    return 0


def run_demo(out: str, walks: int, walk_seed: int) -> int:
    print("reverting the stale-slot eviction fix (monkeypatched) and "
          "hunting with the pinned deferral-set walk...")
    result = run_revert_demo(walks=walks, walk_seed=walk_seed)
    if not result.found:
        print(f"no violation in {result.walks} walk(s) — the pinned walk "
              "should always find it; a behaviour change upstream moved "
              "the schedule")
        return 1
    assert result.counterexample is not None
    print(result.counterexample.summary())
    print(f"shrunk {len(result.counterexample.trace)} -> "
          f"{len(result.minimal_trace)} events; replay confirms: "
          f"{[v.kind for v in result.replay_violations]}")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result.minimal_json(), handle, indent=2)
        handle.write("\n")
    print(f"minimal counterexample written to {out}")
    print(f"replay it with: python examples/model_check.py "
          f"--replay {out} --reverted-fix")
    return 0


def diff_expected(observed: dict, path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    differences = []
    for name, have in observed.items():
        want = expected.get("cells", {}).get(name)
        if want is None:
            differences.append(f"{name}: no recorded expectation")
            continue
        for field in ("states", "transitions", "max_view",
                      "min_quiescent_view"):
            if have[field] != want.get(field):
                differences.append(
                    f"{name}.{field}: observed {have[field]}, "
                    f"recorded {want.get(field)}")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", nargs="*", default=None,
                        help="cell names to explore (default: all default "
                             f"cells: {' '.join(MODEL_CHECK_CELLS)})")
    parser.add_argument("--all-protocols", action="store_true",
                        help="add the Zyzzyva and SBFT crash-recovery cells")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable per-cell results here")
    parser.add_argument("--expected", metavar="PATH", default=None,
                        help="diff state/transition counts against this "
                             "checked-in expectations file (exit non-zero "
                             "on differences)")
    parser.add_argument("--artifact-dir", metavar="DIR", default=".",
                        help="where violating cells drop their replayable "
                             "counterexample JSON (default: cwd)")
    parser.add_argument("--replay", metavar="TRACE.json", default=None,
                        help="replay a serialized counterexample trace "
                             "instead of exploring")
    parser.add_argument("--reverted-fix", action="store_true",
                        help="with --replay: re-introduce the stale-slot "
                             "eviction bug so a revert-demo trace exhibits "
                             "its recorded violation")
    parser.add_argument("--revert-demo", action="store_true",
                        help="seeded-bug demo: revert the stale-slot "
                             "eviction fix and let the checker find it")
    parser.add_argument("--out", metavar="TRACE.json",
                        default="revert_demo.counterexample.json",
                        help="with --revert-demo: where to write the "
                             "minimal counterexample")
    parser.add_argument("--walks", type=int, default=1,
                        help="with --revert-demo: number of hunt walks "
                             "(default 1: replay the pinned walk)")
    parser.add_argument("--walk-seed", type=int,
                        default=REVERT_DEMO_WALK_SEED,
                        help="with --revert-demo: base seed of the hunt")
    args = parser.parse_args(argv)

    if args.replay:
        return run_replay(args.replay, args.reverted_fix)
    if args.revert_demo:
        return run_demo(args.out, args.walks, args.walk_seed)

    cells = dict(MODEL_CHECK_CELLS)
    if args.all_protocols:
        cells.update(EXTRA_CELLS)
    if args.cells:
        known = dict(MODEL_CHECK_CELLS)
        known.update(EXTRA_CELLS)
        unknown = [name for name in args.cells if name not in known]
        if unknown:
            parser.error(unknown_name_message("cell", " ".join(unknown),
                                              known))
        cells = {name: known[name] for name in args.cells}

    observed = {}
    failures = 0
    for name, config in cells.items():
        start = time.time()
        result = check(config)
        elapsed = time.time() - start
        print(f"{name:24s} {result.summary().splitlines()[0]}  "
              f"min_qview={result.min_quiescent_view}  [{elapsed:.1f}s]")
        observed[name] = {
            "states": result.states_explored,
            "transitions": result.transitions,
            "max_view": result.max_view,
            "min_quiescent_view": result.min_quiescent_view,
            "quiescent_leaves": result.quiescent_leaves,
            "safe": result.ok,
        }
        if not result.ok:
            failures += 1
            path = os.path.join(args.artifact_dir,
                                f"{name}.counterexample.json")
            write_counterexample(result.counterexample, path)
            print(result.counterexample.summary())
            print(f"counterexample written to {path}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"cells": observed}, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.expected:
        differences = diff_expected(observed, args.expected)
        if differences:
            print("state-space drift against recorded expectations:")
            for line in differences:
                print(f"  {line}")
            return 1
        print(f"all {len(observed)} cells match {args.expected}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

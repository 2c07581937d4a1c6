#!/usr/bin/env python3
"""Adversarial fault matrix: six protocols × twenty-one fault scenarios, audited.

Sweeps {PoE-MAC, PoE-TS, PBFT, SBFT, Zyzzyva, HotStuff} across crash,
partition, Byzantine (network-boundary and replica-level), adaptive
(primary-targeting, boundary equivocation, timeout-riding), membership
churn, drifting geo-topology, epoch reconfiguration (consensus-committed
grow/shrink, a membership change racing a view change, repeated
grow/shrink cycles) and colluding-cabal scenarios (playbook-coordinated
equivocation, and a Byzantine proposer's unsafe membership change that
every honest replica must refuse).  Every cell runs on the deterministic
simulated fabric with the cross-replica safety auditor attached; the
table reports liveness (did every client finish its budget?) and safety
(did the auditor find divergent prefixes, under-quorum completions,
rollbacks past a checkpoint, broken ledgers, or invalid epoch logs?).

On top of the single-group grid, the sharded rows (``xshard-*``) run a
two-shard cluster with cross-shard 2PC for the PoE-MAC and PBFT shard
protocols, including a crash-mid-2PC coordinator and two Byzantine
coordinator behaviours (equivocating and stalling decides); the
shard-aware auditor additionally checks cross-shard atomicity and
decide-certificate validity in those cells.

``MATRIX_EXPECTATIONS.json`` at the repository root is the matrix's only
expectation.  ``--json PATH`` writes the outcome table: per cell, every
field of :class:`~repro.fabric.scenarios.ScenarioOutcome` but the audit
report, whose violations are flattened to kind and detail.  ``--expected
PATH`` diffs that table against a pinned one column by column and decides
the exit code alone, naming every moved column by cell, so a flip — or a
cell that stays green but stops doing what it is named for — shows up as
a reviewable diff instead of being buried in an exit code.  Without
``--expected`` the run fails on any cell that is not live and safe.

``--soak STEPS`` switches to the bounded-horizon soak: thousands of
batches per run with a shortened client timeout, sampling every container
found on every node along the way — one still growing late in the run
(past the checkpoint/retention plateau) is a leak and fails the run,
unless ``BY_DESIGN_GROWTH`` names it with a reason.

Run with::

    python examples/fault_matrix.py [--replicas N] [--batches B] [--seed S]
        [--json OUT.json] [--expected MATRIX_EXPECTATIONS.json]
        [--soak STEPS] [--only PROTOCOL:SCENARIO]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fabric.scenarios import (
    BY_DESIGN_GROWTH,
    MATRIX_PROTOCOLS,
    SCENARIO_DEFS,
    SHARDED_MATRIX_PROTOCOLS,
    SHARDED_SCENARIOS,
    ScenarioParams,
    default_matrix_scenarios,
    format_matrix,
    run_matrix,
    run_soak,
    unexpected_outcomes,
    unknown_name_message,
)


def run_soak_sweep(protocols, scenarios, steps: int, seed: int) -> int:
    """Long-horizon soak over the selected cells; non-zero on any leak."""
    from repro.fabric.scenarios import soak_params

    failures = 0
    for protocol in protocols:
        for scenario in scenarios:
            params = soak_params(steps, seed=seed)
            report = run_soak(protocol, scenario, steps=steps, params=params)
            baseline = report.samples[1] if len(report.samples) > 1 \
                else report.samples[0]
            final = report.samples[-1]
            # Reply-state GC runs on a time horizon (32 timeouts); a run
            # that never crosses two of those windows cannot tell a leak
            # from a not-yet-pruned map.
            window_ms = 32 * params.request_timeout_ms
            if final.now_ms < 2 * window_ms:
                print(f"{protocol:>10} × {scenario:<22} SKIP  run spans "
                      f"{final.now_ms:.0f}ms < two retention windows "
                      f"({2 * window_ms:.0f}ms) — raise STEPS")
                continue
            leaks = {name for name, _, _ in report.growers()}
            ok = report.live and report.safe and not leaks
            status = "ok" if ok else "FAIL"
            print(f"{protocol:>10} × {scenario:<22} {status:>4}  "
                  f"live={report.live} safe={report.safe} "
                  f"completed={report.completed_batches}/{steps} "
                  f"span={final.now_ms:.0f}ms")
            print(f"{'':>12} {'container':<32} {'mid-run':>8} {'final':>8}")
            for name in report.tracked_names():
                marker = (" <-- LEAK" if name in leaks
                          else "  (by design)" if name in BY_DESIGN_GROWTH else "")
                print(f"{'':>12} {name:<32} {baseline.sizes.get(name, 0):>8} "
                      f"{final.sizes.get(name, 0):>8}{marker}")
            if not ok:
                failures += 1
                if not report.safe:
                    print(report.audit.summary())
    print()
    if failures:
        print(f"{failures} soak run(s) failed (stall, violation or leak)")
        return 1
    print("all soak runs live, safe and bounded")
    return 0


def outcome_table(outcomes, params: ScenarioParams) -> dict:
    """The machine-readable form of one matrix sweep."""
    def row(outcome) -> dict:
        cell = {field.name: getattr(outcome, field.name)
                for field in dataclasses.fields(outcome) if field.name != "audit"}
        cell["violations"] = [{"kind": violation.kind, "detail": violation.detail}
                              for violation in outcome.audit.violations]
        return cell

    return {
        "n": params.num_replicas,
        "batches": params.total_batches,
        "seed": params.seed,
        "cells": [row(outcome) for outcome in outcomes],
    }


def diff_against_expected(table: dict, expected_path: str) -> list:
    """Compare every column of every cell against the checked-in file.

    Returns one human-readable line per moved column, and per cell run or
    pinned on one side only; an empty list means the sweep reproduced the
    recorded table exactly.
    """
    with open(expected_path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    differences = []
    for key in ("n", "batches", "seed"):
        if key in expected and expected[key] != table[key]:
            differences.append(
                f"sweep parameter {key}: observed {table[key]}, "
                f"recorded {expected[key]} — different experiment, "
                f"outcomes are not comparable")
    if differences:
        return differences
    recorded = {(cell["protocol"], cell["scenario"]): cell
                for cell in expected.get("cells", [])}
    observed = {(cell["protocol"], cell["scenario"]): cell
                for cell in table["cells"]}
    for key in sorted(set(recorded) | set(observed)):
        have, want = observed.get(key), recorded.get(key)
        name = f"{key[0]} × {key[1]}"
        if want is None:
            differences.append(f"{name}: not in the expectations file")
        elif have is None:
            differences.append(f"{name}: pinned, but this sweep did not run it")
        else:
            for column in sorted(set(have) | set(want)):
                seen, pinned = have.get(column, "absent"), want.get(column, "absent")
                if seen != pinned:
                    differences.append(
                        f"{name}: {column} observed {seen}, recorded {pinned}")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicas", type=int, default=4,
                        help="replicas per cluster (default 4)")
    parser.add_argument("--batches", type=int, default=20,
                        help="client batch budget per cell (default 20)")
    parser.add_argument("--seed", type=int, default=11, help="base RNG seed")
    parser.add_argument("--protocols", nargs="*", default=list(MATRIX_PROTOCOLS),
                        help=f"protocol keys (default: {' '.join(MATRIX_PROTOCOLS)})")
    parser.add_argument("--scenarios", nargs="*", default=None,
                        help="scenario keys (default: "
                             f"{' '.join(default_matrix_scenarios())}; "
                             "with --soak the default shrinks to no-fault)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable outcome table here")
    parser.add_argument("--expected", metavar="PATH", default=None,
                        help="diff observed outcomes against this checked-in "
                             "expectations file (exit non-zero on differences)")
    parser.add_argument("--only", metavar="PROTOCOL:SCENARIO", default=None,
                        help="run a single cell (e.g. zyzzyva:forge-history) "
                             "— the local-iteration shortcut; incompatible "
                             "with --expected, which diffs the full sweep")
    parser.add_argument("--soak", metavar="STEPS", type=int, default=None,
                        help="run bounded-horizon soaks of STEPS batches "
                             "instead of the matrix, checking that every "
                             "container found on a node plateaus (default "
                             "scenario set: no-fault; combine with "
                             "--scenarios/--protocols or --only)")
    args = parser.parse_args(argv)

    if args.only:
        protocol, _, scenario = args.only.partition(":")
        if not protocol or not scenario:
            parser.error("--only expects PROTOCOL:SCENARIO "
                         "(e.g. zyzzyva:forge-history)")
        if args.expected:
            parser.error("--only runs a single cell; --expected diffs the "
                         "full sweep — drop one of them")
        if protocol not in args.protocols:
            parser.error(unknown_name_message("protocol", protocol,
                                              args.protocols))
        if scenario not in SCENARIO_DEFS and scenario not in SHARDED_SCENARIOS:
            parser.error(unknown_name_message(
                "scenario", scenario,
                list(SCENARIO_DEFS) + list(SHARDED_SCENARIOS)))
        if scenario in SHARDED_SCENARIOS \
                and protocol not in SHARDED_MATRIX_PROTOCOLS:
            parser.error(
                f"sharded scenario {scenario!r} only runs for "
                f"{' '.join(SHARDED_MATRIX_PROTOCOLS)} (got {protocol!r})")
        args.protocols = [protocol]
        args.scenarios = [scenario]

    if args.scenarios is None:
        args.scenarios = ["no-fault"] if args.soak is not None \
            else list(default_matrix_scenarios())
    unknown = [s for s in args.scenarios
               if s not in SCENARIO_DEFS and s not in SHARDED_SCENARIOS]
    if unknown:
        parser.error(unknown_name_message(
            "scenario", " ".join(unknown),
            list(SCENARIO_DEFS) + list(SHARDED_SCENARIOS)))
    sharded_picked = [s for s in args.scenarios if s in SHARDED_SCENARIOS]
    if args.soak is not None and sharded_picked:
        parser.error(f"--soak is single-group only; drop the sharded "
                     f"scenario(s): {' '.join(sharded_picked)}")

    if args.soak is not None:
        if args.expected or args.json:
            parser.error("--soak checks state bounds, not matrix outcomes; "
                         "drop --expected/--json")
        return run_soak_sweep(args.protocols, args.scenarios,
                              steps=args.soak, seed=args.seed)

    params = ScenarioParams(num_replicas=args.replicas,
                            total_batches=args.batches, seed=args.seed)
    outcomes = run_matrix(args.protocols, args.scenarios, params)
    table = outcome_table(outcomes, params)

    print(f"Fault matrix (n={args.replicas}, {args.batches} batches/cell, "
          f"seed {args.seed}) — every cell audited for safety")
    print("=" * 72)
    print(format_matrix(outcomes))
    print()
    print("cell legend: liveness/safety")
    print()

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"outcome table written to {args.json}")

    deviations = unexpected_outcomes(outcomes)
    safe_cells = sum(1 for o in outcomes if o.safe)
    live_cells = sum(1 for o in outcomes if o.live)
    print(f"{len(outcomes)} cells: {live_cells} live, {safe_cells} safe")
    for outcome in deviations:
        print(f"NOT LIVE AND SAFE: {outcome.protocol} × {outcome.scenario} -> "
              f"live={outcome.live} safe={outcome.safe} "
              f"({outcome.completed_batches}/{outcome.expected_batches} batches)")
        print(outcome.audit.summary())

    if args.expected:
        differences = diff_against_expected(table, args.expected)
        if differences:
            print(f"outcomes differ from {args.expected}:")
            for line in differences:
                print(f"  - {line}")
            print("(an intentional change must update the expectations file "
                  "in the same change)")
            return 1
        print(f"every column of every cell matches {args.expected}")
        return 0
    if deviations:
        return 1
    print("every cell live and safe")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Wall-clock performance of the simulation fabric (not a paper figure).

Every paper figure is regenerated on the pure-Python discrete-event
simulator, so simulator overhead — not protocol cost — caps how many
replicas, batches and scenarios the suite can sweep.  This benchmark
measures that overhead directly: raw scheduler events per wall second,
end-to-end cluster runs across protocols and replica counts (including
the large-n MAC-mode rows, n up to 128), and a determinism check (same
seed, byte-identical outcome).

The results are written to ``BENCH_simperf.json`` at the repository root
(override the location with ``REPRO_BENCH_PERF_PATH`` or ``--output``)
so that future performance work is compared against a recorded baseline.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_perf_fabric.py``
or through pytest like the figure benchmarks.  Standalone extras:

* ``--profile PROTOCOL:N`` — cProfile one row and print the top-25
  cumulative entries (the hot list for the next perf PR); sharded row
  labels work too (``--profile poe-2sh-x20:4`` profiles the sequential
  sharded run, N = replicas per shard, and appends the per-shard
  ``processed_events`` breakdown);
* ``--shards K`` — measure only the sharded rows with K PoE consensus
  groups (cross-shard fractions 0.0 and 0.2) and exit;
* ``--parallel`` — same-host sequential-vs-parallel comparison over the
  sharded rows (2/4/8 shards, one worker process per shard): asserts the
  per-shard event counts are driver-identical and prints the wall-clock
  speedup per row.  Real speedups need real cores — on a single-core
  host the workers time-slice and the row degrades to IPC overhead;
* ``--compare BASELINE.json`` — same-host HEAD-vs-baseline delta mode:
  run the suite, print per-row speedups against the recorded baseline
  and do **not** overwrite it (wall-clock numbers are host-relative, so
  re-recording on a different/noisy host would poison the baseline);
* ``--check-events EXPECTATIONS.json`` — behaviour guard for CI: fail if
  ``processed_events``, ``digest_memo_misses`` (distinct consensus
  values hashed — per value, not per replica) or ``peak_heap_entries``
  (most event-heap entries alive at once on the n >= 32 rows — per
  broadcast in flight, not per receiver) deviates from the checked-in
  expectations on any row (see ``benchmarks/PERF_EXPECTATIONS.json``).
"""

import argparse
import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.perf import (
    check_processed_events,
    compare_reports,
    current_perf_scale,
    measure_parallel_speedup,
    measure_sharded_cluster,
    profile_row,
    run_suite,
    write_report,
)
from repro.bench.report import print_results

#: Columns reported for the per-cluster rows.
_CLUSTER_COLUMNS = (
    "protocol", "n", "total_batches", "wall_s", "processed_events",
    "digest_memo_misses", "peak_heap_entries", "events_per_wall_sec",
    "txns_per_wall_sec", "virtual_throughput_txn_per_s", "gc_collections",
    "gc_pause_s",
)


def perf_report_path() -> str:
    """Resolve the output path (repo root unless overridden by env)."""
    override = os.environ.get("REPRO_BENCH_PERF_PATH")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_simperf.json")


def run_and_record() -> dict:
    results = run_suite(current_perf_scale())
    write_report(results, perf_report_path())
    return results


def test_simulation_fabric_perf():
    results = run_and_record()
    assert results["determinism"]["ok"], (
        "same-seed cluster runs diverged: " + str(results["determinism"]))
    assert results["event_loop"]["events_per_sec"] > 0
    assert all(row["completed_txns"] > 0 for row in results["clusters"])
    print_results(
        f"Simulation-fabric wall-clock performance (scale: {results['scale']})",
        results["clusters"], columns=_CLUSTER_COLUMNS)
    print_results(
        "Raw event loop (schedule + drain)",
        [{"num_events": results["event_loop"]["num_events"],
          "events_per_sec": results["event_loop"]["events_per_sec"],
          "cancel_mix_events_per_sec":
              results["event_loop"]["cancellation_mix"]["events_per_sec"]}])


def _print_summary(results: dict) -> None:
    loop = results["event_loop"]
    print(f"event loop: {loop['events_per_sec']:,.0f} events/s")
    for row in results["clusters"]:
        print(f"{row['protocol']} n={row['n']}: "
              f"{row['events_per_wall_sec']:,.0f} events/s (wall)")
    print(f"determinism ok: {results['determinism']['ok']}")


def _print_delta(delta: dict) -> None:
    if delta["event_loop_speedup"] is not None:
        print(f"event loop speedup: {delta['event_loop_speedup']}x")
    for row in delta["rows"]:
        if row["status"] == "new":
            print(f"{row['row']}: new row, "
                  f"{row['events_per_wall_sec']:,.0f} events/s")
        elif row["status"] == "missing":
            print(f"{row['row']}: MISSING from this run (baseline "
                  f"{row['baseline_events_per_wall_sec']:,.0f} events/s)")
        else:
            flag = "" if row["behaviour_unchanged"] else "  !! processed_events drifted"
            print(f"{row['row']}: {row['speedup']}x "
                  f"({row['baseline_events_per_wall_sec']:,.0f} -> "
                  f"{row['events_per_wall_sec']:,.0f} events/s){flag}")
    print(f"behaviour unchanged on compared rows: {delta['behaviour_unchanged']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", metavar="PROTOCOL:N",
                        help="cProfile one row (e.g. poe-mac:32, or a "
                             "sharded label like poe-2sh-x20:4 with N = "
                             "replicas per shard) and exit")
    parser.add_argument("--shards", metavar="K", type=int, default=None,
                        help="measure only the sharded rows with K PoE "
                             "shards (cross-shard fractions 0.0 and 0.2) "
                             "and exit — the local-iteration shortcut for "
                             "multi-group perf work")
    parser.add_argument("--parallel", action="store_true",
                        help="same-host sequential-vs-parallel driver "
                             "comparison over the sharded rows and exit")
    parser.add_argument("--compare", metavar="BASELINE.json",
                        help="delta mode: compare against a recorded report "
                             "instead of overwriting it")
    parser.add_argument("--output", metavar="PATH",
                        help="write the suite report to PATH (default: "
                             "BENCH_simperf.json at the repo root; with "
                             "--compare the default is to not write)")
    parser.add_argument("--check-events", metavar="EXPECTATIONS.json",
                        help="fail unless per-row processed_events, "
                             "digest_memo_misses and peak_heap_entries "
                             "match the expectations file (behaviour guard)")
    args = parser.parse_args(argv)

    if args.profile:
        protocol, _, n = args.profile.rpartition(":")
        if not (protocol and n.isdigit()):
            parser.error("--profile expects PROTOCOL:N, e.g. poe-mac:32 "
                         "or poe-2sh-x20:4")
        print(profile_row(protocol, int(n)))
        return 0

    if args.parallel:
        comparison = measure_parallel_speedup()
        print(f"host cores: {comparison['cpu_count']} "
              "(parallel wins need >1 — single-core hosts time-slice "
              "the shard workers)")
        print_results(
            "Sequential vs parallel sharded driver (same host, "
            f"{comparison['protocol']})",
            comparison["rows"],
            columns=("row", "num_shards", "processed_events",
                     "sequential_events_per_wall_sec",
                     "parallel_events_per_wall_sec", "speedup",
                     "behaviour_unchanged"))
        if not comparison["behaviour_unchanged"]:
            print("PARALLEL DRIVER BEHAVIOUR DRIFT: per-shard event counts "
                  "differ between drivers")
            return 1
        return 0

    if args.shards is not None:
        if args.shards < 2:
            parser.error("--shards expects K >= 2 consensus groups")
        scale = current_perf_scale()
        rows = [
            measure_sharded_cluster(
                "poe", num_shards=args.shards, cross_shard_fraction=cross,
                total_batches=scale.cluster_batches,
                repeats=scale.cluster_repeats)
            for cross in (0.0, 0.2)
        ]
        print_results(
            f"Sharded fabric wall-clock performance ({args.shards} shards, "
            f"scale: {scale.name})",
            rows, columns=_CLUSTER_COLUMNS)
        return 0

    results = run_suite(current_perf_scale())

    if args.output:
        write_report(results, args.output)
        print(f"wrote {args.output}")
    elif not args.compare:
        write_report(results, perf_report_path())
        print(f"wrote {perf_report_path()}")

    exit_code = 0
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        _print_delta(compare_reports(baseline, results))
    else:
        _print_summary(results)

    if args.check_events:
        with open(args.check_events, "r", encoding="utf-8") as handle:
            expectations = json.load(handle)
        problems = check_processed_events(results, expectations)
        if problems:
            print("processed_events / digest_memo_misses / "
                  "peak_heap_entries expectations FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            exit_code = 1
        else:
            print(f"processed_events, digest_memo_misses and "
                  f"peak_heap_entries match {args.check_events} "
                  f"({len(expectations.get('rows', {}))} rows)")

    # A same-seed divergence must fail the smoke run, not just be recorded.
    if not results["determinism"]["ok"]:
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())

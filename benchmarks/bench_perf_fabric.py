"""Wall-clock performance of the simulation fabric (not a paper figure).

Every paper figure is regenerated on the pure-Python discrete-event
simulator, so simulator overhead — not protocol cost — caps how many
replicas, batches and scenarios the suite can sweep.  This benchmark
measures that overhead directly: raw scheduler events per wall second,
end-to-end cluster runs across protocols and replica counts (including
the large-n MAC-mode rows, n up to 128), and a determinism check (same
seed, byte-identical outcome).

The results are written to ``BENCH_simperf.json`` at the repository root
(``--output PATH`` writes them elsewhere) so that future performance work
is compared against a recorded baseline.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_perf_fabric.py``
or through pytest like the figure benchmarks.  Standalone, add
``--check-events EXPECTATIONS.json`` as a behaviour guard for CI: it fails
if ``processed_events``, ``digest_memo_misses`` (distinct consensus
values hashed — per value, not per replica) or ``peak_heap_entries``
(most event-heap entries alive at once on the n >= 32 rows — per
broadcast in flight, not per receiver) deviates from the checked-in
expectations on any row (see ``benchmarks/PERF_EXPECTATIONS.json``).
Profiles come from poebench (``poebench/run.py --trace 1``) or
``python -m cProfile``; the sequential and parallel sharded drivers are
timed side by side by ``python -m repro.fabric.parallel``.
"""

import argparse
import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.perf import (
    check_processed_events,
    current_perf_scale,
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

#: Where the suite report goes unless ``--output`` says otherwise.
REPORT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_simperf.json")


def test_simulation_fabric_perf():
    results = run_suite(current_perf_scale())
    write_report(results, REPORT_PATH)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", metavar="PATH", default=REPORT_PATH,
                        help="write the suite report to PATH (default: "
                             "BENCH_simperf.json at the repo root)")
    parser.add_argument("--check-events", metavar="EXPECTATIONS.json",
                        help="fail unless per-row processed_events, "
                             "digest_memo_misses and peak_heap_entries "
                             "match the expectations file (behaviour guard)")
    args = parser.parse_args(argv)

    results = run_suite(current_perf_scale())
    write_report(results, args.output)
    print(f"wrote {args.output}")
    _print_summary(results)

    exit_code = 0
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

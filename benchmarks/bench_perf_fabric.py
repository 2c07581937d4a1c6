"""Exact per-row counts of the simulation fabric (perf smoke; not a paper figure).

Runs every row of ``repro.bench.perf`` once — protocols and replica
counts up to the n=128 MAC-mode rows, plus two sharded rows — and prints
its ``processed_events``, ``digest_memo_misses`` (distinct consensus
values hashed — per value, not per replica) and, on the n >= 32 rows,
``peak_heap_entries`` (most event-heap entries alive at once — per
broadcast in flight, not per receiver).

Run with ``PYTHONPATH=src python benchmarks/bench_perf_fabric.py``.  Add
``--check-events EXPECTATIONS.json`` as a behaviour guard for CI: it fails
if any of the three deviates from the checked-in expectations on any row
(see ``benchmarks/PERF_EXPECTATIONS.json``).  Wall-clock speed and
profiles come from poebench (``poebench/run.py``, ``--trace 1``); the
sequential and parallel sharded drivers are timed side by side by
``python -m repro.fabric.parallel``.
"""

import argparse
import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.perf import check_processed_events, run_suite
from repro.bench.report import format_table

#: Columns printed per row.
_COLUMNS = ("protocol", "n", "total_batches", "processed_events",
            "digest_memo_misses", "peak_heap_entries")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-events", metavar="EXPECTATIONS.json",
                        help="fail unless per-row processed_events, "
                             "digest_memo_misses and peak_heap_entries "
                             "match the expectations file (behaviour guard)")
    args = parser.parse_args(argv)

    rows = run_suite()
    print(format_table(rows, columns=_COLUMNS))
    if not args.check_events:
        return 0
    with open(args.check_events, "r", encoding="utf-8") as handle:
        expectations = json.load(handle)
    problems = check_processed_events(rows, expectations)
    if problems:
        print("processed_events / digest_memo_misses / "
              "peak_heap_entries expectations FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"processed_events, digest_memo_misses and peak_heap_entries "
          f"match {args.check_events} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

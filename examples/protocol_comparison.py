#!/usr/bin/env python3
"""Compare PoE against PBFT, SBFT, HotStuff and Zyzzyva on one configuration.

A miniature version of the paper's Figure 9 experiment: run every protocol
on the same simulated deployment, once failure-free and once with a single
crashed backup, and print the throughput/latency table.  The headline
result — PoE leads once anything fails, while Zyzzyva's fast path
collapses — is visible even at this small scale.

Run with::

    python examples/protocol_comparison.py [num_replicas]
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.report import print_results
from repro.fabric.experiments import (
    FIGURE_DEPLOYMENT,
    backup_crash,
    run_protocol_comparison,
)


def main() -> None:
    num_replicas = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    base = replace(FIGURE_DEPLOYMENT, num_replicas=num_replicas, total_batches=60)

    for label, config in (("no failures", base),
                          ("single backup failure", backup_crash(base))):
        results = run_protocol_comparison(config)
        rows = [
            {
                "protocol": result.protocol,
                "throughput_txn_per_s": f"{result.throughput_txn_per_s:,.0f}",
                "avg_latency_ms": f"{result.avg_latency_ms:.2f}",
            }
            for result in sorted(results.values(),
                                 key=lambda r: -r.throughput_txn_per_s)
        ]
        print_results(f"n = {num_replicas} replicas, {label}", rows)

    print()
    print("Expected shape (paper, Figures 9(a)-(d)): without failures Zyzzyva's")
    print("single-phase fast path leads with PoE close behind; with one crashed")
    print("backup PoE leads, PBFT and SBFT follow, and Zyzzyva/HotStuff trail by")
    print("one to two orders of magnitude.")


if __name__ == "__main__":
    main()

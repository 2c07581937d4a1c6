#!/usr/bin/env python3
"""Fault-tolerance demo: crash the primary mid-run and watch PoE recover.

The scenario mirrors the paper's Figure 10 experiment:

1. the cluster processes transactions normally under the primary of view 0;
2. the primary crashes;
3. clients time out and broadcast their pending requests, backups forward
   them to the (dead) primary and time out as well;
4. the replicas exchange VC-REQUEST messages, the next primary sends
   NV-PROPOSE, and everyone moves to view 1 — rolling back any speculative
   execution the new view does not cover;
5. throughput recovers under the new primary.

Run with::

    python examples/byzantine_primary.py
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fabric.timeline import TIMELINE_DEPLOYMENT, run_view_change_timeline


def main() -> None:
    timeline = run_view_change_timeline(
        replace(TIMELINE_DEPLOYMENT, num_replicas=8, batch_size=50,
                client_outstanding=8, request_timeout_ms=300.0),
        crash_at_ms=1_000.0, duration_ms=4_000.0, bucket_ms=250.0)

    print("PoE under a primary failure (crash at t = "
          f"{timeline.primary_crash_ms / 1000:.2f}s)")
    print("----------------------------------------------------------")
    peak = max(timeline.timeline.buckets) or 1.0
    for point in timeline.series():
        bar = "#" * int(40 * point["throughput_txn_per_s"] / peak)
        marker = " <- primary crashes" if abs(
            point["time_s"] * 1000 - timeline.primary_crash_ms) < timeline.timeline.bucket_ms / 2 else ""
        print(f"  t={point['time_s']:5.2f}s  "
              f"{point['throughput_txn_per_s']:>10,.0f} txn/s  |{bar}{marker}")
    print()
    print(f"view changes completed: {timeline.view_changes_completed}")
    print(f"system is now in view:  {timeline.new_view} "
          f"(primary replica:{timeline.new_view % timeline.n})")
    print(f"transactions executed:  {timeline.total_txns:,}")
    assert timeline.view_changes_completed >= 1
    print("the cluster detected the faulty primary, replaced it and resumed")


if __name__ == "__main__":
    main()

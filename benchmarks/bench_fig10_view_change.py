"""Figure 10: throughput of PoE and PBFT across a primary failure.

The paper lets the primary run for a while, crashes it, and plots system
throughput over time: steady throughput, a dip to zero while clients and
replicas time out and run the view-change, then recovery under the new
primary.  This benchmark reproduces that timeline for both PoE and PBFT
(the paper omits Zyzzyva/SBFT because a single failure already cripples
them, and HotStuff because it changes primaries every round).
"""

import pytest

from repro.bench.report import print_results, print_series
from repro.fabric.timeline import run_view_change_timeline


def run_timeline(protocol: str, scale):
    num_replicas = 32 if 32 in scale.replica_counts else max(scale.replica_counts)
    duration = scale.view_change_duration_ms
    return run_view_change_timeline(
        protocol=protocol,
        num_replicas=num_replicas,
        batch_size=100,
        crash_at_ms=duration * 0.25,
        duration_ms=duration,
        request_timeout_ms=duration * 0.075,
        bucket_ms=duration / 16,
        client_outstanding=8,
    )


@pytest.mark.parametrize("protocol", ["poe", "pbft"])
def test_figure10_view_change_timeline(benchmark, scale, protocol):
    timeline = benchmark.pedantic(run_timeline, args=(protocol, scale),
                                  rounds=1, iterations=1)
    buckets = timeline.timeline.buckets
    crash_bucket = int(timeline.primary_crash_ms // timeline.timeline.bucket_ms)
    before = max(buckets[:crash_bucket])
    dip = min(buckets[crash_bucket:crash_bucket + 6])
    after = buckets[-1]
    assert timeline.view_changes_completed >= 1, "the view-change must complete"
    assert timeline.new_view >= 1
    assert dip < before * 0.2, "throughput must dip during the view-change"
    assert after > before * 0.5, "throughput must recover under the new primary"
    title = f"Figure 10 — {timeline.protocol} throughput across a primary failure"
    print_results(f"{title}: crash, dip, recovery", [{
        "crash_at_s": timeline.primary_crash_ms / 1000.0,
        "crash_bucket": crash_bucket,
        "before_txn_per_s": round(before),
        "dip_txn_per_s": round(dip),
        "after_txn_per_s": round(after),
        "view_changes": timeline.view_changes_completed,
        "new_view": timeline.new_view,
    }])
    print_series(title, timeline.series())

"""Exact per-row counts of the simulation fabric: the perf-smoke pins.

Each row of :data:`CLUSTER_ROWS` and :data:`SHARDED_ROWS` is one seeded
cluster run, started from an empty shared digest memo and read for
counts that do not depend on the host:

* ``processed_events`` — simulator events in the run (on sharded rows
  also per shard, ``shard_processed_events``).  If it moves, the cluster
  did different work: behaviour changed, not speed;
* ``digest_memo_misses`` — distinct consensus values hashed through
  :func:`repro.crypto.hashing.shared_digest`.  It does not grow with n,
  so a rise means some digest went back to being computed per replica;
* ``peak_heap_entries`` (rows with n >= 32) — the most entries the event
  heap held at once.  One entry per broadcast in flight keeps it
  O(n x outstanding), not O(n² x outstanding).

:func:`check_processed_events` diffs a run against
``benchmarks/PERF_EXPECTATIONS.json``.  The rows read no clock:
wall-clock speed is poebench's to measure.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.crypto.hashing import shared_digest
from repro.fabric.cluster import Cluster, ClusterConfig
from repro.net.simulator import Simulator

#: Rows at or above this replica count record ``peak_heap_entries``.
PEAK_HEAP_MIN_REPLICAS = 32

#: ``(protocol, n, total_batches)`` of the single-group rows: every
#: protocol at n=4, threshold-mode PoE at n=16 and 32, and the n² MAC-mode
#: vote floods up to n=128, their batch budget shrinking as n grows.
CLUSTER_ROWS = (
    ("poe", 4, 60), ("poe-mac", 4, 60), ("pbft", 4, 60),
    ("sbft", 4, 60), ("zyzzyva", 4, 60), ("hotstuff", 4, 60),
    ("poe", 16, 60), ("poe", 32, 60),
    ("poe-mac", 32, 60), ("pbft", 32, 60),
    ("poe-mac", 64, 30), ("pbft", 64, 30),
    ("poe-mac", 128, 12), ("pbft", 128, 12),
)

#: ``(protocol, num_shards, cross_fraction, total_batches)`` of the
#: sharded rows: the zero-cross row isolates routing and pool overhead,
#: the 20% row adds the cross-shard 2PC round trips.
SHARDED_ROWS = (
    ("poe", 2, 0.0, 60),
    ("poe", 2, 0.2, 60),
)


# The event-loop microbenchmark is poebench's (``net.simulator.
# iso_events_per_s``): ``poebench/isolated.py`` imports it from here.
def _best_wall_seconds(fn: Callable[[], None], repeats: int) -> float:
    """Minimum wall time of *repeats* runs of *fn* (noise suppression)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def measure_event_loop(num_events: int = 150_000, repeats: int = 3) -> Dict[str, object]:
    """Raw scheduler throughput: schedule *num_events* no-ops and drain.

    Also measures a cancellation-heavy mix (every other event cancelled
    before the drain) because lazy deletion is on the timer hot path.
    """

    def plain() -> None:
        sim = Simulator()
        schedule = sim.schedule
        for i in range(num_events):
            schedule((i % 97) * 0.01, _noop)
        sim.run_until_idle(max_events=num_events + 1)

    def cancelling() -> None:
        sim = Simulator()
        schedule = sim.schedule
        events = [schedule((i % 89) * 0.01, _noop) for i in range(num_events)]
        for event in events[::2]:
            event.cancel()
        sim.run_until_idle(max_events=num_events + 1)

    plain_wall = _best_wall_seconds(plain, repeats)
    cancel_wall = _best_wall_seconds(cancelling, repeats)
    return {
        "num_events": num_events,
        "wall_s": round(plain_wall, 6),
        "events_per_sec": round(num_events / plain_wall, 1),
        "cancellation_mix": {
            "num_events": num_events,
            "cancelled_fraction": 0.5,
            "wall_s": round(cancel_wall, 6),
            "events_per_sec": round(num_events / cancel_wall, 1),
        },
    }


def _noop() -> None:
    return None


# ------------------------------------------------------------------- rows
class _PeakHeapSimulator(Simulator):
    """A simulator that reads its heap size after every event it runs.

    ``run`` steps one event at a time through the base loop, so the run
    is the base class's event for event; ``peak_entries`` is the most heap
    entries seen at once.
    """

    __slots__ = ("peak_entries",)

    def __init__(self) -> None:
        super().__init__()
        self.peak_entries = 0

    def run(self, until_ms: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        run_one = super().run
        peak = max(self.peak_entries, self.pending_events)
        executed = 0
        while max_events is None or executed < max_events:
            before = self.processed_events
            run_one(until_ms, 1)
            if self.processed_events == before:
                break
            executed += 1
            if self.pending_events > peak:
                peak = self.pending_events
        self.peak_entries = peak
        return self.now


def count_cluster(protocol: str, num_replicas: int, total_batches: int,
                  batch_size: int = 100, seed: int = 3) -> Dict[str, object]:
    """The exact counts of one single-group run (see the module docstring)."""
    shared_digest.cache_clear()
    simulator = _PeakHeapSimulator()
    cluster = Cluster(ClusterConfig(
        protocol=protocol, num_replicas=num_replicas, batch_size=batch_size,
        total_batches=total_batches, seed=seed), simulator=simulator)
    cluster.start()
    cluster.run_until_done()
    row: Dict[str, object] = {
        "protocol": protocol, "n": num_replicas, "batch_size": batch_size,
        "total_batches": total_batches, "seed": seed,
        "processed_events": simulator.processed_events,
        "digest_memo_misses": shared_digest.cache_info().misses,
    }
    if num_replicas >= PEAK_HEAP_MIN_REPLICAS:
        row["peak_heap_entries"] = simulator.peak_entries
    return row


def sharded_row_label(protocol: str, num_shards: int,
                      cross_fraction: float) -> str:
    """Synthetic protocol label for one sharded row (``poe-2sh-x20``).

    The cluster shape lives in the label so :func:`row_key` — which only
    knows protocol/n/batch/seed — still gives sharded rows a stable,
    collision-free identity next to the single-group rows.
    """
    return f"{protocol}-{num_shards}sh-x{int(round(cross_fraction * 100))}"


def count_sharded_cluster(protocol: str, num_shards: int,
                          cross_shard_fraction: float, total_batches: int,
                          num_replicas: int = 4, batch_size: int = 16,
                          seed: int = 3) -> Dict[str, object]:
    """The exact counts of one multi-group run with cross-shard 2PC.

    *num_shards* consensus groups of *protocol*, each on its own
    simulator, with *cross_shard_fraction* of the client batches spanning
    two shards; ``n`` is the replica count across all shards.
    """
    from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig

    shared_digest.cache_clear()
    run = ShardedCluster(ShardedClusterConfig(
        num_shards=num_shards, protocols=protocol,
        num_replicas=num_replicas, batch_size=batch_size,
        total_batches=total_batches,
        cross_shard_fraction=cross_shard_fraction, seed=seed))
    run.start()
    run.run_until_done()
    shard_events = list(run.shard_processed_events)
    return {
        "protocol": sharded_row_label(protocol, num_shards,
                                      cross_shard_fraction),
        "n": num_shards * num_replicas, "batch_size": batch_size,
        "total_batches": total_batches, "seed": seed,
        "processed_events": sum(shard_events),
        "shard_processed_events": shard_events,
        "digest_memo_misses": shared_digest.cache_info().misses,
    }


def run_suite() -> List[Dict[str, object]]:
    """The counts of every row, single-group rows first."""
    rows = [count_cluster(protocol, n, total_batches)
            for protocol, n, total_batches in CLUSTER_ROWS]
    rows.extend(count_sharded_cluster(protocol, shards, cross, total_batches)
                for protocol, shards, cross, total_batches in SHARDED_ROWS)
    return rows


# ------------------------------------------------------------------- pins
def row_key(row: Dict[str, object]) -> str:
    """Stable identity of one cluster row (the like-for-like fields)."""
    return (f"{row['protocol']}:n{row['n']}:b{row['batch_size']}"
            f":t{row['total_batches']}:s{row['seed']}")


#: Deterministic per-row counters pinned next to ``processed_events``,
#: each under its own table in the expectations file.  A row the table
#: does not list must not report the counter either.
PINNED_COUNTERS = ("digest_memo_misses", "peak_heap_entries")


def check_processed_events(
        rows: List[Dict[str, object]],
        expectations: Dict[str, object]) -> List[str]:
    """Behaviour guard: diff per-row counts against *expectations*.

    Returns human-readable problem strings (empty = pass).  A drifted
    ``processed_events`` means the change altered what the cluster
    *does*, which must be an explicit, reviewed update to the
    expectations file; so does a drifted :data:`PINNED_COUNTERS` entry.
    """
    expected_rows: Dict[str, int] = expectations.get("rows", {})
    problems: List[str] = []
    seen = set()
    for row in rows:
        key = row_key(row)
        seen.add(key)
        expected = expected_rows.get(key)
        if expected is None:
            problems.append(f"{key}: no expectation recorded "
                            f"(processed_events={row['processed_events']})")
        elif expected != row["processed_events"]:
            problems.append(f"{key}: processed_events {row['processed_events']} "
                            f"!= expected {expected}")
        for counter in PINNED_COUNTERS:
            pinned: Dict[str, int] = expectations.get(counter, {})
            if pinned and pinned.get(key) != row.get(counter):
                problems.append(f"{key}: {counter} {row.get(counter)} "
                                f"!= expected {pinned.get(key)}")
    for key in sorted(set(expected_rows) - seen):
        problems.append(f"{key}: expected row missing from the suite")
    return problems

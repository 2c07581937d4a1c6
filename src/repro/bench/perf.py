"""Wall-clock performance harness for the simulation fabric.

The figure benchmarks under ``benchmarks/`` report *virtual-time* metrics
(throughput and latency inside the simulated cluster).  This module
measures the orthogonal quantity that caps every sweep we can afford to
run: how fast the simulator itself executes on real hardware, in events
per wall-clock second.  It drives three kinds of measurements:

* a raw event-loop microbenchmark (schedule + drain, with and without a
  cancellation mix) against :class:`~repro.net.simulator.Simulator`;
* end-to-end cluster runs across protocols and replica counts, recording
  wall seconds, processed events and transactions per wall second;
* a determinism check: the same seeded :class:`ClusterConfig` run twice
  must produce byte-identical completion records, proving that hot-path
  rewrites preserve insertion-order tie-breaking.

``run_suite`` bundles all three and ``write_report`` persists the result
as ``BENCH_simperf.json`` so future performance PRs are judged against a
recorded baseline rather than folklore.  Scale is selected with the same
``REPRO_BENCH_SCALE`` switch the figure benchmarks use (``quick`` or
``paper``).
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import os
import platform
import pstats
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.hashing import shared_digest
from repro.fabric.cluster import Cluster, ClusterConfig

# Re-exported: the run fingerprint lives with the other canonical state
# hashes in fabric/fingerprint.py (the model checker shares the
# per-replica helpers), but the determinism harness grew around this
# module's name for it.
from repro.fabric.fingerprint import run_fingerprint  # noqa: F401

from repro.net.simulator import Simulator

#: Version 2 added the large-n rows (MAC-mode PoE vs PBFT at n=32/64/128)
#: and the same-host HEAD-vs-baseline delta mode (``compare_reports``).
#: Version 3 added the sharded rows: multi-group clusters with cross-shard
#: 2PC, reported under synthetic protocol labels like ``poe-2sh-x20``
#: (two PoE shards, 20% cross-shard transactions).
#: Version 4 records, on every sharded row, the ``driver`` that executed
#: it (``sequential`` in-process vs ``parallel`` worker processes) and the
#: per-shard ``shard_processed_events`` breakdown; the parallel compare
#: mode (``measure_parallel_speedup``) emits rows of both drivers.
#: Version 5 adds the first deterministic work counters next to
#: ``processed_events``: ``digest_memo_misses`` / ``digest_memo_hits`` of
#: the shared digest memo (``repro.crypto.hashing.shared_digest``), read
#: over one in-process run that starts from an empty memo.  Misses count
#: the distinct consensus values hashed, so they do not grow with n.
#: Version 6 makes the cyclic collector and the event heap visible on the
#: single-group rows: ``gc_collections`` (per generation) and
#: ``gc_pause_s`` inside the timed region of the best repeat — host-side
#: readings from a ``gc.callbacks`` hook, nothing in ``src/`` counts them —
#: and, on rows with n >= 32, the deterministic ``peak_heap_entries``: the
#: most entries the event heap held at once, read over one extra untimed
#: ``step()``-driven pass.  One entry per broadcast in flight keeps it
#: O(n x outstanding), not O(n² x outstanding).
SCHEMA_VERSION = 6

#: Rows at or above this replica count record ``peak_heap_entries``.
PEAK_HEAP_MIN_REPLICAS = 32

#: Default output file name; the benchmark driver writes it at the repo root.
DEFAULT_REPORT_NAME = "BENCH_simperf.json"


@dataclass(frozen=True)
class PerfScale:
    """Size of the perf sweeps (mirrors the figure benchmarks' scales).

    ``large_n_rows`` lists ``(protocol, n, total_batches)`` rows exercising
    the n² MAC-mode vote floods at cluster sizes the protocol sweep does
    not reach; the batch budget shrinks with n so the quick scale stays
    laptop-sized (each row records its own budget, keeping comparisons
    like-for-like).

    ``sharded_rows`` lists ``(protocol, num_shards, cross_fraction,
    total_batches)`` rows measuring the multi-group fabric: *num_shards*
    consensus groups of the shard protocol on one simulator, with
    *cross_fraction* of the client batches spanning two shards through
    the 2PC coordinator.  The zero-cross row isolates the routing/pool
    overhead; the 20% row adds the prepare/decide round trips.
    """

    name: str
    event_loop_events: int
    repeats: int
    cluster_batches: int
    cluster_repeats: int
    protocols: Tuple[str, ...]
    poe_replica_counts: Tuple[int, ...]
    determinism_batches: int
    large_n_rows: Tuple[Tuple[str, int, int], ...] = ()
    sharded_rows: Tuple[Tuple[str, int, float, int], ...] = ()


QUICK = PerfScale(
    name="quick",
    event_loop_events=150_000,
    repeats=3,
    cluster_batches=60,
    cluster_repeats=2,
    protocols=("poe", "poe-mac", "pbft", "sbft", "zyzzyva", "hotstuff"),
    poe_replica_counts=(4, 16, 32),
    determinism_batches=30,
    large_n_rows=(
        ("poe-mac", 32, 60), ("pbft", 32, 60),
        ("poe-mac", 64, 30), ("pbft", 64, 30),
        ("poe-mac", 128, 12), ("pbft", 128, 12),
    ),
    sharded_rows=(
        ("poe", 2, 0.0, 60),
        ("poe", 2, 0.2, 60),
    ),
)

PAPER = PerfScale(
    name="paper",
    event_loop_events=500_000,
    repeats=5,
    cluster_batches=120,
    cluster_repeats=3,
    protocols=("poe", "poe-mac", "pbft", "sbft", "zyzzyva", "hotstuff"),
    poe_replica_counts=(4, 16, 32, 64, 91),
    determinism_batches=60,
    large_n_rows=(
        ("poe-mac", 32, 120), ("pbft", 32, 120),
        ("poe-mac", 64, 60), ("pbft", 64, 60),
        ("poe-mac", 128, 24), ("pbft", 128, 24),
    ),
    sharded_rows=(
        ("poe", 2, 0.0, 120),
        ("poe", 2, 0.2, 120),
        ("poe", 3, 0.2, 120),
    ),
)


def current_perf_scale() -> PerfScale:
    """Scale selected through ``REPRO_BENCH_SCALE`` (default ``quick``)."""
    return PAPER if os.environ.get("REPRO_BENCH_SCALE", "quick") == "paper" else QUICK


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


# --------------------------------------------------------------- event loop
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


def _digest_memo_counters() -> Dict[str, int]:
    """Row fields: the shared digest memo's counters since its last clear."""
    info = shared_digest.cache_info()
    return {"digest_memo_misses": info.misses, "digest_memo_hits": info.hits}


@contextmanager
def _gc_metered() -> Iterator[Dict[str, object]]:
    """Row fields for the collector's work while the block runs.

    ``gc_collections`` counts cyclic-collector passes per generation and
    ``gc_pause_s`` sums their wall time, both read from a ``gc.callbacks``
    hook that is installed only for the duration of the block.
    """
    readings: Dict[str, object] = {"gc_collections": [0, 0, 0],
                                   "gc_pause_s": 0.0}
    started = 0.0

    def hook(phase: str, info: Dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            readings["gc_pause_s"] += time.perf_counter() - started
            readings["gc_collections"][info["generation"]] += 1

    gc.callbacks.append(hook)
    try:
        yield readings
    finally:
        gc.callbacks.remove(hook)


def _peak_heap_entries(config: ClusterConfig) -> int:
    """Most entries the event heap holds at once over a run of *config*.

    Driven one ``step()`` at a time so the heap is read after every
    event; deterministic, like ``processed_events``.
    """
    cluster = Cluster(config)
    cluster.start()
    simulator = cluster.simulator
    peak = simulator.pending_events
    while (not all(pool.is_done() for pool in cluster.pools)
           and simulator.step()):
        if simulator.pending_events > peak:
            peak = simulator.pending_events
    return peak


# ------------------------------------------------------------------ clusters
def measure_cluster(protocol: str, num_replicas: int, total_batches: int,
                    batch_size: int = 100, seed: int = 3,
                    repeats: int = 2) -> Dict[str, object]:
    """Wall-clock cost of one full cluster run (best of *repeats*)."""
    def config() -> ClusterConfig:
        return ClusterConfig(
            protocol=protocol, num_replicas=num_replicas,
            batch_size=batch_size, total_batches=total_batches, seed=seed)

    best_wall = float("inf")
    best_gc: Dict[str, object] = {}
    reference: Optional[Tuple[int, int, float, Dict[str, int]]] = None
    throughput = 0.0
    for _ in range(max(1, repeats)):
        # Every repeat starts from an empty memo, so its counters (and its
        # wall time) are those of one cluster run, whatever ran before.
        shared_digest.cache_clear()
        cluster = Cluster(config())
        cluster.start()
        # The previous repeat's teardown garbage is not this run's cost.
        gc.collect()
        with _gc_metered() as gc_readings:
            start = time.perf_counter()
            cluster.run_until_done()
            wall = time.perf_counter() - start
        events = cluster.simulator.processed_events
        completed = sum(pool.completed_txns for pool in cluster.pools)
        virtual_ms = cluster.simulator.now
        signature = (events, completed, virtual_ms, _digest_memo_counters())
        if reference is None:
            reference = signature
            throughput = cluster.result().throughput_txn_per_s
        elif signature != reference:
            raise AssertionError(
                f"non-deterministic run for {protocol} n={num_replicas}: "
                f"{signature} != {reference}")
        if wall < best_wall:
            best_wall = wall
            best_gc = gc_readings
    events, completed_txns, virtual_ms, memo_counters = reference
    heap_counters = ({"peak_heap_entries": _peak_heap_entries(config())}
                     if num_replicas >= PEAK_HEAP_MIN_REPLICAS else {})
    return {
        "protocol": protocol,
        "n": num_replicas,
        "batch_size": batch_size,
        "total_batches": total_batches,
        "seed": seed,
        "wall_s": round(best_wall, 4),
        "processed_events": events,
        **memo_counters,
        **heap_counters,
        "events_per_wall_sec": round(events / best_wall, 1),
        "completed_txns": completed_txns,
        "txns_per_wall_sec": round(completed_txns / best_wall, 1),
        "virtual_ms": round(virtual_ms, 3),
        "virtual_throughput_txn_per_s": round(throughput, 1),
        "gc_collections": best_gc["gc_collections"],
        "gc_pause_s": round(best_gc["gc_pause_s"], 4),
    }


def sharded_row_label(protocol: str, num_shards: int,
                      cross_fraction: float) -> str:
    """Synthetic protocol label for one sharded row (``poe-2sh-x20``).

    The cluster shape lives in the label so :func:`row_key` — which only
    knows protocol/n/batch/seed — still gives sharded rows a stable,
    collision-free identity next to the single-group rows.
    """
    return f"{protocol}-{num_shards}sh-x{int(round(cross_fraction * 100))}"


def parse_sharded_label(label: str) -> Optional[Tuple[str, int, float]]:
    """Invert :func:`sharded_row_label`; ``None`` for single-group labels.

    ``"poe-2sh-x20"`` -> ``("poe", 2, 0.2)``.  Lets ``--profile`` and
    other row-addressed tools accept sharded rows by their recorded
    protocol label.
    """
    parts = label.rsplit("-", 2)
    if len(parts) != 3:
        return None
    protocol, shards_part, cross_part = parts
    if not (shards_part.endswith("sh") and cross_part.startswith("x")):
        return None
    if not (shards_part[:-2].isdigit() and cross_part[1:].isdigit()):
        return None
    return protocol, int(shards_part[:-2]), int(cross_part[1:]) / 100.0


def measure_sharded_cluster(protocol: str, num_shards: int,
                            cross_shard_fraction: float, total_batches: int,
                            num_replicas: int = 4, batch_size: int = 16,
                            num_pools: int = 1, client_outstanding: int = 4,
                            seed: int = 3, repeats: int = 2,
                            driver: str = "sequential") -> Dict[str, object]:
    """Wall-clock cost of one multi-group run with cross-shard 2PC.

    Mirrors :func:`measure_cluster` (best-of-*repeats*, with the same
    same-seed determinism assertion) over a sharded deployment:
    *num_shards* consensus groups of *protocol*, each on its own
    per-shard simulator, with *cross_shard_fraction* of the client
    batches spanning two shards.  ``n`` reports the total replica count
    across all shards.  *driver* picks the execution engine —
    ``"sequential"`` advances the shard runtimes in-process,
    ``"parallel"`` forks one worker per shard; event counts and virtual
    clocks are identical either way, only wall time differs.
    """
    from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig

    best_wall = float("inf")
    reference: Optional[Tuple[Tuple[int, ...], int, float,
                              Dict[str, int]]] = None
    throughput = 0.0
    for _ in range(max(1, repeats)):
        shared_digest.cache_clear()
        config = ShardedClusterConfig(
            num_shards=num_shards, protocols=protocol,
            num_replicas=num_replicas, batch_size=batch_size,
            num_pools=num_pools, client_outstanding=client_outstanding,
            total_batches=total_batches,
            cross_shard_fraction=cross_shard_fraction, seed=seed,
        )
        if driver == "parallel":
            from repro.fabric.parallel import run_parallel

            start = time.perf_counter()
            run = run_parallel(config, record_wire=False)
            wall = time.perf_counter() - start
        elif driver == "sequential":
            run = ShardedCluster(config)
            run.start()
            start = time.perf_counter()
            run.run_until_done()
            wall = time.perf_counter() - start
        else:
            raise ValueError(f"unknown driver {driver!r}")
        shard_events = tuple(run.shard_processed_events)
        completed = sum(pool.completed_txns for pool in run.pools)
        virtual_ms = run.now
        signature = (shard_events, completed, virtual_ms,
                     _digest_memo_counters())
        if reference is None:
            reference = signature
            throughput = run.result().throughput_txn_per_s
        elif signature != reference:
            raise AssertionError(
                f"non-deterministic sharded run for {protocol} "
                f"shards={num_shards} driver={driver}: "
                f"{signature} != {reference}")
        if wall < best_wall:
            best_wall = wall
    shard_events, completed_txns, virtual_ms, memo_counters = reference
    events = sum(shard_events)
    if driver == "parallel":
        # The workers hash, each with a memo this process cannot read.
        memo_counters = {}
    return {
        "protocol": sharded_row_label(protocol, num_shards,
                                      cross_shard_fraction),
        "n": num_shards * num_replicas,
        "num_shards": num_shards,
        "cross_shard_fraction": cross_shard_fraction,
        "batch_size": batch_size,
        "total_batches": total_batches,
        "seed": seed,
        "driver": driver,
        "wall_s": round(best_wall, 4),
        "processed_events": events,
        "shard_processed_events": list(shard_events),
        **memo_counters,
        "events_per_wall_sec": round(events / best_wall, 1),
        "completed_txns": completed_txns,
        "txns_per_wall_sec": round(completed_txns / best_wall, 1),
        "virtual_ms": round(virtual_ms, 3),
        "virtual_throughput_txn_per_s": round(throughput, 1),
    }


#: Rows for the ``--parallel`` same-host comparison: (num_shards,
#: total_batches).  Pools and outstanding are boosted so each shard
#: carries enough events for the per-window pipe round-trips to
#: amortise; parallel wins require real cores — a single-core host
#: (common in CI sandboxes) runs the workers time-sliced and the
#: comparison degrades to measuring IPC overhead.
PARALLEL_COMPARE_ROWS: Tuple[Tuple[int, int], ...] = ((2, 40), (4, 40), (8, 40))


def measure_parallel_speedup(
        protocol: str = "poe-mac",
        rows: Sequence[Tuple[int, int]] = PARALLEL_COMPARE_ROWS,
        cross_shard_fraction: float = 0.2,
        num_pools: int = 4, client_outstanding: int = 8,
        repeats: int = 2) -> Dict[str, object]:
    """Same-host sequential-vs-parallel comparison over sharded rows.

    For each (num_shards, total_batches) row, runs the identical config
    under both drivers and reports the wall-clock speedup.  Hard-fails if
    the per-shard event counts differ — a parallel run that changes what
    the shards *do* is a bug, not a speedup.
    """
    comparisons: List[Dict[str, object]] = []
    behaviour_ok = True
    for num_shards, total_batches in rows:
        kwargs = dict(
            cross_shard_fraction=cross_shard_fraction,
            total_batches=total_batches, num_pools=num_pools,
            client_outstanding=client_outstanding, repeats=repeats,
        )
        sequential = measure_sharded_cluster(
            protocol, num_shards, driver="sequential", **kwargs)
        parallel = measure_sharded_cluster(
            protocol, num_shards, driver="parallel", **kwargs)
        unchanged = (sequential["shard_processed_events"]
                     == parallel["shard_processed_events"])
        behaviour_ok = behaviour_ok and unchanged
        comparisons.append({
            "row": row_key(sequential),
            "num_shards": num_shards,
            "behaviour_unchanged": unchanged,
            "processed_events": sequential["processed_events"],
            "shard_processed_events": sequential["shard_processed_events"],
            "sequential_wall_s": sequential["wall_s"],
            "parallel_wall_s": parallel["wall_s"],
            "sequential_events_per_wall_sec": sequential["events_per_wall_sec"],
            "parallel_events_per_wall_sec": parallel["events_per_wall_sec"],
            "speedup": round(sequential["wall_s"] / parallel["wall_s"], 3),
        })
    return {
        "protocol": protocol,
        "cpu_count": os.cpu_count(),
        "behaviour_unchanged": behaviour_ok,
        "rows": comparisons,
    }


# -------------------------------------------------------------- determinism


def check_determinism(protocols: Sequence[str] = ("poe", "poe-mac"),
                      num_replicas: int = 4, total_batches: int = 30,
                      batch_size: int = 50, seed: int = 11) -> Dict[str, object]:
    """Assert same-seed reproducibility for *protocols*; returns a report."""
    checks: List[Dict[str, object]] = []
    all_ok = True
    for protocol in protocols:
        config = ClusterConfig(
            protocol=protocol, num_replicas=num_replicas,
            batch_size=batch_size, total_batches=total_batches, seed=seed,
        )
        first = run_fingerprint(config)
        second = run_fingerprint(ClusterConfig(
            protocol=protocol, num_replicas=num_replicas,
            batch_size=batch_size, total_batches=total_batches, seed=seed,
        ))
        identical = first == second
        all_ok = all_ok and identical and bool(first[0])
        checks.append({
            "protocol": protocol,
            "n": num_replicas,
            "total_batches": total_batches,
            "seed": seed,
            "completed_batches": len(first[0]),
            "identical": identical,
        })
    return {"ok": all_ok, "checks": checks}


# ----------------------------------------------------------------- compare
def row_key(row: Dict[str, object]) -> str:
    """Stable identity of one cluster row (the like-for-like fields)."""
    return (f"{row['protocol']}:n{row['n']}:b{row['batch_size']}"
            f":t{row['total_batches']}:s{row['seed']}")


def compare_reports(baseline: Dict[str, object],
                    current: Dict[str, object]) -> Dict[str, object]:
    """Same-host HEAD-vs-baseline delta over two suite reports.

    Wall-clock numbers recorded in ``BENCH_simperf.json`` are
    host-relative — containers bench 40% apart on identical code — so
    cross-host absolute comparisons are noise.  This delta mode matches
    rows by :func:`row_key` and reports the events/sec speedup next to a
    ``behaviour_unchanged`` flag (``processed_events`` equality): a row
    whose event count moved changed behaviour, not just speed, and its
    speedup must not be trusted before that is understood.
    """
    base_rows = {row_key(row): row for row in baseline.get("clusters", [])}
    deltas: List[Dict[str, object]] = []
    behaviour_ok = True
    seen = set()
    for row in current.get("clusters", []):
        key = row_key(row)
        seen.add(key)
        base = base_rows.get(key)
        if base is None:
            deltas.append({"row": key, "status": "new",
                           "events_per_wall_sec": row["events_per_wall_sec"]})
            continue
        unchanged = row["processed_events"] == base["processed_events"]
        behaviour_ok = behaviour_ok and unchanged
        deltas.append({
            "row": key,
            "status": "compared",
            "behaviour_unchanged": unchanged,
            "baseline_processed_events": base["processed_events"],
            "processed_events": row["processed_events"],
            "baseline_events_per_wall_sec": base["events_per_wall_sec"],
            "events_per_wall_sec": row["events_per_wall_sec"],
            "speedup": round(
                row["events_per_wall_sec"] / base["events_per_wall_sec"], 3),
        })
    for key in sorted(set(base_rows) - seen):
        # A baseline row the current suite no longer produces is behaviour
        # drift too (scale mismatch, dropped/renamed row) — flag it rather
        # than letting a vanished row pass as "unchanged".
        behaviour_ok = False
        deltas.append({"row": key, "status": "missing",
                       "baseline_events_per_wall_sec":
                           base_rows[key]["events_per_wall_sec"]})
    loop_speedup = None
    base_loop = baseline.get("event_loop")
    cur_loop = current.get("event_loop")
    if base_loop and cur_loop:
        loop_speedup = round(
            cur_loop["events_per_sec"] / base_loop["events_per_sec"], 3)
    return {
        "baseline_recorded_at_unix": baseline.get("recorded_at_unix"),
        "event_loop_speedup": loop_speedup,
        "behaviour_unchanged": behaviour_ok,
        "rows": deltas,
    }


#: Deterministic per-row counters pinned next to ``processed_events``,
#: each under its own table in the expectations file.  A row the table
#: does not list must not report the counter either.
PINNED_COUNTERS = ("digest_memo_misses", "peak_heap_entries")


def check_processed_events(
        results: Dict[str, object],
        expectations: Dict[str, object]) -> List[str]:
    """Behaviour guard: diff per-row ``processed_events`` vs expectations.

    Returns human-readable problem strings (empty = pass).  Wall-clock is
    deliberately not checked — CI runners are too noisy for that — but a
    drifted event count on a no-fault row means the refactor changed what
    the cluster *does*, which must be an explicit, reviewed update to the
    expectations file.  ``digest_memo_misses`` is pinned the same way:
    it is the number of distinct consensus values a row hashes, so a rise
    means some digest went back to being computed once per replica.  So
    is ``peak_heap_entries`` on the rows that record it: a rise by a
    factor of n means broadcasts went back to one live heap entry per
    receiver.
    """
    expected_scale = expectations.get("scale")
    run_scale = results.get("scale")
    if expected_scale and run_scale and expected_scale != run_scale:
        # A scale mismatch would otherwise surface as dozens of
        # missing/unexpected-row errors that read as behaviour drift.
        return [f"scale mismatch: expectations are for {expected_scale!r}, "
                f"run is {run_scale!r}"]
    expected_rows: Dict[str, int] = expectations.get("rows", {})
    problems: List[str] = []
    seen = set()
    for row in results.get("clusters", []):
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


# ----------------------------------------------------------------- profile
def row_batch_budget(protocol: str, num_replicas: int,
                     scale: Optional[PerfScale] = None) -> int:
    """Batch budget the suite uses for (*protocol*, *num_replicas*).

    Large-n rows shrink their budget with n; resolving it here keeps
    ``--profile`` profiling the same workload the recorded row measures.
    """
    scale = scale or current_perf_scale()
    for row_protocol, n, total_batches in scale.large_n_rows:
        if row_protocol == protocol and n == num_replicas:
            return total_batches
    return scale.cluster_batches


def profile_row(protocol: str, num_replicas: int,
                total_batches: Optional[int] = None,
                batch_size: int = 100, seed: int = 3, top: int = 25) -> str:
    """cProfile one cluster row; returns the top-*top* cumulative report.

    Exists so the next perf PR reads its hot list off
    ``bench_perf_fabric.py --profile`` instead of re-deriving it by hand.
    *total_batches* defaults to the batch budget the current scale's
    suite uses for this (protocol, n) row.

    *protocol* also accepts a sharded row label (``poe-2sh-x20``); the
    profile then covers a sequential sharded run — the per-shard event
    loops plus the 2PC/boundary plumbing, i.e. exactly the work one
    parallel worker would execute — with *num_replicas* read as the
    per-shard replica count, and appends the per-shard
    ``processed_events`` breakdown so hot-spot reads can be weighted by
    where the events actually ran.
    """
    sharded = parse_sharded_label(protocol)
    if sharded is not None:
        return _profile_sharded_row(sharded, num_replicas, total_batches,
                                    seed=seed, top=top)
    if total_batches is None:
        total_batches = row_batch_budget(protocol, num_replicas)
    config = ClusterConfig(
        protocol=protocol, num_replicas=num_replicas,
        batch_size=batch_size, total_batches=total_batches, seed=seed,
    )
    profiler = cProfile.Profile()
    cluster = Cluster(config)
    cluster.start()
    profiler.enable()
    cluster.run_until_done()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


def _profile_sharded_row(sharded: Tuple[str, int, float], num_replicas: int,
                         total_batches: Optional[int],
                         batch_size: int = 16, seed: int = 3,
                         top: int = 25) -> str:
    from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig

    protocol, num_shards, cross_fraction = sharded
    scale = current_perf_scale()
    if total_batches is None:
        total_batches = scale.cluster_batches
        for row_protocol, row_shards, row_cross, row_batches in scale.sharded_rows:
            if (row_protocol == protocol and row_shards == num_shards
                    and row_cross == cross_fraction):
                total_batches = row_batches
                break
    cluster = ShardedCluster(ShardedClusterConfig(
        num_shards=num_shards, protocols=protocol,
        num_replicas=num_replicas, batch_size=batch_size,
        total_batches=total_batches,
        cross_shard_fraction=cross_fraction, seed=seed,
    ))
    profiler = cProfile.Profile()
    cluster.start()
    profiler.enable()
    cluster.run_until_done()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    breakdown = ", ".join(
        f"s{shard}={events}"
        for shard, events in enumerate(cluster.shard_processed_events))
    stream.write(
        f"\nper-shard processed_events: {breakdown} "
        f"(total {cluster.processed_events})\n")
    return stream.getvalue()


# ------------------------------------------------------------------- suite
def run_suite(scale: Optional[PerfScale] = None) -> Dict[str, object]:
    """Run the full perf suite at *scale* (default: env-selected)."""
    scale = scale or current_perf_scale()
    event_loop = measure_event_loop(scale.event_loop_events, scale.repeats)
    clusters: List[Dict[str, object]] = []
    for protocol in scale.protocols:
        clusters.append(measure_cluster(
            protocol, num_replicas=4, total_batches=scale.cluster_batches,
            repeats=scale.cluster_repeats))
    for n in scale.poe_replica_counts:
        if n == 4:
            continue  # already covered by the protocol sweep
        clusters.append(measure_cluster(
            "poe", num_replicas=n, total_batches=scale.cluster_batches,
            repeats=scale.cluster_repeats))
    for protocol, n, total_batches in scale.large_n_rows:
        clusters.append(measure_cluster(
            protocol, num_replicas=n, total_batches=total_batches,
            repeats=scale.cluster_repeats))
    for protocol, num_shards, cross, total_batches in scale.sharded_rows:
        clusters.append(measure_sharded_cluster(
            protocol, num_shards=num_shards, cross_shard_fraction=cross,
            total_batches=total_batches, repeats=scale.cluster_repeats))
    determinism = check_determinism(total_batches=scale.determinism_batches)
    # The zero-allocation step path must stay byte-identical where the
    # n² MAC flood is heaviest, not just at n=4.
    large_n_determinism = check_determinism(
        protocols=("poe-mac",), num_replicas=32,
        total_batches=max(6, scale.determinism_batches // 5))
    determinism["ok"] = determinism["ok"] and large_n_determinism["ok"]
    determinism["checks"].extend(large_n_determinism["checks"])
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "simperf",
        "scale": scale.name,
        "recorded_at_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "event_loop": event_loop,
        "clusters": clusters,
        "determinism": determinism,
    }


def write_report(results: Dict[str, object], path: str) -> str:
    """Write *results* as pretty-printed JSON; returns the path written."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the suite and write the JSON report."""
    argv = list(sys.argv[1:] if argv is None else argv)
    path = argv[0] if argv else DEFAULT_REPORT_NAME
    results = run_suite()
    write_report(results, path)
    loop = results["event_loop"]
    print(f"event loop: {loop['events_per_sec']:,.0f} events/s")
    for row in results["clusters"]:
        print(f"{row['protocol']} n={row['n']}: "
              f"{row['events_per_wall_sec']:,.0f} events/s, "
              f"{row['txns_per_wall_sec']:,.0f} txn/s (wall)")
    print(f"determinism ok: {results['determinism']['ok']}")
    print(f"wrote {path}")
    # Determinism is load-bearing: a divergence must fail CI smoke runs,
    # not just be recorded in the report.
    return 0 if results["determinism"]["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())

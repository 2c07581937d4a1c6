"""Forked fingerprint check: shard runtimes on worker processes.

The in-process :class:`~repro.fabric.sharding.ShardedCluster` advances its
per-shard runtimes through :func:`~repro.fabric.sharding.run_windows`;
this module runs the *same* runtimes, through the *same* window loop, on
forked ``multiprocessing`` workers — one per shard.  Each barrier is one
pipe round-trip per worker: the parent collects every runtime's outbox
and horizon, picks the next conservative window edge
(``min(horizons) + lookahead``), and broadcasts the per-runtime inboxes.

A runtime is built from the config identically in a worker and
in-process, every boundary timestamp is RNG-free, and the canonical inbox
order is fixed by :func:`~repro.fabric.sharding.boundary_event_order` —
so each runtime executes a byte-identical event sequence either way.  At
the finish barrier a worker sends back only its share of the
fingerprint (:meth:`~repro.fabric.sharding.ShardRuntime.fingerprint_parts`),
plain values; its event count and clock came with its last window
result.  :func:`run_parallel` folds them with the same
:func:`~repro.fabric.sharding.fingerprint_state` the in-process run uses,
so its fingerprint must equal :func:`~repro.fabric.sharding.sharded_fingerprint`.
The forked run is no faster on the hosts measured, so this is all it
is: a check that, within a window, no runtime reads another's state.

``python -m repro.fabric.parallel`` is the CI smoke entry point: it
cross-checks the two fingerprints over a small grid of shard counts,
seeds and fault shapes and writes a JSON artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

from repro.fabric.cluster import CollectorPaused
from repro.fabric.scenarios import (
    MATRIX_DEPLOYMENT,
    SHARDED_SCENARIOS,
    sharded_cluster_config,
)
from repro.fabric.sharding import (
    ShardRuntime,
    ShardedClusterConfig,
    WindowResult,
    _hub_conditions,
    _validate_config,
    fingerprint_state,
    run_windows,
    sharded_fingerprint,
)


class WorkerCrash(RuntimeError):
    """A shard worker died, raised or hung; the run cannot continue."""


#: Seconds every worker has to answer one barrier (start, a window, finish)
#: before the run fails with :class:`WorkerCrash` naming the shard.  The
#: slowest honest barrier is ``finish``, where each worker gathers its
#: fingerprint parts: 0.02–0.05 s for the full ``xshard_2sh_x20`` poebench
#: shape on a 2-core x86 VM, start and windows at most 0.012 s.  A worker
#: silent this long is hung, and the driver must not wait on it forever.
BARRIER_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ParallelRun:
    """What a forked run returns: per-runtime event counts and clocks, in
    shard order, and the fingerprint of the finished state."""

    shard_processed_events: List[int]
    shard_clocks: List[float]
    fingerprint: str


# -- worker ------------------------------------------------------------------------

def _worker_main(conn, config: ShardedClusterConfig, shard: int) -> None:
    """One shard worker: build the runtime, obey barrier commands.

    Any exception is reported over the pipe as ``("error", traceback)``
    so the parent raises a :class:`WorkerCrash` naming the shard instead
    of hanging on a dead pipe.
    """
    try:
        runtime = ShardRuntime(config, shard)
        conn.send(("ok", runtime.start()))
        with CollectorPaused():
            while True:
                command = conn.recv()
                op = command[0]
                if op == "window":
                    conn.send(("ok", runtime.window(command[1], command[2])))
                elif op == "finish":
                    break
                else:
                    raise ValueError(f"unknown worker command {op!r}")
        conn.send(("ok", runtime.fingerprint_parts()))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


# -- parent driver -----------------------------------------------------------------

def _gather(conns) -> list:
    """Every worker's answer to one barrier, within its deadline."""
    deadline = time.monotonic() + BARRIER_TIMEOUT_S
    return [_recv(conn, shard, deadline) for shard, conn in enumerate(conns)]


def _recv(conn, shard: int, deadline: float):
    if not conn.poll(max(0.0, deadline - time.monotonic())):
        raise WorkerCrash(f"shard {shard} worker missed the "
                          f"{BARRIER_TIMEOUT_S:g} s barrier deadline")
    try:
        kind, payload = conn.recv()
    except (EOFError, OSError) as exc:
        raise WorkerCrash(
            f"shard {shard} worker died without reporting an error "
            f"({type(exc).__name__})") from exc
    if kind == "error":
        raise WorkerCrash(f"shard {shard} worker failed:\n{payload}")
    return payload


def run_parallel(config: ShardedClusterConfig,
                 max_ms: float = 600_000.0,
                 record_wire: bool = True) -> ParallelRun:
    """Run a sharded deployment on one forked worker per shard.

    Returns the per-runtime event counts and clocks and the fingerprint,
    each equal to the in-process run's for the same config.  The workers
    record nothing, whatever *record_wire* says: the keyword stays only
    because poebench passes ``record_wire=False``, and it goes with this
    module when the benchmark is re-baselined.
    """
    _validate_config(config)
    lookahead_ms = _hub_conditions(config).min_propagation_ms()
    num = config.num_shards
    ctx = multiprocessing.get_context("fork")
    conns: List = []
    procs: List = []
    finished = False
    try:
        for shard in range(num):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, config, shard),
                daemon=True)
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        results: List[WindowResult] = _gather(conns)

        def window_all(edge_ms, inboxes):
            for conn, inbox in zip(conns, inboxes):
                conn.send(("window", edge_ms, inbox))
            return _gather(conns)

        results = run_windows(results, window_all, num, lookahead_ms, max_ms)
        for conn in conns:
            conn.send(("finish",))
        parts = _gather(conns)
        finished = True
        events = [result.processed_events for result in results]
        clocks = [result.now_ms for result in results]
        return ParallelRun(events, clocks,
                           fingerprint_state(events, clocks, parts))
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs:
            # A worker that sent its parts exits on its own; any
            # other is killed now.  SIGKILL also ends a stopped process,
            # where SIGTERM would wait for it to be continued.
            proc.join(timeout=10.0 if finished else 0.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


# -- CI smoke ----------------------------------------------------------------------

#: The matrix rows the smoke cross-checks, with their row-label suffix:
#: the clean and crash-mid-2PC rows, and the two Byzantine-coordinator
#: rows that put the pools on their probe -> decide path.
SMOKE_SCENARIOS = (
    ("xshard-no-fault", ""),
    ("xshard-crash-2pc", "-crash2pc"),
    ("xshard-coordinator-equivocate", "-equivocate"),
    ("xshard-coordinator-stall", "-stall"),
)


def _smoke_config(scenario: str, num_shards: int, seed: int, total_batches: int,
                  cross_shard_fraction: float) -> ShardedClusterConfig:
    sdef = dataclasses.replace(
        SHARDED_SCENARIOS[scenario], num_shards=num_shards,
        cross_shard_fraction=cross_shard_fraction)
    return sharded_cluster_config("poe-mac", sdef, dataclasses.replace(
        MATRIX_DEPLOYMENT, total_batches=total_batches, seed=seed))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cross-check parallel vs sequential sharded fingerprints")
    parser.add_argument("--shards", default="2,4",
                        help="comma-separated shard counts (default: 2,4)")
    parser.add_argument("--seeds", default="3,7",
                        help="comma-separated seeds (default: 3,7)")
    parser.add_argument("--batches", type=int, default=20,
                        help="per-pool batch budget (default: 20)")
    parser.add_argument("--cross", type=float, default=0.2,
                        help="cross-shard fraction (default: 0.2)")
    parser.add_argument("--max-ms", type=float, default=600_000.0)
    parser.add_argument("--json", default=None,
                        help="write per-row results to this JSON file")
    args = parser.parse_args(argv)

    rows = []
    ok = True
    for num_shards in (int(s) for s in args.shards.split(",")):
        for seed in (int(s) for s in args.seeds.split(",")):
            for scenario, suffix in SMOKE_SCENARIOS:
                config = _smoke_config(scenario, num_shards, seed,
                                       args.batches, args.cross)
                started = time.perf_counter()
                sequential = sharded_fingerprint(config, max_ms=args.max_ms)
                seq_s = time.perf_counter() - started
                started = time.perf_counter()
                parallel = run_parallel(config, max_ms=args.max_ms).fingerprint
                par_s = time.perf_counter() - started
                match = sequential == parallel
                ok = ok and match
                label = f"poe-mac-{num_shards}sh-s{seed}{suffix}"
                rows.append({
                    "row": label, "num_shards": num_shards, "seed": seed,
                    "scenario": scenario,
                    "sequential_fingerprint": sequential,
                    "parallel_fingerprint": parallel,
                    "match": match,
                    "sequential_s": round(seq_s, 3),
                    "parallel_s": round(par_s, 3),
                })
                status = "ok" if match else "MISMATCH"
                print(f"{label:32s} {status:8s} "
                      f"seq {seq_s:6.2f}s  par {par_s:6.2f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"ok": ok, "rows": rows}, handle, indent=2)
        print(f"wrote {args.json}")
    print("fingerprint cross-check:", "ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

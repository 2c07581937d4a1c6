"""Conservative parallel driver: shard runtimes on worker processes.

The sequential :class:`~repro.fabric.sharding.ShardedCluster` advances its
per-shard runtimes through :func:`~repro.fabric.sharding.run_windows`
in-process; this module runs the *same* runtimes, through the *same*
window loop, on forked ``multiprocessing`` workers — one per shard.  Each
barrier is one pipe round-trip per worker: the parent collects every
runtime's outbox and horizon, picks the next conservative window edge
(``min(horizons) + lookahead``), and broadcasts the per-runtime inboxes.

Determinism is by construction, not by luck: a runtime is built from the
(picklable) config identically in a worker and in-process, every boundary
timestamp is RNG-free, and the canonical inbox order is fixed by
:func:`~repro.fabric.sharding.boundary_event_order` — so each runtime
executes a byte-identical event sequence under either driver, and
``sharded_fingerprint(config, driver="parallel")`` equals the sequential
fingerprint.  The payoff is wall-clock: on a multi-core host the per-shard
event processing — the bulk of large sharded runs — happens concurrently.

After the final barrier each worker ships its run artifacts back: replica
objects (ledgers, 2PC managers), pools and coordinator (home shard), the
wire recorders the safety auditor needs, and per-runtime event counts.
:class:`ParallelShardedRun` wraps them to duck-type a finished
``ShardedCluster`` for :func:`~repro.fabric.sharding.fingerprint_state`,
:meth:`~repro.fabric.audit.ShardedSafetyAuditor.from_recorded` and the
scenario/bench plumbing.

``python -m repro.fabric.parallel`` is the CI smoke entry point: it
cross-checks parallel-vs-sequential fingerprints over a small grid of
shard counts, seeds and fault shapes and writes a JSON artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

from repro.fabric.audit import WireRecord, attach_recorder
from repro.fabric.registry import get_spec
from repro.fabric.scenarios import (
    SHARDED_SCENARIOS,
    ScenarioParams,
    sharded_cluster_config,
)
from repro.fabric.sharding import (
    HOME_SHARD,
    ShardRuntime,
    ShardedClusterConfig,
    ShardedRunView,
    WindowResult,
    _hub_conditions,
    _validate_config,
    fingerprint_state,
    layout_for_config,
    run_windows,
    sharded_fingerprint,
)


class WorkerCrash(RuntimeError):
    """A shard worker died, raised or hung; the run cannot continue."""


#: Seconds every worker has to answer one barrier (start, a window, finish)
#: before the run fails with :class:`WorkerCrash` naming the shard.  The
#: slowest honest barrier is ``finish``, which pickles each shard's replicas
#: back: 0.17 s for the full ``xshard_2sh_x20`` poebench shape on a 2-core
#: x86 VM, windows at most 0.06 s.  A worker silent this long is hung, and
#: the driver must not wait on it forever.
BARRIER_TIMEOUT_S = 60.0


# -- artifacts ---------------------------------------------------------------------

@dataclass
class ShardArtifacts:
    """Everything one worker ships back after its final barrier."""

    shard: int
    protocol: str
    replicas: List[object]
    byzantine_ids: List[str]
    processed_events: int
    now_ms: float
    wire: Optional[WireRecord] = None
    # Home shard only:
    pools: List[object] = field(default_factory=list)
    coordinator: Optional[object] = None
    hub_wire: Optional[WireRecord] = None


class _RecordedShardCluster:
    """Duck-typed stand-in for one shard's ``Cluster`` built from artifacts.

    Exposes exactly what :class:`~repro.fabric.audit.SafetyAuditor` and
    the scenario plumbing read from a live shard cluster: ``replicas``
    (with their 2PC managers attached), ``spec``, ``node_config``,
    ``byzantine_ids`` and an empty ``pools`` list (shard networks host no
    clients).
    """

    def __init__(self, artifacts: ShardArtifacts) -> None:
        self.replicas = artifacts.replicas
        self.spec = get_spec(artifacts.protocol)
        self.byzantine_ids = list(artifacts.byzantine_ids)
        self.node_config = artifacts.replicas[0].config
        self.pools: List[object] = []
        self.config = _RecordedShardConfig(artifacts.protocol)


@dataclass(frozen=True)
class _RecordedShardConfig:
    protocol: str


class ParallelShardedRun(ShardedRunView):
    """A finished parallel run, assembled from per-worker artifacts.

    Stands in for a finished :class:`ShardedCluster` for
    :func:`~repro.fabric.sharding.fingerprint_state`,
    :meth:`~repro.fabric.audit.ShardedSafetyAuditor.from_recorded`,
    scenario outcome assembly and the bench plumbing.
    """

    def __init__(self, config: ShardedClusterConfig,
                 artifacts: List[ShardArtifacts]) -> None:
        self.config = config
        self.layout = layout_for_config(config)
        self.artifacts = artifacts
        self.shard_clusters = [_RecordedShardCluster(a) for a in artifacts]
        home = artifacts[HOME_SHARD]
        self.pools = home.pools
        self.coordinator = home.coordinator
        self.hub_wire = home.hub_wire
        self.shard_wires = [a.wire for a in artifacts]
        self.byzantine_ids: List[str] = [
            rid for a in artifacts for rid in a.byzantine_ids]

    # -- the fingerprint/bench surface -------------------------------------------
    @property
    def shard_processed_events(self) -> List[int]:
        return [a.processed_events for a in self.artifacts]

    @property
    def shard_clocks(self) -> List[float]:
        return [a.now_ms for a in self.artifacts]


# -- worker ------------------------------------------------------------------------

def _collect_artifacts(runtime: ShardRuntime,
                       wire: Optional[WireRecord],
                       hub_wire: Optional[WireRecord]) -> ShardArtifacts:
    for pool in runtime.pools:
        # The batch source is a closure (unpicklable) and the run is over:
        # the pool will never draw another batch.
        pool.batch_source = None
    return ShardArtifacts(
        shard=runtime.shard,
        protocol=runtime.cluster.config.protocol,
        replicas=runtime.cluster.replicas,
        byzantine_ids=runtime.byzantine_ids,
        processed_events=runtime.simulator.processed_events,
        now_ms=runtime.simulator.now,
        wire=wire,
        pools=runtime.pools,
        coordinator=runtime.coordinator,
        hub_wire=hub_wire,
    )


def _worker_main(conn, config: ShardedClusterConfig, shard: int,
                 record_wire: bool) -> None:
    """One shard worker: build the runtime, obey barrier commands.

    Any exception is reported over the pipe as ``("error", traceback)``
    so the parent raises a :class:`WorkerCrash` naming the shard instead
    of hanging on a dead pipe.
    """
    try:
        runtime = ShardRuntime(config, shard)
        wire: Optional[WireRecord] = None
        hub_wire: Optional[WireRecord] = None
        if record_wire:
            wire = attach_recorder(runtime.cluster.network)
            if runtime.hub is not None:
                hub_wire = attach_recorder(runtime.hub, runtime.pools)
        conn.send(("ok", runtime.start()))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "window":
                conn.send(("ok", runtime.window(command[1], command[2])))
            elif op == "finish":
                conn.send(("ok", _collect_artifacts(runtime, wire, hub_wire)))
                return
            else:
                raise ValueError(f"unknown worker command {op!r}")
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
                 record_wire: bool = True) -> ParallelShardedRun:
    """Run a sharded deployment on one forked worker per shard.

    Returns a :class:`ParallelShardedRun` whose fingerprint, audit
    report, completions and event counts are byte-identical to the
    sequential driver's for the same config.  ``record_wire=False`` skips
    attaching wire recorders in the workers (benchmarks that never audit
    pay no observer overhead — matching a bare sequential
    ``ShardedCluster`` run).
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
                args=(child_conn, config, shard, record_wire),
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

        run_windows(results, window_all, num, lookahead_ms, max_ms)
        for conn in conns:
            conn.send(("finish",))
        artifacts = _gather(conns)
        finished = True
        return ParallelShardedRun(config, artifacts)
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs:
            # A worker that shipped its artifacts exits on its own; any
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
    return sharded_cluster_config(
        "poe-mac", sdef, ScenarioParams(total_batches=total_batches, seed=seed))


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
                parallel = fingerprint_state(
                    run_parallel(config, max_ms=args.max_ms))
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

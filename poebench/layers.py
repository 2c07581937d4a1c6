"""The layer ledger: spans from the harness's own loop and a cProfile
roll-up of ``src/repro`` by source file -> layer.

Spans are recorded here, around the calls into ``src/`` (workload -> rep
-> deployment -> 100-virtual-ms chunk), kept in memory and written when
the run ends.  Layer time comes from one rep under ``cProfile``: a
function's self time goes to the layer of its source file; built-in and
library time (heapq, hashlib, dict ops) is charged to the layer of the
*calling* function through the pstats callers table, and time whose
caller is outside ``repro`` goes to ``other``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.fabric.sharding import ShardedCluster, run_windows

from measure import MAX_VIRTUAL_MS, processed_events, virtual_now
from workloads import Deployment

#: Module (path under src/repro, without .py) -> layer.  A new module has
#: to be added here: test_poebench fails on a module this map misses.
_LAYER_MODULES: Dict[str, List[str]] = {
    "net.simulator": ["net/simulator"],
    "net.network": ["net/network", "net/conditions", "net/transport",
                    "sim/delay_model"],
    "net.faults": ["net/faults", "net/byzantine"],
    "crypto.hashing": ["crypto/hashing"],
    "crypto.mac": ["crypto/mac"],
    "crypto.threshold": ["crypto/threshold"],
    "crypto.signatures": ["crypto/signatures", "crypto/keys",
                          "crypto/authenticator", "crypto/cost"],
    "protocols.replica_base": [
        "protocols/replica_base", "protocols/base", "protocols/quorum",
        "protocols/batching", "protocols/checkpoint", "protocols/epoch",
        "protocols/client_messages"],
    "core.replica": ["core/replica", "core/client", "core/messages"],
    "protocols.baselines": ["protocols/pbft", "protocols/sbft",
                            "protocols/zyzzyva", "protocols/hotstuff"],
    "protocols.recovery": ["protocols/recovery", "core/view_change"],
    "workload.clients": ["workload/clients", "workload/xshard"],
    "workload.ycsb": ["workload/ycsb", "workload/zipfian",
                      "workload/transactions"],
    "ledger": ["ledger/block", "ledger/blockchain", "ledger/execution",
               "ledger/store"],
    "fabric.cluster": ["fabric/cluster", "fabric/metrics", "fabric/registry"],
    "fabric.sharding": ["fabric/sharding"],
    "fabric.parallel": ["fabric/parallel"],
    # Offline tools of the fabric: never on a timed path.
    "other": ["fabric/audit", "fabric/experiments", "fabric/fingerprint",
              "fabric/modelcheck", "fabric/revertdemo", "fabric/scenarios",
              "fabric/timeline", "fabric/upper_bound"],
}
MODULE_LAYER: Dict[str, str] = {
    module: layer
    for layer, modules in _LAYER_MODULES.items() for module in modules}
LAYERS: List[str] = sorted(set(_LAYER_MODULES) - {"other"}) + ["other"]

CHUNK_MS = 100.0


# -------------------------------------------------------------------- spans
Span = Dict[str, object]


class Tracer:
    """In-memory span list: id, parent id, name, start, end, attributes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._origin = time.perf_counter()

    def open(self, name: str, parent: Optional[int], **attrs: object) -> Span:
        span: Span = {"id": len(self.spans), "parent": parent, "name": name,
                      "start_s": time.perf_counter() - self._origin,
                      "end_s": None, **attrs}
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span["end_s"] = time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, parent: Optional[int],
             **attrs: object) -> Iterator[Span]:
        span = self.open(name, parent, **attrs)
        try:
            yield span
        finally:
            self.close(span)


class ChunkDriver:
    """Boots and drives a deployment exactly as ``start()`` +
    ``run_until_done()`` do, but in 100-virtual-ms chunks with one span
    each, so a slowdown over the run or across a view change is visible.
    On a sharded deployment it also times every ``ShardRuntime.window``
    call: what remains of the loop's wall time is the window loop's own
    overhead."""

    def __init__(self, tracer: Tracer, parent: int) -> None:
        self.tracer = tracer
        self.parent = parent
        self.windows = 0
        self.boundary_events = 0
        self.loop_wall_s = 0.0
        self.window_wall_s = 0.0

    def __call__(self, deployment: Deployment) -> None:
        config = deployment.config
        sharded = isinstance(deployment, ShardedCluster)
        name = (f"sharded x{config.num_shards}" if sharded
                else f"{config.protocol} n={config.num_replicas}")
        with self.tracer.span(name, self.parent) as span:
            if sharded:
                self._drive_sharded(deployment, span["id"])
            else:
                self._drive_single(deployment, span["id"])

    def _open_chunk(self, deployment: Deployment, parent: int) -> Span:
        # events/batches start at minus the running totals; closing adds
        # the totals back, leaving what the chunk itself did.
        return self.tracer.open(
            "chunk", parent, virt_start_ms=virtual_now(deployment),
            events=-processed_events(deployment),
            batches=-sum(len(pool.completions) for pool in deployment.pools))

    def _close_chunk(self, span: Span, deployment: Deployment) -> None:
        span["virt_end_ms"] = virtual_now(deployment)
        span["events"] += processed_events(deployment)
        span["batches"] += sum(len(pool.completions)
                               for pool in deployment.pools)
        self.tracer.close(span)

    def _drive_single(self, cluster, parent: int) -> None:
        cluster.start()
        sim, pools = cluster.simulator, cluster.pools
        deadline = sim.now + MAX_VIRTUAL_MS
        progressed = True
        # run_until_done's loop: completion is re-checked every 1000 ms,
        # and only after a stretch that processed events.
        while sim.now < deadline:
            if progressed and all(pool.is_done() for pool in pools):
                break
            stop = min(deadline, sim.now + 1000.0)
            before = sim.processed_events
            while sim.now < stop:
                span = self._open_chunk(cluster, parent)
                cluster.network.run(until_ms=min(stop, sim.now + CHUNK_MS))
                self._close_chunk(span, cluster)
            progressed = sim.processed_events != before

    def _drive_sharded(self, cluster: ShardedCluster, parent: int) -> None:
        runtimes = cluster.runtimes
        chunk = self._open_chunk(cluster, parent)

        def window_all(edge_ms, inboxes):
            nonlocal chunk
            start = time.perf_counter()
            results = [runtime.window(edge_ms, inbox)
                       for runtime, inbox in zip(runtimes, inboxes)]
            self.window_wall_s += time.perf_counter() - start
            self.windows += 1
            self.boundary_events += sum(len(inbox) for inbox in inboxes)
            if edge_ms - chunk["virt_start_ms"] >= CHUNK_MS:
                self._close_chunk(chunk, cluster)
                chunk = self._open_chunk(cluster, parent)
            return results

        # ShardedCluster.start() + run_until_done(), with the callback above.
        booted = [runtime.start() for runtime in runtimes]
        start = time.perf_counter()
        run_windows(booted, window_all, len(runtimes), cluster.lookahead_ms,
                    cluster.now + MAX_VIRTUAL_MS)
        self.loop_wall_s += time.perf_counter() - start
        self._close_chunk(chunk, cluster)


# ------------------------------------------------------------------ roll-up
def _layer_of(filename: str) -> Optional[str]:
    """Layer of a profiled function's source file; None outside repro."""
    _, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not sep or not tail.endswith(".py"):
        return None
    return MODULE_LAYER.get(tail[:-3], "other")


def roll_up(profile: cProfile.Profile) -> Tuple[List[Dict[str, object]],
                                                List[Dict[str, object]]]:
    """Per-layer rows ``{layer, calls, self_s, self_frac, cum_s}`` and
    layer -> layer edges ``{from, to, calls, cum_s}``.

    ``cum_s`` is the cumulative time of calls that enter a layer from a
    different one (the edge total); ``self_frac`` sums to 1.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    edges: Dict[Tuple[str, str], List[float]] = {}
    for (filename, _, _), (_, ncalls, tottime, _, callers) in \
            pstats.Stats(profile).stats.items():
        layer = _layer_of(filename)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
        charged = 0.0
        for (caller_file, _, _), (caller_calls, _, caller_tot, caller_cum) \
                in callers.items():
            caller_layer = _layer_of(caller_file)
            if layer is None:
                # Built-in or library code: its time belongs to the caller.
                self_s[caller_layer or "other"] += caller_tot
                charged += caller_tot
            elif caller_layer != layer:
                edge = edges.setdefault((caller_layer or "other", layer),
                                        [0, 0.0])
                edge[0] += caller_calls
                edge[1] += caller_cum
        if layer is None:
            # Root frames and recursion leave a remainder with no caller.
            self_s["other"] += tottime - charged
    total = sum(self_s.values())
    cum_s = {layer: 0.0 for layer in LAYERS}
    for (_, to), (_, cum) in edges.items():
        cum_s[to] += cum
    rows = [{"layer": layer, "calls": calls[layer], "self_s": self_s[layer],
             "self_frac": self_s[layer] / total, "cum_s": cum_s[layer]}
            for layer in LAYERS]
    edge_rows = [{"from": src, "to": dst, "calls": int(n), "cum_s": cum}
                 for (src, dst), (n, cum) in sorted(edges.items())]
    return rows, edge_rows

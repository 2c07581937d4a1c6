"""Multi-group sharded deployments: S consensus groups plus cross-shard 2PC.

A :class:`ShardedCluster` partitions the keyspace across ``S`` independent
consensus groups ("shards"), each running any of the registered protocols
over its own namespaced replica set and advancing on its own
deterministic :class:`~repro.net.simulator.Simulator`.  Single-shard
batches follow the ordinary client path inside their shard.  Cross-shard
transactions run two-phase commit over the shards' consensus instances:

* **prepare** — the coordinator consensus-commits a PREPARE record in every
  touched shard; the shard's replicas transition the transaction to
  *prepared* (or refuse it) as a deterministic function of their log.
* **decide** — once every shard reports prepared, the coordinator
  consensus-commits a COMMIT record carrying, per shard, ``f + 1`` distinct
  replica attestations of the prepare outcome; any refusal yields an ABORT
  record instead.  Replicas validate the certificate before applying the
  decision (:func:`~repro.workload.xshard.decide_record_valid`), which is
  what stops a Byzantine coordinator from equivocating commit to one shard
  and abort to another.

Coordinator failure is survived by the submitting client pool: after two
request timeouts it PROBEs every touched shard (unprepared shards refuse —
presumed abort), derives the only certificate-consistent decision, and
writes the decide records itself.  Coordinator and pool run the same
round, :class:`~repro.workload.xshard.TwoPhaseDriver`; what is here is the
coordinator's own part (journal, acknowledgements, bounded retries).

Each shard's simulator lives in a :class:`ShardRuntime`; the client pools
and the coordinator live on a hub network hosted by the home runtime
(shard 0, sharing its simulator).  All cross-runtime traffic crosses an
explicit :class:`ShardBoundary` with deterministic, RNG-free send→deliver
timestamps, and every driver — the in-process sequential reference here,
the multiprocessing driver in :mod:`repro.fabric.parallel` — advances the
runtimes through the same conservative time windows
(:func:`run_windows`), which is why their fingerprints are byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fabric.cluster import Cluster, ClusterConfig, attach_byzantine, replica_id
from repro.fabric.metrics import (
    MetricsWindow,
    RunResult,
    merged_completions,
    summarize,
    warmup_window,
)
from repro.fabric.registry import ProtocolSpec, get_spec
from repro.net.byzantine import ByzantineSpec
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.protocols.base import ClientNode, NodeConfig
from repro.protocols.client_messages import ClientReplyMessage
from repro.workload.clients import QUORUM_RULES, CompletionRecord, ShardedClientPool
from repro.workload.xshard import (
    PREPARE,
    CoordAck,
    CoordSubmit,
    ShardLayout,
    ShardTxnManager,
    TwoPhaseDriver,
    TwoPhaseRound,
    parse_control_batch_id,
    synthetic_sharded_source,
    ycsb_sharded_source,
)
from repro.workload.ycsb import YcsbConfig, YcsbWorkload


def coordinator_id(index: int = 0) -> str:
    """Canonical coordinator identifier."""
    return f"coord:{index}"


def pool_id(index: int) -> str:
    """Canonical sharded client-pool identifier."""
    return f"pool:{index}"


# -- coordinator -------------------------------------------------------------------

@dataclass(slots=True)
class _CoordTxn(TwoPhaseRound):
    """Coordinator-side book-keeping for one in-flight 2PC."""

    reply_pool: str = ""


class ShardCoordinator(TwoPhaseDriver, ClientNode):
    """Drives two-phase commit for cross-shard transactions.

    The coordinator is an ordinary client of every shard: the PREPARE
    record is a consensus-committed batch whose replies (stamped with the
    per-replica prepare outcome) it counts per shard.  Decide records
    carry the submitting pool as ``reply_to``, so the pool — not the
    coordinator — observes decide completion and acknowledges with
    :class:`~repro.workload.xshard.CoordAck`.  Until that ack arrives the
    coordinator retransmits with exponential backoff, which makes the
    decide phase survive message loss without any extra machinery.

    ``journal`` keeps every decision and its certificate for the safety
    auditor.
    """

    #: Retransmission rounds before an undecided transaction is abandoned
    #: to the pool's probe-based recovery.
    MAX_RETRIES = 8

    def __init__(self, node_id: str, config: NodeConfig, layout: ShardLayout,
                 timeout_ms: Optional[float] = None) -> None:
        super().__init__(node_id, config, layout)
        self.timeout_ms = timeout_ms if timeout_ms is not None else config.request_timeout_ms
        #: txn -> {"decision", "cert", "shards", "decided_at_ms"}.
        self.journal: Dict[str, Dict[str, object]] = {}
        self._pending: Dict[str, _CoordTxn] = {}

    # -- messages ----------------------------------------------------------------
    def on_message(self, sender: str, message, now_ms: float) -> None:
        if isinstance(message, CoordSubmit):
            self._on_submit(message, now_ms)
        elif isinstance(message, CoordAck):
            self._on_ack(message.txn)
        elif isinstance(message, ClientReplyMessage):
            self._on_reply(sender, message, now_ms)

    def _on_submit(self, message: CoordSubmit, now_ms: float) -> None:
        plan = message.plan
        if plan is None or plan.txn in self._pending:
            return
        pending = _CoordTxn(plan=plan, submitted_at_ms=now_ms,
                            reply_pool=message.reply_to)
        self._pending[plan.txn] = pending
        entry = self.journal.get(plan.txn)
        if entry is not None:
            # Already decided in a previous life of this transaction
            # (duplicate submit): replay the recorded decision.
            pending.mode = "decide"
            pending.decision = str(entry["decision"])
            pending.cert = tuple(entry["cert"])  # type: ignore[arg-type]
        self._send(pending, now_ms, retransmission=entry is not None)
        self.set_timer(f"txn:{plan.txn}", self.timeout_ms, payload=plan.txn)

    def _on_ack(self, txn: str) -> None:
        if self._pending.pop(txn, None) is not None:
            self.cancel_timer(f"txn:{txn}")

    def _on_reply(self, sender: str, message: ClientReplyMessage,
                  now_ms: float) -> None:
        parsed = parse_control_batch_id(message.batch_id)
        if parsed is None:
            return
        txn, phase, shard = parsed
        pending = self._pending.get(txn)
        if (pending is None or pending.mode != PREPARE or phase != PREPARE
                or not 0 <= shard < self.layout.num_shards):
            return
        counted = self.count_control_reply(pending, sender, message, phase, shard)
        if counted is None or not self.record_vote(pending, shard, *counted):
            return
        self.journal[txn] = {
            "decision": pending.decision,
            "cert": pending.cert,
            "shards": pending.plan.shards,
            "decided_at_ms": now_ms,
        }
        self._send(pending, now_ms, retransmission=False)

    def _send(self, pending: _CoordTxn, now_ms: float, retransmission: bool) -> None:
        """(Re)send the records of the phase *pending* is in: prepares
        answer to the coordinator, decides to the submitting pool."""
        reply_to = self.node_id if pending.mode == PREPARE else pending.reply_pool
        self.send_phase(pending, now_ms, reply_to, retransmission)

    # -- timeouts ----------------------------------------------------------------
    def on_timer(self, name: str, payload, now_ms: float) -> None:
        if not name.startswith("txn:"):
            return
        pending = self._pending.get(payload)
        if pending is None:
            return
        pending.retransmissions += 1
        if pending.retransmissions > self.MAX_RETRIES:
            # Hand the transaction over to the pool's probe-based recovery
            # rather than retrying forever; the journal keeps the decision.
            del self._pending[payload]
            return
        self._send(pending, now_ms, retransmission=True)
        backoff = self.timeout_ms * (2 ** min(pending.retransmissions, 4))
        self.set_timer(f"txn:{payload}", backoff, payload=payload)


# -- configuration -----------------------------------------------------------------

@dataclass
class ShardedClusterConfig:
    """Parameters of one sharded deployment.

    Attributes:
        num_shards: number of consensus groups ``S``.
        protocols: protocol key per shard; a single string applies to all
            shards.  SBFT is rejected: its aggregated single-reply path
            cannot yield the ``f + 1`` distinct replica attestations the
            cross-shard certificates are built from.
        num_replicas: replicas per shard.
        cross_shard_fraction: probability that a generated request is a
            two-shard transaction instead of a single-shard batch.
        shard_faults / shard_byzantine: per-shard fault schedule and
            Byzantine replica spec, keyed by shard index.
        hub_faults: fault schedule of the client/coordinator network —
            crash ``coord:0`` here for the crash-mid-2PC scenarios.
        coordinator_behavior: optional Byzantine behaviour name installed
            on the coordinator's network boundary (e.g.
            ``"equivocate-coordinator"``, ``"stall-coordinator"``).
    """

    num_shards: int = 2
    protocols: Union[str, Tuple[str, ...]] = "poe-mac"
    num_replicas: int = 4
    batch_size: int = 16
    num_pools: int = 1
    client_outstanding: int = 4
    total_batches: Optional[int] = 40
    cross_shard_fraction: float = 0.2
    execute_operations: bool = False
    use_ycsb_payload: bool = False
    out_of_order: bool = True
    request_timeout_ms: float = 3000.0
    checkpoint_interval: int = 50
    conditions: Optional[NetworkConditions] = None
    shard_faults: Dict[int, FaultSchedule] = field(default_factory=dict)
    shard_byzantine: Dict[int, ByzantineSpec] = field(default_factory=dict)
    hub_faults: Optional[FaultSchedule] = None
    coordinator_behavior: Optional[str] = None
    ycsb: Optional[YcsbConfig] = None
    seed: int = 1

    def protocol_for(self, shard: int) -> str:
        if isinstance(self.protocols, str):
            return self.protocols
        return self.protocols[shard]

    def pool_ids(self) -> List[str]:
        return [pool_id(i) for i in range(self.num_pools)]


# -- shard boundary ----------------------------------------------------------------

#: The runtime hosting the hub network (client pools + coordinator).
HOME_SHARD = 0


@dataclass(frozen=True)
class BoundaryEvent:
    """One message crossing between shard runtimes.

    Timestamps are fixed by the *sending* runtime (deterministically, see
    :meth:`ShardBoundary.transmit`), so the receiving runtime — whichever
    process it runs in — schedules delivery identically.  ``(deliver_at_ms,
    source, send_seq)`` is the canonical inbox order: the drivers sort every
    window's inbox by it before injection, which pins the receiving
    simulator's tie-breaking sequence numbers across drivers.
    """

    deliver_at_ms: float
    source: int
    send_seq: int
    sender: str
    receiver: str
    message: object
    send_time_ms: float


def boundary_event_order(event: BoundaryEvent) -> Tuple[float, int, int]:
    """Canonical injection order for one window's inbox."""
    return (event.deliver_at_ms, event.source, event.send_seq)


def runtime_of(node_id: str) -> int:
    """Map a node id to the index of its home runtime.

    Shard replicas are namespaced ``s<k>/...``; everything else (pools,
    the coordinator, unknown receivers) lives on the hub, i.e. the home
    runtime.
    """
    if node_id.startswith("s"):
        slash = node_id.find("/")
        if slash > 1:
            try:
                return int(node_id[1:slash])
            except ValueError:
                pass
    return HOME_SHARD


class ShardBoundary:
    """The deterministic cross-shard channel of one runtime.

    Attached as ``network.boundary`` to every network the runtime hosts.
    A send whose receiver is not registered on the origin network lands
    here; the boundary stamps it with an RNG-free delay (base latency —
    overrides and topology apply, jitter and loss do not — plus
    serialization, :meth:`NetworkConditions.boundary_delay_ms`) and either

    * delivers it directly when the receiver lives on a *sibling network
      of the same runtime* (the hub and shard 0 share the home simulator —
      this fast path is runtime-internal and therefore driver-independent), or
    * appends it to the runtime's outbox, to be exchanged at the next
      window barrier.

    Every delay is at least :attr:`lookahead_ms`, which is what makes the
    conservative windows of :func:`run_windows` safe: a message sent in
    the window ``(T, E]`` with ``E = t_min + lookahead`` has
    ``send_time >= t_min`` and so delivers at or after ``E`` — no boundary
    message can ever target the window it was sent in.
    """

    def __init__(self, source: int, conditions: NetworkConditions) -> None:
        self.source = source
        self.conditions = conditions
        self.lookahead_ms = conditions.min_propagation_ms()
        if self.lookahead_ms <= 0:
            raise ValueError(
                "sharded deployments need a positive minimum cross-shard "
                "propagation delay (the conservative-window lookahead)")
        self._networks: List[SimNetwork] = []
        self._outbox: List[BoundaryEvent] = []
        self._seq = 0

    def attach(self, network: SimNetwork) -> None:
        """Host *network* on this boundary (its misses route through us)."""
        network.boundary = self
        self._networks.append(network)

    def transmit(self, origin: SimNetwork, sender: str, receiver: str,
                 message, ready_at: float) -> bool:
        """Route one cross-network send (the ``network.boundary`` hook)."""
        now = origin.sim.now
        send_time = ready_at if ready_at > now else now
        deliver_at = send_time + self.conditions.boundary_delay_ms(
            sender, receiver, message.size_bytes, send_time)
        for network in self._networks:
            if network is origin:
                continue
            if receiver in network._nodes:
                network.deliver_boundary(sender, receiver, message,
                                         send_time, deliver_at)
                return True
        seq = self._seq
        self._seq = seq + 1
        self._outbox.append(BoundaryEvent(
            deliver_at_ms=deliver_at, source=self.source, send_seq=seq,
            sender=sender, receiver=receiver, message=message,
            send_time_ms=send_time))
        return True

    def inject(self, event: BoundaryEvent) -> None:
        """Deliver an inbound boundary event into its home network."""
        for network in self._networks:
            if event.receiver in network._nodes:
                network.deliver_boundary(event.sender, event.receiver,
                                         event.message, event.send_time_ms,
                                         event.deliver_at_ms)
                return
        self._networks[0].dropped_count += 1

    def take_outbox(self) -> List[BoundaryEvent]:
        outbox = self._outbox
        self._outbox = []
        return outbox


# -- configuration helpers ---------------------------------------------------------

def _validate_config(config: ShardedClusterConfig) -> None:
    for shard in range(config.num_shards):
        if config.protocol_for(shard) == "sbft":
            raise ValueError(
                "sbft shards are unsupported: aggregated replies cannot "
                "produce the f+1 distinct attestations cross-shard "
                "certificates require")


def _hub_conditions(config: ShardedClusterConfig) -> NetworkConditions:
    # dataclasses.replace re-runs __post_init__, so a shared config object
    # yields per-runtime conditions with *independent but identically
    # seeded* RNGs — each runtime draws the same stream under every driver.
    if config.conditions is not None:
        return replace(config.conditions)
    return NetworkConditions.lan(seed=config.seed)


def _shard_conditions(config: ShardedClusterConfig, shard: int) -> NetworkConditions:
    # Every shard draws from its own conditions RNG so shard k's traffic
    # cannot perturb shard j's latency stream.
    if config.conditions is not None:
        return replace(config.conditions)
    return NetworkConditions.lan(seed=config.seed * 101 + shard)


def _ycsb_config(config: ShardedClusterConfig) -> Optional[YcsbConfig]:
    if not (config.execute_operations or config.use_ycsb_payload):
        return None
    # One shared YCSB universe: every shard's replicas hold the same
    # initial table, and the sharded sources route keys by crc32.
    return config.ycsb or YcsbConfig.small(seed=config.seed)


def _pool_source(config: ShardedClusterConfig, pid: str):
    if not config.use_ycsb_payload:
        return synthetic_sharded_source(
            pid, config.num_shards, config.batch_size,
            config.cross_shard_fraction, seed=config.seed)
    workload = YcsbWorkload(_ycsb_config(config), client_id=pid)
    return ycsb_sharded_source(
        workload, config.num_shards, config.batch_size,
        config.cross_shard_fraction, seed=config.seed)


def _shard_cluster_config(config: ShardedClusterConfig, shard: int) -> ClusterConfig:
    byzantine = config.shard_byzantine.get(shard)
    return ClusterConfig(
        protocol=config.protocol_for(shard),
        num_replicas=config.num_replicas,
        batch_size=config.batch_size,
        num_clients=0,
        total_batches=None,
        out_of_order=config.out_of_order,
        execute_operations=config.execute_operations,
        request_timeout_ms=config.request_timeout_ms,
        checkpoint_interval=config.checkpoint_interval,
        conditions=_shard_conditions(config, shard),
        faults=config.shard_faults.get(shard),
        byzantine=(byzantine,) if byzantine else (),
        ycsb=_ycsb_config(config),
        seed=config.seed,
        namespace=f"s{shard}/",
    )


def layout_for_config(config: ShardedClusterConfig) -> ShardLayout:
    """The shard layout implied by a config, computed without building
    any cluster — every runtime (in-process or worker) derives the same
    layout from the config alone."""
    members = []
    quorums = []
    broadcast = []
    for shard in range(config.num_shards):
        spec: ProtocolSpec = get_spec(config.protocol_for(shard))
        n = config.num_replicas
        members.append(tuple(
            f"s{shard}/" + replica_id(i) for i in range(n)))
        quorums.append(QUORUM_RULES[spec.client_quorum](n, (n - 1) // 3))
        broadcast.append(spec.broadcast_requests)
    return ShardLayout(
        members=tuple(members),
        reply_quorums=tuple(quorums),
        broadcast_requests=tuple(broadcast),
    )


def hub_node_config(config: ShardedClusterConfig,
                    layout: ShardLayout) -> NodeConfig:
    """The NodeConfig shared by hub-side nodes (pools, coordinator)."""
    return NodeConfig(
        replica_ids=[rid for shard in layout.members for rid in shard],
        batch_size=config.batch_size,
        request_timeout_ms=config.request_timeout_ms,
        checkpoint_interval=config.checkpoint_interval,
        execute_operations=config.execute_operations,
        out_of_order=config.out_of_order,
    )


# -- per-shard runtime -------------------------------------------------------------

@dataclass
class WindowResult:
    """What one runtime reports back at a window barrier (picklable)."""

    outbox: List[BoundaryEvent]
    next_event_ms: Optional[float]
    pools_done: bool
    now_ms: float
    processed_events: int


class ShardRuntime:
    """One shard's self-contained simulation: simulator, consensus group,
    boundary channel — and, on the home shard, the hub network with the
    client pools and the 2PC coordinator.

    A runtime is built identically from the config whether it lives
    in-process (sequential driver) or in a forked worker (parallel
    driver); everything it does between window barriers is a
    deterministic function of its config and the injected inbox.
    """

    def __init__(self, config: ShardedClusterConfig, shard: int,
                 layout: Optional[ShardLayout] = None) -> None:
        _validate_config(config)
        self.config = config
        self.shard = shard
        self.layout = layout if layout is not None else layout_for_config(config)
        self.simulator = Simulator()
        self.boundary = ShardBoundary(shard, _hub_conditions(config))
        self.cluster = Cluster(_shard_cluster_config(config, shard),
                               simulator=self.simulator)
        for replica in self.cluster.replicas:
            replica.control_layer = ShardTxnManager(shard, self.layout)
        self.boundary.attach(self.cluster.network)
        self.node_config = hub_node_config(config, self.layout)
        self.hub: Optional[SimNetwork] = None
        self.coordinator: Optional[ShardCoordinator] = None
        self.pools: List[ShardedClientPool] = []
        self.byzantine_ids: List[str] = list(self.cluster.byzantine_ids)
        if shard == HOME_SHARD:
            self._build_hub()

    def _build_hub(self) -> None:
        config = self.config
        self.hub = SimNetwork(
            self.simulator,
            conditions=_hub_conditions(config),
            faults=config.hub_faults or FaultSchedule.none(),
        )
        self.boundary.attach(self.hub)
        self.coordinator = ShardCoordinator(
            coordinator_id(), self.node_config, self.layout,
            timeout_ms=config.request_timeout_ms)
        self.hub.add_client(self.coordinator)
        if config.coordinator_behavior:
            attach_byzantine(self.hub, self.coordinator.node_id,
                             config.coordinator_behavior, config.seed)
            self.byzantine_ids.append(self.coordinator.node_id)
        for pid in config.pool_ids():
            pool = ShardedClientPool(
                node_id=pid,
                config=self.node_config,
                layout=self.layout,
                batch_source=_pool_source(config, pid),
                coordinator_id=self.coordinator.node_id,
                target_outstanding=config.client_outstanding,
                total_batches=config.total_batches,
                timeout_ms=config.request_timeout_ms,
            )
            self.pools.append(pool)
            self.hub.add_client(pool)

    # -- windowed execution ------------------------------------------------------
    @property
    def lookahead_ms(self) -> float:
        return self.boundary.lookahead_ms

    def start(self) -> WindowResult:
        """Boot every hosted node at t=0 and report the initial horizon."""
        self.cluster.start()
        if self.hub is not None:
            self.hub.start_all()
        return self._window_result()

    def window(self, edge_ms: float, inbox: Sequence[BoundaryEvent]) -> WindowResult:
        """Inject one barrier's inbox, then advance to *edge_ms*.

        The inbox must already be in canonical order
        (:func:`boundary_event_order`); injection order assigns the
        receiving simulator's tie-breaking sequence numbers, so it has to
        match across drivers.
        """
        for event in inbox:
            self.boundary.inject(event)
        self.simulator.run(until_ms=edge_ms)
        return self._window_result()

    def _window_result(self) -> WindowResult:
        done = all(pool.is_done() for pool in self.pools)
        return WindowResult(
            outbox=self.boundary.take_outbox(),
            next_event_ms=self.simulator.next_event_time(),
            pools_done=done,
            now_ms=self.simulator.now,
            processed_events=self.simulator.processed_events,
        )


def run_windows(results: List[WindowResult], window_all,
                num_runtimes: int, lookahead_ms: float,
                deadline_ms: float) -> List[WindowResult]:
    """Advance all runtimes through conservative windows until done.

    The single windowing loop shared by both drivers: given the
    :class:`WindowResult` list from ``start()`` (or a previous call) and a
    ``window_all(edge_ms, inboxes) -> results`` callback that advances
    every runtime to the window edge, it exchanges outboxes into
    per-runtime inboxes at each barrier and picks the next edge as
    ``min(horizons) + lookahead`` — where the horizons are every runtime's
    next live event plus every in-flight boundary event.  It stops when

    * every pool reported its budget complete, or
    * all runtimes are quiescent and the boundary channels are empty
      (nothing can ever happen again), or
    * the next horizon lies at or beyond *deadline_ms*.

    The completion predicate is therefore identical under the sequential
    and the parallel driver — both ask the same per-runtime questions at
    the same barriers.
    """
    while True:
        inboxes: List[List[BoundaryEvent]] = [[] for _ in range(num_runtimes)]
        for result in results:
            for event in result.outbox:
                inboxes[runtime_of(event.receiver)].append(event)
        for inbox in inboxes:
            inbox.sort(key=boundary_event_order)
        if all(result.pools_done for result in results):
            break
        horizons = [result.next_event_ms for result in results
                    if result.next_event_ms is not None]
        for inbox in inboxes:
            for event in inbox:
                horizons.append(event.deliver_at_ms)
        if not horizons:
            break
        t_min = min(horizons)
        if t_min >= deadline_ms:
            break
        edge = t_min + lookahead_ms
        if edge > deadline_ms:
            edge = deadline_ms
        results = window_all(edge, inboxes)
    return results


# -- the sharded cluster (sequential reference driver) -----------------------------

class ShardedRunView:
    """The results surface of a sharded run, shared by both drivers.

    The sequential :class:`ShardedCluster` and the parallel driver's
    :class:`~repro.fabric.parallel.ParallelShardedRun` provide ``config``,
    ``pools``, ``shard_clusters``, ``shard_processed_events`` and
    ``shard_clocks``; the totals and the summary derive from those.
    """

    @property
    def now(self) -> float:
        """Virtual time (all runtimes share each window edge)."""
        return max(self.shard_clocks)

    @property
    def processed_events(self) -> int:
        """Total events executed across every runtime's simulator."""
        return sum(self.shard_processed_events)

    def completions(self) -> List[CompletionRecord]:
        return merged_completions(self.pools)

    def result(self, window: Optional[MetricsWindow] = None,
               warmup_fraction: float = 0.1,
               metadata: Optional[Dict[str, object]] = None) -> RunResult:
        """Summarise the run, excluding an initial warm-up fraction."""
        config = self.config
        records = self.completions()
        if window is None:
            window = warmup_window(records, warmup_fraction)
        info = {
            "batch_size": config.batch_size,
            "num_shards": config.num_shards,
            "cross_shard_fraction": config.cross_shard_fraction,
        }
        info.update(metadata or {})
        protocols = [cluster.config.protocol for cluster in self.shard_clusters]
        return summarize(
            protocol=f"sharded[{'+'.join(protocols)}]",
            n=config.num_shards * config.num_replicas,
            completions=records,
            window=window,
            metadata=info,
        )


class ShardedCluster(ShardedRunView):
    """S per-shard runtimes, a coordinator and sharded client pools.

    Each shard advances on its **own** :class:`Simulator` inside a
    :class:`ShardRuntime`; the client pools and the coordinator live on a
    hub network hosted by the home runtime.  Cross-runtime traffic crosses
    the deterministic :class:`ShardBoundary`, and :meth:`run_until_done`
    advances all runtimes through the shared conservative window loop
    (:func:`run_windows`) — in-process, in shard order.  This is the
    reference implementation the multiprocessing driver
    (:mod:`repro.fabric.parallel`) must match byte for byte.
    """

    def __init__(self, config: ShardedClusterConfig) -> None:
        _validate_config(config)
        self.config = config
        self.layout = layout_for_config(config)
        self.runtimes: List[ShardRuntime] = [
            ShardRuntime(config, shard, layout=self.layout)
            for shard in range(config.num_shards)]
        home = self.runtimes[HOME_SHARD]
        self.shard_clusters: List[Cluster] = [
            runtime.cluster for runtime in self.runtimes]
        self.hub = home.hub
        self.node_config = home.node_config
        self.coordinator = home.coordinator
        self.pools = home.pools
        self.byzantine_ids: List[str] = [
            rid for runtime in self.runtimes for rid in runtime.byzantine_ids]
        self._results: Optional[List[WindowResult]] = None

    # -- introspection -----------------------------------------------------------
    @property
    def lookahead_ms(self) -> float:
        return self.runtimes[0].lookahead_ms

    @property
    def shard_processed_events(self) -> List[int]:
        """Per-runtime event counts, in shard order (home runtime first)."""
        return [runtime.simulator.processed_events
                for runtime in self.runtimes]

    @property
    def shard_clocks(self) -> List[float]:
        return [runtime.simulator.now for runtime in self.runtimes]

    # -- running -----------------------------------------------------------------
    def start(self) -> None:
        """Boot every runtime (shards, then hub nodes on the home shard)."""
        self._results = [runtime.start() for runtime in self.runtimes]

    def run_until_done(self, max_ms: float = 600_000.0) -> float:
        """Advance conservative windows until every pool is done, all
        runtimes are quiescent with empty boundary channels, or *max_ms*
        of virtual time elapsed."""
        if self._results is None:
            raise RuntimeError("call start() before run_until_done()")

        def window_all(edge_ms: float,
                       inboxes: List[List[BoundaryEvent]]) -> List[WindowResult]:
            return [runtime.window(edge_ms, inbox)
                    for runtime, inbox in zip(self.runtimes, inboxes)]

        self._results = run_windows(
            self._results, window_all, len(self.runtimes),
            self.lookahead_ms, self.now + max_ms)
        return self.now


def fingerprint_state(run) -> str:
    """Hash everything observable about a finished sharded run.

    *run* is a :class:`ShardedRunView` — a :class:`ShardedCluster` or the
    parallel driver's artifact view — read through
    ``shard_processed_events``, ``shard_clocks``, ``shard_clusters`` (each
    with ``replicas``), ``pools`` and ``coordinator``.  Both drivers fold
    the exact same state, which is what the byte-identical acceptance test
    compares.
    """
    hasher = hashlib.sha256()

    def fold(*parts: object) -> None:
        for part in parts:
            hasher.update(repr(part).encode())
            hasher.update(b"|")

    fold("events", tuple(run.shard_processed_events), tuple(run.shard_clocks))
    for shard_cluster in run.shard_clusters:
        for replica in shard_cluster.replicas:
            fold(replica.node_id, replica.crashed,
                 replica.last_executed_sequence)
            if not replica.crashed:
                fold(replica.blockchain.head.sequence,
                     replica.blockchain.head.block_hash.hex())
            manager = replica.control_layer
            if manager is not None:
                fold(sorted(manager.status.items()),
                     sorted((txn, entry[0])
                            for txn, entry in manager.accepted_decides.items()),
                     sorted(manager.rejected_decides))
    for pool in run.pools:
        fold(pool.node_id,
             [(r.batch_id, r.view, r.sequence, r.completed_at_ms)
              for r in pool.completions],
             sorted((txn, sorted(outcomes.items()))
                    for txn, outcomes in pool.xshard_outcomes.items()))
    fold(sorted((txn, entry["decision"], entry["shards"])
                for txn, entry in run.coordinator.journal.items()))
    return hasher.hexdigest()


def sharded_fingerprint(config: ShardedClusterConfig,
                        max_ms: float = 600_000.0,
                        driver: str = "sequential") -> str:
    """Run a sharded deployment and hash everything observable about it.

    Folds per-replica ledger heads and 2PC journals, pool completions and
    cross-shard outcomes, the coordinator journal and per-runtime event
    counts into one digest.  Two runs of the same config must produce the
    same fingerprint — under *either* driver (``"sequential"`` or
    ``"parallel"``): that cross-driver equality is the acceptance test of
    the parallel executor.
    """
    if driver == "parallel":
        from repro.fabric.parallel import run_parallel

        return fingerprint_state(run_parallel(config, max_ms=max_ms))
    if driver != "sequential":
        raise ValueError(f"unknown sharded driver {driver!r}")
    cluster = ShardedCluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return fingerprint_state(cluster)

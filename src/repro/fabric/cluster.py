"""Cluster builder: wires protocols, network, workload and faults together.

A :class:`Cluster` is one runnable deployment: ``n`` replicas of a chosen
protocol, one or more client pools, a simulated network with configurable
conditions and a fault schedule.  It is the programmatic entry point used
by the examples, the tests and the benchmark harness.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.authenticator import Authenticator, make_authenticators
from repro.crypto.cost import CryptoCostModel
from repro.fabric.metrics import (
    MetricsWindow,
    RunResult,
    merged_completions,
    summarize,
    warmup_window,
)
from repro.fabric.registry import ProtocolSpec, get_spec
from repro.ledger.execution import ExecutionMemo
from repro.net.byzantine import ByzantineBehavior, ByzantineSpec, make_behavior
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.protocols.base import NodeConfig
from repro.protocols.client_messages import ClientRequestMessage
from repro.protocols.epoch import apply_reconfig, make_reconfig_record
from repro.workload.clients import BatchSource, ClientPool, CompletionRecord
from repro.workload.ycsb import YcsbConfig, YcsbWorkload

#: Synthetic sender id for consensus-ordered reconfiguration records.  It
#: is not a registered network node: replies routed back to it are
#: silently dropped by the network (unknown receiver), which is exactly
#: the fate admin acknowledgements deserve in a simulation.
RECONFIG_ADMIN = "admin:reconfig"


@dataclass(frozen=True)
class ReconfigStep:
    """One scheduled membership change, ordered through consensus.

    ``add``/``remove`` are replica *indices* (resolved against the
    cluster's namespace), so plans stay namespace-agnostic: joiner
    indices at or beyond ``num_replicas`` provision never-before-seen
    replicas with fresh keys.
    """

    at_ms: float
    add: Tuple[int, ...] = ()
    remove: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ReconfigPlan:
    """A sequence of membership changes injected at their scheduled times."""

    steps: Tuple[ReconfigStep, ...] = ()


def replica_id(index: int) -> str:
    """Canonical replica identifier for *index*."""
    return f"replica:{index}"


def client_id(index: int) -> str:
    """Canonical client-pool identifier for *index*."""
    return f"client:{index}"


class CollectorPaused:
    """A deployment's context: the cyclic collector is off inside it.

    No run allocates a reference cycle, and no deployment is one once its
    root is dropped (``tests/test_collector.py`` drives every matrix cell
    and every poebench shape, drops it finished and drops a fresh one
    started, and finds ``gc.collect()`` has nothing to free after each),
    so every pass the collector would make while a deployment is built,
    started or driven walks live objects and frees none; the ``gc``
    module's documentation sanctions disabling it for such a program.
    Reference counting frees everything a run drops, and a dropped
    deployment with it.  Construction, ``start()`` and the drives of
    :class:`Cluster` and :class:`~repro.fabric.sharding.ShardedCluster`
    enter it, not :meth:`Simulator.run`: the sharded window loop calls
    ``run`` once per window per shard, and a pass would run between
    windows.

    The collector is disabled only if it was enabled, and enabled again
    on the way out, also when the region raises; a nested region leaves
    both to the outer one.  Before enabling it, the exit tenures what the
    region left alive: ``gc.freeze()`` moves every tracked object into
    the permanent generation and zeroes the young generation's count,
    ``gc.unfreeze()`` moves them all into the oldest generation.  Both are
    O(1) list splices and nothing stays frozen, so a full ``gc.collect()``
    still examines everything, but no young or middle pass walks a fresh
    or a finished deployment, and none starts on the way out.  Objects a
    caller froze stay frozen, and then nothing is tenured.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            if not gc.get_freeze_count():  # a caller's frozen set stays frozen
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def attach_byzantine(network: SimNetwork, node_id: str, behavior_name: str,
                     seed: int) -> ByzantineBehavior:
    """Make *node_id* on *network* Byzantine: its outgoing traffic is
    routed through a fresh *behavior_name* behaviour seeded with *seed*."""
    behavior = make_behavior(behavior_name)
    network.set_byzantine(node_id, behavior, seed=seed)
    return behavior


@dataclass
class ClusterConfig:
    """Parameters of one cluster deployment.

    Attributes:
        protocol: protocol key (``"poe"``, ``"pbft"``, ``"zyzzyva"``,
            ``"sbft"``, ``"hotstuff"``, ``"poe-mac"``).
        num_replicas: number of replicas ``n``.
        batch_size: transactions per consensus slot.
        num_clients: number of client pools.
        client_outstanding: batches each pool keeps in flight.
        total_batches: per-pool batch budget (``None`` = unbounded).
        zero_payload: run the paper's zero-payload configuration.
        out_of_order: allow the primary to propose out of order.
        execute_operations: really apply YCSB transactions (tests/examples)
            rather than cost-modelling execution (large benchmarks).
        use_ycsb_payload: generate real YCSB batches instead of synthetic
            cost-modelled ones.
        request_timeout_ms: client/replica timeout (paper: 3000 ms).
        checkpoint_interval: slots between checkpoints.
        conditions: network conditions (defaults to LAN).
        faults: fault schedule (defaults to none).
        byzantine: active-misbehaviour specs, one per corrupted replica:
            its outgoing traffic is routed through a
            :class:`~repro.net.byzantine.ByzantineBehavior`.  A colluding
            adversary lists up to ``f`` of them; each behaviour gets the
            tuple of every spec's replica id as its ``playbook``.  Two
            specs may not name one replica.
        reconfig: optional epoch-reconfiguration plan.  Each step injects
            a signed :class:`~repro.protocols.epoch.ReconfigRecord` into
            the ordering path at its scheduled time; joiner replicas are
            provisioned (fresh keys, registered indices) at build time and
            boot when their step fires.
        cost_model: crypto cost model (defaults to the CMAC configuration).
        seed: base RNG seed.
        namespace: prefix applied to every node id (e.g. ``"s0/"``), so
            the shards of a :class:`~repro.fabric.sharding.ShardedCluster`
            have disjoint ids: cross-shard messages are routed to their
            home runtime by that prefix, and shard 0 shares its simulator
            with the hub network.
    """

    protocol: str = "poe"
    num_replicas: int = 4
    batch_size: int = 100
    num_clients: int = 1
    client_outstanding: int = 16
    total_batches: Optional[int] = 100
    zero_payload: bool = False
    out_of_order: bool = True
    execute_operations: bool = False
    use_ycsb_payload: bool = False
    request_timeout_ms: float = 3000.0
    checkpoint_interval: int = 50
    conditions: Optional[NetworkConditions] = None
    faults: Optional[FaultSchedule] = None
    byzantine: Tuple[ByzantineSpec, ...] = ()
    reconfig: Optional[ReconfigPlan] = None
    cost_model: Optional[CryptoCostModel] = None
    ycsb: Optional[YcsbConfig] = None
    seed: int = 1
    namespace: str = ""

    def replica_ids(self) -> List[str]:
        return [self.namespace + replica_id(i) for i in range(self.num_replicas)]

    def client_ids(self) -> List[str]:
        return [self.namespace + client_id(i) for i in range(self.num_clients)]


class Cluster:
    """A fully wired deployment, ready to run.

    A dropped cluster frees itself by reference counting: nothing it
    builds is a reference cycle but one, pending events referencing the
    network that scheduled them while the network references its
    simulator, and :meth:`__del__` breaks that one by emptying the
    simulator's event queue.

    Args:
        config: the deployment parameters.
        simulator: optional externally owned simulator.  Each
            :class:`~repro.fabric.sharding.ShardRuntime` builds one
            :class:`~repro.net.simulator.Simulator` and passes it to its
            shard's cluster; on the home shard the hub network (client
            pools, 2PC coordinator) advances on the same one.  Defaults
            to a private simulator.  The rule for a caller's simulator:
            the cluster drives it exactly as a private one for as long as
            the caller holds the cluster, and dropping the cluster empties
            its event queue (clock and event count stay), so a caller
            holds the cluster for as long as it runs the simulator.
        authenticators: optional pre-provisioned authenticator map.  The
            trusted setup (:func:`make_authenticators`) is deterministic
            in the config, pair secrets included (derived on first use,
            to the same bytes in every cluster), so callers that build
            many identical clusters can provision once and share: the
            model checker replays one deployment hundreds of thousands
            of times, and sharing saves it about an eighth of its run.
            Defaults to running the setup per cluster.
    """

    #: Bounded re-injections per planned reconfiguration record (see
    #: :meth:`_schedule_reconfig`).
    RECONFIG_RETRANSMITS = 3

    #: Virtual time :meth:`run_until_done` runs between completion checks.
    RUN_CHUNK_MS = 1_000.0

    def __init__(self, config: ClusterConfig,
                 simulator: Optional[Simulator] = None,
                 authenticators: Optional[Dict[str, Authenticator]] = None) -> None:
        with CollectorPaused():
            self.config = config
            self.spec: ProtocolSpec = get_spec(config.protocol)
            self.simulator = simulator if simulator is not None else Simulator()
            #: The boot membership, built once per cluster.
            self._boot_ids: Tuple[str, ...] = tuple(config.replica_ids())
            self.network = SimNetwork(
                self.simulator,
                conditions=config.conditions or NetworkConditions.lan(seed=config.seed),
                faults=config.faults,
            )
            self.node_config = NodeConfig(
                replica_ids=list(self._boot_ids),
                batch_size=config.batch_size,
                request_timeout_ms=config.request_timeout_ms,
                checkpoint_interval=config.checkpoint_interval,
                execute_operations=config.execute_operations,
                out_of_order=config.out_of_order,
                zero_payload=config.zero_payload,
            )
            #: Reconfiguration bookkeeping (empty without a plan): scheduled
            #: records, joiner ids with the epoch and time they join at.
            self._reconfig_records: List[Tuple[float, object]] = []
            self._joiner_ids: List[str] = []
            self._join_epochs: Dict[str, int] = {}
            self._join_times: Dict[str, float] = {}
            threshold = self._plan_reconfig()
            #: Every replica the deployment builds, boot members first.
            self._replica_order = [*self._boot_ids, *self._joiner_ids]
            if authenticators is None:
                authenticators = make_authenticators(
                    replica_ids=self._replica_order,
                    client_ids=config.client_ids(),
                    threshold=threshold,
                    seed=f"cluster-seed-{config.seed}".encode(),
                )
            self.authenticators: Dict[str, Authenticator] = authenticators
            self.replicas = []
            self.pools: List[ClientPool] = []
            self._build_replicas()
            self._build_clients()
            self._attach_byzantine()
            self._schedule_reconfig()

    def __del__(self) -> None:
        simulator = getattr(self, "simulator", None)
        if simulator is not None:
            simulator._queue.clear()

    # ------------------------------------------------------------------ build
    def _plan_reconfig(self) -> Optional[int]:
        """Resolve the reconfiguration plan into records and joiners.

        Returns the signing threshold the shared setup must use: the
        minimum ``nf`` across every planned epoch, so one threshold scheme
        (sized for the full timeline membership) serves them all — the
        simulator's stand-in for proactive threshold re-keying.  ``None``
        without a plan keeps the fixed-membership default.
        """
        plan = self.config.reconfig
        if plan is None or not plan.steps:
            return None
        namespace = self.config.namespace
        members = self._boot_ids
        nf_min = len(members) - (len(members) - 1) // 3
        boot = set(members)
        for step_index, step in enumerate(plan.steps):
            add_ids = tuple(namespace + replica_id(i) for i in step.add)
            remove_ids = tuple(namespace + replica_id(i) for i in step.remove)
            record = make_reconfig_record(
                new_epoch=step_index + 1, add=add_ids, remove=remove_ids,
                created_at_ms=step.at_ms,
            )
            self._reconfig_records.append((step.at_ms, record))
            for rid in add_ids:
                if rid not in boot and rid not in self._join_epochs:
                    self._joiner_ids.append(rid)
                    self._join_epochs[rid] = step_index + 1
                    self._join_times[rid] = step.at_ms
            members = apply_reconfig(members, add_ids, remove_ids)
            nf_min = min(nf_min, len(members) - (len(members) - 1) // 3)
        for rid in self._joiner_ids:
            self.node_config.register_replica(rid)
        return nf_min

    def _schedule_reconfig(self) -> None:
        """Inject each planned record into the ordering path at its time.

        The record is delivered to every epoch-0 replica as a
        retransmitted client request: backups forward it to the primary
        and arm their progress timers, so the record survives a dark or
        replaced primary like any other client batch.  Unlike a real
        client the admin has no reactive timeout loop, so each record is
        re-injected a bounded number of times — the ordering path can
        consume a batch into a round that never certifies (an orphaned
        HotStuff round, a proposal lost to a view change) and only a
        retransmission makes it proposable again.  Replicas that already
        ordered the record answer with their cached reply, which the
        network drops (unknown receiver).
        """
        if not self._reconfig_records:
            return
        size_bytes = self.node_config.proposal_size_bytes(1)
        spacing = max(10.0, self.config.request_timeout_ms / 2.0)
        for at_ms, record in self._reconfig_records:
            for attempt in range(1 + self.RECONFIG_RETRANSMITS):
                for rid in self._boot_ids:
                    self.network.inject(
                        RECONFIG_ADMIN, rid,
                        ClientRequestMessage(batch=record,
                                             reply_to=RECONFIG_ADMIN,
                                             retransmission=True,
                                             size_bytes=size_bytes),
                        delay_ms=at_ms + attempt * spacing,
                    )

    def _initial_table(self) -> Optional[Dict[str, str]]:
        if not self.config.execute_operations:
            return None
        ycsb_config = self.config.ycsb or YcsbConfig.small(seed=self.config.seed)
        return YcsbWorkload(ycsb_config).initial_table()

    def _build_replicas(self) -> None:
        cost_model = self.config.cost_model or CryptoCostModel.cmac()
        initial_table = self._initial_table()
        for rid in self._replica_order:
            replica = self.spec.replica_cls(
                node_id=rid,
                config=self.node_config,
                authenticator=self.authenticators[rid],
                cost_model=cost_model,
                initial_table=dict(initial_table) if initial_table else None,
                **self.spec.replica_kwargs,
            )
            join_epoch = self._join_epochs.get(rid)
            if join_epoch is not None:
                # Joiners are built (and keyed) now but stay dormant until
                # their step fires: a crash window ending at the join time
                # makes the network boot them through the churn machinery,
                # and ``join_epoch`` keeps them passive (no primary
                # suspicion) while they bootstrap via state transfer.
                replica.join_epoch = join_epoch
                self.network.own_faults().add_crash(
                    rid, at_ms=0.0, until_ms=self._join_times[rid])
            self.replicas.append(replica)
            self.network.add_replica(replica)
        if self.config.execute_operations:
            # Every replica starts from an equal table, so they execute
            # through one memo: a batch is applied once per table.
            memo = ExecutionMemo()
            for replica in self.replicas:
                replica.executor.share(memo)

    def _attach_byzantine(self) -> None:
        replica_order = self._replica_order
        indices: List[int] = []
        for spec in self.config.byzantine:
            if not 0 <= spec.replica_index < len(replica_order):
                raise ValueError(
                    f"{spec}: replica_index must name one of the "
                    f"{len(replica_order)} replicas (0..{len(replica_order) - 1})")
            if spec.replica_index in indices:
                raise ValueError(f"{spec}: replica {spec.replica_index} already "
                                 f"has a byzantine spec (one per replica)")
            indices.append(spec.replica_index)
        self.byzantine_ids: List[str] = [replica_order[index] for index in indices]
        # The playbook a cabal shares: every Byzantine replica id, copied so
        # that editing the audit's ``byzantine_ids`` leaves the cabal alone.
        playbook = tuple(self.byzantine_ids)
        for offset, spec in enumerate(self.config.byzantine):
            # The first spec keeps the historical seed so single-adversary
            # rows reproduce byte-identically; the others get distinct streams.
            seed = self.config.seed if offset == 0 \
                else self.config.seed + 7919 * offset
            behavior = attach_byzantine(self.network, self.byzantine_ids[offset],
                                        spec.behavior, seed)
            behavior.playbook = playbook

    def _batch_source_for(self, pool_id: str) -> Optional[BatchSource]:
        if not self.config.use_ycsb_payload:
            return None  # the pool falls back to synthetic batches
        ycsb_config = self.config.ycsb or YcsbConfig.small(seed=self.config.seed)
        workload = YcsbWorkload(
            ycsb_config, client_id=pool_id,
            authenticator=self.authenticators.get(pool_id),
        )
        batch_size = self.config.batch_size

        def source(index: int, now_ms: float) -> object:
            # Captures the batch size, not the cluster: the pool holds the
            # source, and the cluster holds the pool.
            return workload.next_batch(batch_size, created_at_ms=now_ms,
                                       reply_to=pool_id)

        return source

    def _build_clients(self) -> None:
        for pool_id in self.config.client_ids():
            pool = self.spec.client_pool_cls(
                node_id=pool_id,
                config=self.node_config,
                batch_source=self._batch_source_for(pool_id),
                target_outstanding=self.config.client_outstanding,
                total_batches=self.config.total_batches,
                timeout_ms=self.config.request_timeout_ms,
            )
            self.pools.append(pool)
            self.network.add_client(pool)

    # ------------------------------------------------------------------ running
    def start(self) -> None:
        """Boot every node (idempotent only if called once)."""
        with CollectorPaused():
            self.network.start_all()

    def run_for(self, duration_ms: float) -> float:
        """Run the cluster for *duration_ms* of virtual time."""
        with CollectorPaused():
            return self.network.run(until_ms=self.simulator.now + duration_ms)

    def run_until_done(self, max_ms: float = 600_000.0) -> float:
        """Run until every client pool completed its batch budget.

        Completion is only re-checked after a chunk that actually processed
        events — an idle chunk cannot have completed a batch, so polling
        ``is_done`` across every pool again would be wasted work.

        Returns the virtual time at which the run stopped (either because
        all pools finished or because *max_ms* was reached).
        """
        deadline = self.simulator.now + max_ms
        check_completion = True
        with CollectorPaused():
            while self.simulator.now < deadline:
                if check_completion and all(pool.is_done() for pool in self.pools):
                    break
                next_stop = min(deadline, self.simulator.now + self.RUN_CHUNK_MS)
                before = self.simulator.processed_events
                self.network.run(until_ms=next_stop)
                check_completion = self.simulator.processed_events != before
                if (not check_completion
                        and self.simulator.now >= next_stop >= deadline):
                    break
        return self.simulator.now

    # ------------------------------------------------------------------ results
    def completions(self) -> List[CompletionRecord]:
        return merged_completions(self.pools)

    def result(self, window: Optional[MetricsWindow] = None,
               warmup_fraction: float = 0.1,
               metadata: Optional[Dict[str, object]] = None) -> RunResult:
        """Summarise the run, excluding an initial warm-up fraction."""
        records = self.completions()
        if window is None:
            window = warmup_window(records, warmup_fraction)
        info = {
            "batch_size": self.config.batch_size,
            "zero_payload": self.config.zero_payload,
            "out_of_order": self.config.out_of_order,
        }
        info.update(metadata or {})
        return summarize(
            protocol=self.spec.name,
            n=self.config.num_replicas,
            completions=records,
            window=window,
            metadata=info,
        )

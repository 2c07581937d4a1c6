"""Client populations that drive the replicated system.

The paper deploys up to 320 k clients whose only role is to keep the
primary's pipeline saturated and to collect matching replies.  The
simulator reproduces that with a :class:`ClientPool`: a single node that
keeps a configurable number of request batches outstanding, retransmits
on timeout (which is what lets replicas detect a faulty primary), counts
matching replies against a protocol-specific quorum and records
completion latencies for the metrics module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.protocols.base import ClientNode, NodeConfig
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.protocols.quorum import VoteSet
from repro.workload.transactions import RequestBatch, make_synthetic_batch
from repro.workload.xshard import (
    DECIDE_PHASES,
    PREPARE,
    PROBE,
    CoordAck,
    CoordSubmit,
    CrossShardPlan,
    ShardedBatchSource,
    ShardLayout,
    TwoPhaseDriver,
    TwoPhaseRound,
    parse_control_batch_id,
)

#: Factory signature: (batch_index, now_ms) -> RequestBatch.
BatchSource = Callable[[int, float], RequestBatch]

#: The client completion rules: matching replies that complete a batch in
#: a group of ``n`` replicas tolerating ``f`` faults.  ``nf`` is PoE's,
#: ``f+1`` PBFT's and HotStuff's, ``n`` Zyzzyva's fast path, ``1`` SBFT's
#: single aggregated reply.
QUORUM_RULES: Dict[str, Callable[[int, int], int]] = {
    "nf": lambda n, f: n - f,
    "f+1": lambda n, f: f + 1,
    "n": lambda n, f: n,
    "1": lambda n, f: 1,
}


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One completed batch, as observed by the client pool."""

    batch_id: str
    num_txns: int
    submitted_at_ms: float
    completed_at_ms: float
    view: int
    sequence: int

    @property
    def latency_ms(self) -> float:
        return self.completed_at_ms - self.submitted_at_ms


@dataclass(slots=True)
class _PendingBatch:
    """Book-keeping for one outstanding batch.

    ``replies`` maps each distinct reply key to an aggregated voter
    bitset indexed by replica (:class:`~repro.protocols.quorum.VoteSet`),
    so counting one of the n replies per batch is a dict lookup plus
    integer arithmetic — no per-reply set/dict churn.
    """

    batch: RequestBatch
    submitted_at_ms: float
    replies: Dict[Tuple, VoteSet] = field(default_factory=dict)
    retransmissions: int = 0
    #: Owning shard (a single group is shard 0).
    shard: int = 0


def synthetic_batch_source(client_id: str, batch_size: int) -> BatchSource:
    """Batch source producing cost-modelled batches of *batch_size*."""

    def factory(index: int, now_ms: float) -> RequestBatch:
        return make_synthetic_batch(
            batch_id=f"{client_id}:batch:{index}", client_id=client_id,
            size=batch_size, created_at_ms=now_ms,
        )

    return factory


class _PoolBase(ClientNode):
    """What every client pool does: keep a pipeline of requests full.

    Draws items from ``batch_source`` until ``target_outstanding`` are in
    flight or ``total_batches`` were submitted, retires each exactly once
    into ``completions``, and re-arms request timers with exponential
    back-off.  Subclasses say how an item is submitted (:meth:`_submit`),
    which replies complete it, and what a request timeout does
    (:meth:`on_request_timeout`).
    """

    def __init__(self, node_id: str, config: NodeConfig, batch_source,
                 target_outstanding: int, total_batches: Optional[int]) -> None:
        super().__init__(node_id, config)
        self.batch_source = batch_source
        self.target_outstanding = target_outstanding
        self.total_batches = total_batches
        self.timeout_ms = config.request_timeout_ms
        self.completions: List[CompletionRecord] = []
        self._pending: Dict[str, object] = {}
        self._submitted = 0
        # Insertion-ordered dedup window for completed request ids.  A
        # request whose pending entry is gone can never complete again, so
        # only recently-completed ids need to be remembered; the window
        # keeps the dedup structure bounded on unbounded (soak) runs.
        self._completed_ids: Dict[str, None] = {}
        self._completed_retention = 4 * target_outstanding + 64

    # -- inspection -------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def completed_batches(self) -> int:
        return len(self.completions)

    @property
    def completed_txns(self) -> int:
        return sum(record.num_txns for record in self.completions)

    def is_done(self) -> bool:
        """Has the pool completed every batch it was asked to submit?"""
        return self.total_batches is not None and len(self.completions) >= self.total_batches

    # -- lifecycle --------------------------------------------------------------
    def on_start(self, now_ms: float) -> None:
        self._fill_pipeline(now_ms)

    def _fill_pipeline(self, now_ms: float) -> None:
        while len(self._pending) < self.target_outstanding:
            if self.total_batches is not None and self._submitted >= self.total_batches:
                break
            item = self.batch_source(self._submitted, now_ms)
            self._submitted += 1
            self._submit(item, now_ms)

    def _submit(self, item, now_ms: float) -> None:
        """Register *item* in ``_pending``, send it and arm its timer."""
        raise NotImplementedError

    def _request(self, batch: RequestBatch, retransmission: bool) -> ClientRequestMessage:
        return ClientRequestMessage(
            batch=batch,
            reply_to=self.node_id,
            retransmission=retransmission,
            size_bytes=self.config.proposal_size_bytes(len(batch)),
        )

    def _retire(self, key: str, num_txns: int, submitted_at_ms: float,
                now_ms: float, view: int, sequence: int) -> bool:
        """Complete request *key* at most once; ``False`` for a duplicate."""
        if key in self._completed_ids:
            return False
        self._completed_ids[key] = None
        while len(self._completed_ids) > self._completed_retention:
            del self._completed_ids[next(iter(self._completed_ids))]
        self._pending.pop(key, None)
        self.cancel_timer(f"request:{key}")
        self.completions.append(CompletionRecord(
            batch_id=key,
            num_txns=num_txns,
            submitted_at_ms=submitted_at_ms,
            completed_at_ms=now_ms,
            view=view,
            sequence=sequence,
        ))
        return True

    # -- timeouts ----------------------------------------------------------------
    def on_timer(self, name: str, payload, now_ms: float) -> None:
        if not name.startswith("request:"):
            return
        pending = self._pending.get(payload)
        if pending is not None:
            self.on_request_timeout(pending, now_ms)

    def on_request_timeout(self, pending, now_ms: float) -> None:
        """Retransmit *pending* and :meth:`_rearm` its timer."""
        raise NotImplementedError

    def _rearm(self, key: str, base_ms: float, retransmissions: int) -> None:
        self.set_timer(f"request:{key}",
                       base_ms * (2 ** min(retransmissions, self.BACKOFF_CAP)), payload=key)


class ClientPool(_PoolBase):
    """Open/closed-loop client population submitting batches to the primary.

    A protocol's pool is a subclass naming its completion rule
    (``QUORUM_RULE``, a key of :data:`QUORUM_RULES`) and whether requests
    go to every replica instead of only the current primary
    (``BROADCAST_REQUESTS`` — rotating-leader protocols such as HotStuff,
    where any replica may end up proposing the batch).

    Args:
        node_id: identifier of the pool.
        config: the shared deployment configuration; its
            ``request_timeout_ms`` is the retransmission timeout (3 s in
            the paper).
        batch_source: factory producing the next batch to submit.
        target_outstanding: batches kept in flight concurrently; 1 gives
            the closed-loop behaviour of the out-of-order-disabled
            experiments (Figures 9(k), 9(l)), where the paper requires
            "each client to only send its request when it has accepted a
            response for its previous query".
        total_batches: stop submitting after this many completions
            (``None`` = unbounded, for timed runs).

    ``completion_quorum`` is the rule applied to the boot membership;
    :meth:`quorum_for_sequence` applies it to the epoch that governs a
    reply's sequence, so a batch committed under a grown (or shrunk) epoch
    is completed against that epoch's quorum.
    """

    QUORUM_RULE = "nf"
    BROADCAST_REQUESTS = False
    #: The per-request record (Zyzzyva's adds its second phase's state).
    PENDING_RECORD = _PendingBatch

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        batch_source: Optional[BatchSource] = None,
        target_outstanding: int = 8,
        total_batches: Optional[int] = None,
    ) -> None:
        super().__init__(
            node_id, config,
            batch_source or synthetic_batch_source(node_id, config.batch_size),
            target_outstanding, total_batches)
        self.completion_quorum = QUORUM_RULES[self.QUORUM_RULE](config.n, config.f)
        self.broadcast_requests = self.BROADCAST_REQUESTS
        self.current_view = 0
        self._view_reports: Dict[str, int] = {}  # see report_view
        # Reply voters resolve to replica indices through the shared
        # membership map; replies from senders outside the membership
        # still count via the VoteSet overflow path.
        self._replica_index = config.replica_index_map

    def _submit(self, batch: RequestBatch, now_ms: float) -> None:
        self._pending[batch.batch_id] = self.PENDING_RECORD(
            batch=batch, submitted_at_ms=now_ms)
        self._send_request(batch, now_ms, retransmission=False)
        self.set_timer(f"request:{batch.batch_id}", self.timeout_ms, payload=batch.batch_id)

    def _send_request(self, batch: RequestBatch, now_ms: float,
                      retransmission: bool) -> None:
        message = self._request(batch, retransmission)
        if retransmission or self.broadcast_requests:
            # The paper: a client that gets no timely response broadcasts
            # its request to all replicas, which forward it to the primary.
            self.broadcast(message)
        else:
            # Best-effort latest-epoch primary; a stale guess is repaired
            # by the retransmission broadcast like any other dark primary.
            config = self.config
            self.send(config.primary_of_view(self.current_view, config.latest_epoch),
                      message)

    # -- replies -----------------------------------------------------------------
    def on_message(self, sender: str, message, now_ms: float) -> None:
        if not isinstance(message, ClientReplyMessage):
            self.on_other_message(sender, message, now_ms)
            return
        pending = self._pending.get(message.batch_id)
        if pending is None:
            return
        # message.matching_key(), in this frame.
        key = (message.batch_id, message.view, message.sequence, message.result_digest)
        voters = pending.replies.get(key)
        if voters is None:
            voters = pending.replies[key] = VoteSet(self._replica_index)
        # Reply identity is the transport-level sender: counting the claimed
        # ``message.replica_id`` would let one Byzantine replica fabricate a
        # whole quorum of matching INFORMs under forged identities.
        voters.add(sender)
        if message.view > self.current_view:
            self.report_view(sender, message.view)
        # Kept fast path, one attribute read per reply: until an epoch is
        # registered quorum_for_sequence() answers completion_quorum, so
        # ask it only after a reconfiguration.
        if voters.count >= (self.quorum_for_sequence(message.sequence)
                            if self.config.reconfigured else self.completion_quorum):
            self._complete(message, pending, now_ms)

    def report_view(self, sender: str, view: int) -> None:
        """Adopt the highest view ``f + 1`` replicas replied from or above
        (one is correct: a lone Byzantine reply cannot redirect the pool).
        A pool completing on one reply follows it: SBFT's executor sends the
        only, certified, reply, so ``f + 1`` never come."""
        reports = self._view_reports
        reports[sender] = max(view, reports.get(sender, view))
        needed = (1 if self.completion_quorum == 1
                  else self.config.f_of(self.config.latest_epoch) + 1)
        if len(reports) >= needed:
            self.current_view = sorted(reports.values())[-needed]
            self._view_reports = {replica: reported for replica, reported
                                  in reports.items() if reported > self.current_view}

    def quorum_for_sequence(self, sequence: int) -> int:
        """The completion quorum for a reply certified at *sequence*: the
        class's rule applied to the epoch that governs it, so a batch
        committed under a grown (or shrunk) epoch is completed against that
        epoch's quorum."""
        config = self.config
        epoch = config.epoch_of_sequence(sequence)
        return QUORUM_RULES[self.QUORUM_RULE](config.n_of(epoch), config.f_of(epoch))

    def on_other_message(self, sender: str, message, now_ms: float) -> None:
        """Hook for protocol-specific client messages (default: ignore)."""

    def _complete(self, reply: ClientReplyMessage, pending: _PendingBatch,
                  now_ms: float) -> None:
        if self._retire(reply.batch_id, len(pending.batch), pending.submitted_at_ms,
                        now_ms, reply.view, reply.sequence):
            self._fill_pipeline(now_ms)

    # -- timeouts ----------------------------------------------------------------
    def on_request_timeout(self, pending: _PendingBatch, now_ms: float) -> None:
        """Default timeout behaviour: broadcast the request to all replicas."""
        pending.retransmissions += 1
        self._send_request(pending.batch, now_ms, retransmission=True)
        self._rearm(pending.batch.batch_id, self.timeout_ms, pending.retransmissions)


@dataclass(slots=True)
class _PendingXShard(TwoPhaseRound):
    """One outstanding cross-shard transaction.

    Besides the round's own modes, ``mode`` is ``"coord"`` while the
    transaction is delegated to the coordinator.
    """

    #: shard -> (view, sequence) of its terminal decide quorum.
    decided: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    rejected_seen: bool = False


class ShardedClientPool(TwoPhaseDriver, _PoolBase):
    """Client pool for a sharded deployment.

    Single-shard batches are routed to the owning shard's primary and
    completed against that shard's reply quorum.  Cross-shard plans are
    handed to the shard coordinator for two-phase commit; the decide
    records carry this pool as ``reply_to``, so the pool counts decide
    replies per touched shard and completes the transaction only once
    **every** shard has a quorum-backed terminal outcome.

    The pool is also the 2PC fallback driver.  If a transaction's timer
    fires while the coordinator is responsible for it, the pool presumes
    the coordinator dead: it PROBEs every touched shard (which marks
    still-unprepared shards *refused* — presumed abort), derives the only
    decision consistent with the probe certificates, and writes the
    certified decide records itself.  From then on the pool self-drives
    the prepare phase for its subsequent cross-shard transactions, through
    the same :class:`~repro.workload.xshard.TwoPhaseDriver` round the
    coordinator runs.

    Args:
        node_id: identifier of the pool.
        config: deployment-wide node configuration (sizes, timeouts).
        layout: shard membership and quorum rules.
        batch_source: factory producing ``SingleShardBatch`` or
            ``CrossShardPlan`` items.
        coordinator_id: node id of the shard coordinator.
    """

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        layout: ShardLayout,
        batch_source: ShardedBatchSource,
        coordinator_id: str,
        target_outstanding: int = 8,
        total_batches: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, config, layout, batch_source=batch_source,
                         target_outstanding=target_outstanding,
                         total_batches=total_batches)
        # A delegated 2PC needs two consensus rounds (prepare, decide), so
        # the pool gives the coordinator twice the single-shard budget
        # before presuming it dead and probing.
        self.xshard_timeout_ms = 2.0 * self.timeout_ms
        self.coordinator_id = coordinator_id
        self.coordinator_suspect = False
        #: txn -> {shard: terminal outcome} as observed via reply quorums.
        self.xshard_outcomes: Dict[str, Dict[int, str]] = {}
        #: txn -> CrossShardPlan, for the safety auditor.
        self.xshard_plans: Dict[str, CrossShardPlan] = {}

    def _submit(self, item, now_ms: float) -> None:
        if isinstance(item, CrossShardPlan):
            self._submit_xshard(item, now_ms)
            return
        batch = item.batch
        self._pending[batch.batch_id] = _PendingBatch(
            batch=batch, submitted_at_ms=now_ms, shard=item.shard)
        self.route(item.shard, self._request(batch, False), False)
        self.set_timer(f"request:{batch.batch_id}", self.timeout_ms,
                       payload=batch.batch_id)

    # -- cross-shard path -------------------------------------------------------
    def _submit_xshard(self, plan: CrossShardPlan, now_ms: float) -> None:
        self.xshard_plans[plan.txn] = plan
        pending = _PendingXShard(plan=plan, submitted_at_ms=now_ms, mode="coord")
        self._pending[plan.txn] = pending
        if self.coordinator_suspect:
            self._begin_votes(pending, PREPARE, now_ms)
        else:
            self.send(self.coordinator_id,
                      CoordSubmit(plan=plan, reply_to=self.node_id))
        self.set_timer(f"request:{plan.txn}", self.xshard_timeout_ms,
                       payload=plan.txn)

    def _begin_votes(self, pending: _PendingXShard, phase: str,
                     now_ms: float) -> None:
        """Open a fresh PREPARE or PROBE round for *pending*."""
        pending.mode = phase
        pending.phase_results = {}
        # Probes always go to every member: the reason we are probing is
        # that somebody (coordinator or shard primary) went silent.
        self.send_phase(pending, now_ms, self.node_id,
                        retransmission=phase == PROBE)

    # -- replies -----------------------------------------------------------------
    def on_message(self, sender: str, message, now_ms: float) -> None:
        if not isinstance(message, ClientReplyMessage):
            return
        pending = self._pending.get(message.batch_id)
        if isinstance(pending, _PendingBatch):
            voters = self.count_reply(pending.replies, sender, message, pending.shard)
            if (voters is not None
                    and self._retire(message.batch_id, len(pending.batch),
                                     pending.submitted_at_ms, now_ms,
                                     message.view, message.sequence)):
                self._fill_pipeline(now_ms)
            return
        parsed = parse_control_batch_id(message.batch_id)
        if parsed is None:
            return
        txn, phase, shard = parsed
        pending = self._pending.get(txn)
        if not (isinstance(pending, _PendingXShard)
                and 0 <= shard < self.layout.num_shards):
            return
        counted = self.count_control_reply(pending, sender, message, phase, shard)
        if counted is None:
            return
        outcome, voters = counted
        if phase in DECIDE_PHASES:
            self._on_decide_quorum(pending, shard, outcome, message, voters, now_ms)
        # Only count votes for the round the pool is currently running, so
        # a late prepare quorum cannot contaminate a probe round.
        elif pending.mode == phase and self.record_vote(pending, shard, outcome, voters):
            self.send_phase(pending, now_ms, self.node_id, retransmission=False)

    def _on_decide_quorum(self, pending: _PendingXShard, shard: int,
                          outcome: str, message, voters: VoteSet,
                          now_ms: float) -> None:
        if outcome in ("committed", "aborted"):
            if shard in pending.decided:
                return
            pending.decided[shard] = (message.view, message.sequence)
            pending.decided_claims[shard] = (outcome, tuple(sorted(voters)))
            if all(s in pending.decided for s in pending.plan.shards):
                self._complete_xshard(pending, now_ms)
        elif outcome == "rejected" and not pending.rejected_seen:
            # A quorum of the shard refused the decide record's certificate.
            # Whoever wrote that record cannot be trusted; re-derive the
            # decision from the shards themselves.
            pending.rejected_seen = True
            self.coordinator_suspect = True
            self._begin_votes(pending, PROBE, now_ms)

    def _complete_xshard(self, pending: _PendingXShard, now_ms: float) -> None:
        plan = pending.plan
        view, sequence = pending.decided[plan.shards[0]]
        # Aborted transactions count as completed work too: the 2PC reached
        # a durable decision on every shard, which is what the client was
        # waiting for.  The outcome map keeps commits and aborts apart.
        if not self._retire(plan.txn, plan.logical_size, pending.submitted_at_ms,
                            now_ms, view, sequence):
            return
        self.xshard_outcomes[plan.txn] = {
            shard: vote[0] for shard, vote in pending.decided_claims.items()}
        self.send(self.coordinator_id, CoordAck(txn=plan.txn))
        self._fill_pipeline(now_ms)

    # -- timeouts ----------------------------------------------------------------
    def on_request_timeout(self, pending, now_ms: float) -> None:
        pending.retransmissions += 1
        if isinstance(pending, _PendingBatch):
            self.route(pending.shard, self._request(pending.batch, True), True)
            self._rearm(pending.batch.batch_id, self.timeout_ms,
                        pending.retransmissions)
            return
        if pending.mode == "coord":
            # The coordinator had two full timeouts to decide; presume it
            # dead, probe the shards, and self-drive from here on.
            self.coordinator_suspect = True
            self._begin_votes(pending, PROBE, now_ms)
        else:
            self.send_phase(pending, now_ms, self.node_id, retransmission=True)
        self._rearm(pending.plan.txn, self.xshard_timeout_ms, pending.retransmissions)

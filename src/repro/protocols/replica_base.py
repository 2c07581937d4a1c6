"""Shared replica machinery for every BFT protocol in this repository.

PoE and the four baselines share the same replica skeleton, which mirrors
RESILIENTDB's pipeline (paper, Figure 6):

* client requests arrive as batches and are queued, as they came, for
  proposal by the primary;
* the protocol-specific consensus logic decides when a slot *commits*
  locally (for PoE: view-commits; for PBFT: commits; for Zyzzyva:
  speculatively orders);
* committed slots are executed strictly in sequence order against the
  replicated key-value store, blocks are appended to the ledger, and
  replies are sent to clients;
* periodic checkpoints make state durable and garbage-collect undo logs
  (one vote tally per ``(sequence, digest)`` in the tracker, one
  ``BoundaryState`` per boundary here — see :mod:`~repro.protocols.checkpoint`);
* a per-request progress timer lets backups detect a faulty primary.

Concrete protocols implement :meth:`create_proposal` (primary side) and
map their consensus messages to handlers in ``MESSAGE_HANDLERS``.  The
four leader-based ones do so on top of
:class:`~repro.protocols.recovery.PrimaryBackupReplica`, which adds the
slot table, proposal admission, slot pruning and the view change;
HotStuff, with a leader per round, builds on this class directly.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.ledger.blockchain import Blockchain
from repro.ledger.execution import ExecutedBatch, SpeculativeExecutor
from repro.ledger.store import KeyValueStore, table_digest
from repro.protocols.base import (
    BASE_MESSAGE_SIZE, ClientNode, Message, NodeConfig, ProtocolNode, fault_bound,
)
from repro.crypto.hashing import digest
from repro.protocols.checkpoint import (
    BoundaryState,
    CheckpointMessage,
    CheckpointTracker,
    StateTransferRequest,
    StateTransferResponse,
    prune_to_last,
)
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.protocols.epoch import (
    RECONFIG_PHASE,
    EpochEntry,
    ReconfigRecord,
    activation_boundary,
    apply_reconfig,
    genesis_entry,
    reconfig_record_valid,
)
from repro.protocols.quorum import VoteSet
from repro.workload.transactions import RequestBatch


@dataclass(slots=True)
class CommittedSlot:
    """A consensus slot that is ready for in-order execution."""

    sequence: int
    view: int
    batch: RequestBatch
    proof: object = None
    speculative: bool = False


class BatchingReplica(ProtocolNode, abc.ABC):
    """Base class implementing batching, execution, replies and checkpoints.

    Message dispatch is table-driven: every replica class declares a
    ``MESSAGE_HANDLERS`` mapping from message type to handler-method name.
    ``__init_subclass__`` merges the tables along the MRO once per class,
    and each instance resolves the handler functions once at construction
    (its ``_dispatch``), so routing one message is a single dict lookup on
    its exact type.  A message of a type the table does not name is ignored.
    """

    #: Message-type -> handler-method-name table.  Concrete protocols extend
    #: this with their consensus messages; subclass entries override base
    #: entries for the same message type.
    MESSAGE_HANDLERS: Dict[type, str] = {
        ClientRequestMessage: "handle_client_request",
        CheckpointMessage: "handle_checkpoint_message",
        StateTransferRequest: "handle_state_transfer_request",
        StateTransferResponse: "handle_state_transfer_response",
    }

    _DISPATCH_TABLE: Dict[type, str] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        merged: Dict[type, str] = {}
        for base in reversed(cls.__mro__):
            table = base.__dict__.get("MESSAGE_HANDLERS")
            if table:
                merged.update(table)
        cls._DISPATCH_TABLE = merged

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        authenticator: Authenticator,
        cost_model: Optional[CryptoCostModel] = None,
        initial_table: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(node_id, config, authenticator, cost_model)
        n = config.n  # a property: read once
        f = fault_bound(n)
        self.view = 0
        self.store = KeyValueStore(initial_table)
        self.blockchain = Blockchain(initial_primary=config.replica_ids[0])
        self.executor = SpeculativeExecutor(
            self.store, self.blockchain, apply_operations=config.execute_operations
        )
        self.checkpoints = CheckpointTracker(quorum=2 * f + 1,
                                             index_map=config.replica_index_map)
        self.next_sequence = 0
        self.view_change_in_progress = False
        #: Cross-shard 2PC hook: a sharded cluster installs a
        #: ``ShardTxnManager`` here; slots carrying control batches then
        #: execute through it (certificate validation before any state
        #: change) instead of the plain executor.  ``None`` — the
        #: single-group default — keeps the execution path unchanged.
        self.control_layer = None
        self._batch_queue: Deque[RequestBatch] = deque()
        self._committed: Dict[int, CommittedSlot] = {}
        self._replied: Dict[str, ClientReplyMessage] = {}
        #: Batch length -> reply size: one int per length, not one per
        #: reply that ``_replied`` then keeps (see :meth:`send_replies`).
        self._reply_sizes: Dict[int, int] = {}
        self._reply_targets: Dict[str, str] = {}
        self._progress_timers: Set[str] = set()
        self._forwarded_requests: Dict[str, ClientRequestMessage] = {}
        self._seen_batch_ids: Set[str] = set()
        #: batch_id -> (executed sequence, executed-at ms), so reply/dedup
        #: bookkeeping can be garbage-collected once the batch sinks far
        #: enough below the stable checkpoint *and* out of the client
        #: retransmission window (see :meth:`on_stable_checkpoint`).  Holds
        #: every id ``_replied`` holds: a reply follows the execution that
        #: writes here, and a rollback or that collection drops both.
        self._batch_sequence: Dict[str, Tuple[int, float]] = {}
        #: No entry of ``_batch_sequence`` was executed before this (the
        #: oldest survivor of the last scan; time only moves forward): a
        #: stable checkpoint less than a retention window later scans nothing.
        self._oldest_executed_at = 0.0
        #: Set when a post-view-change refresh ran while the adopted log
        #: still had unexecutable gaps; re-armed by try_execute once the
        #: gap fills so parked forwarded requests get their re-proposal
        #: decision made against complete execution knowledge.
        self._refresh_parked = False
        self._deferred_messages: Dict[int, List[Tuple[str, Message]]] = {}
        #: Highest boundary a transfer was requested for on ``f + 1``
        #: vouching votes: one request each, however many more votes arrive.
        self._state_transfer_requested_upto = -1
        #: Sequence -> state digest vouched by f+1 distinct checkpoint
        #: senders (or by local stability): the only digests a state
        #: transfer may install.  A lying checkpointer cannot reach f+1.
        self._verified_checkpoint_digests: Dict[int, bytes] = {}
        #: State-transfer responses whose digest cannot be vouched yet,
        #: parked until the matching checkpoint votes arrive.
        self._pending_state_transfers: Dict[int, StateTransferResponse] = {}
        #: Sequences a rejected transfer was already re-requested for (one
        #: broadcast retry per height keeps the liar from driving a loop).
        self._transfer_rerequested: Set[int] = set()
        #: Boundary sequence -> this replica's own state there; written and
        #: pruned by :meth:`_journal_boundary_state`.
        self._boundaries: Dict[int, BoundaryState] = {}
        #: First divergent sequence while a same-height repair is in
        #: flight (``None`` when state matches the quorum).
        self._repair_divergent_from: Optional[int] = None
        #: Audit trail of same-height repairs: (divergent_from, stable).
        self.repair_log: List[Tuple[int, int]] = []
        self.divergence_repairs = 0
        self.state_transfer_rejections = 0
        self.executed_batches = 0
        self.executed_txns = 0
        self.rolled_back_batches = 0
        #: Audit trail: one ``(rollback_target, stable_checkpoint)`` pair per
        #: :meth:`rollback_speculation`, checked by the safety auditor
        #: against the invariant that rollbacks never cross a stable
        #: checkpoint.
        self.rollback_log: List[Tuple[int, int]] = []
        # -- epoch / reconfiguration state ------------------------------
        #: The epoch whose quorum arithmetic currently governs this
        #: replica.  0 until a reconfiguration record both commits and
        #: reaches its activation boundary.
        self.epoch = 0
        #: Activated epochs, genesis first — the auditable record of every
        #: membership this replica ever counted quorums against.
        self.epoch_log: List[EpochEntry] = [genesis_entry(config.replica_ids)]
        #: Committed-but-not-yet-activated epochs, keyed by epoch number.
        self._pending_epochs: Dict[int, EpochEntry] = {}
        #: Smallest pending activation boundary, or ``None``.  While set,
        #: the primary will not assign sequences beyond it — the pipeline
        #: drains to the boundary so no slot straddles the epoch switch.
        self._epoch_gate: Optional[int] = None
        #: Journal of refused reconfiguration records:
        #: (sequence, batch_id, reason).  Audited — an unsafe resize must
        #: be refused by every honest replica, never activated.
        self.reconfig_refusals: List[Tuple[int, str, str]] = []
        #: Set by the cluster on replicas joining mid-run: the epoch that
        #: admits them.  Until it activates the joiner stays passive —
        #: it votes and executes but never arms primary-suspicion timers,
        #: so a node still catching up cannot drag the cluster into view
        #: changes.
        self.join_epoch: Optional[int] = None
        # Quorum sizes and the voter-index map are resolved once per epoch
        # (fixed for the deployment's lifetime unless a reconfiguration
        # activates) instead of walking the NodeConfig property chain
        # (n -> len(replica_ids)) on every delivered vote.
        self._vote_index = config.replica_index_map
        self._f_plus_1 = f + 1
        self._2f_plus_1 = 2 * f + 1
        self._nf_quorum = n - f
        self._fanout = n - 1
        self._primary_view: Optional[int] = None  # see primary_id
        self._primary = ""
        # Resolve the merged handler table once; routing a delivery is
        # then one dict lookup on the message's exact type.  Plain
        # functions, not methods bound to this replica: a table of bound
        # methods in the replica's own dict would be a reference cycle.
        cls = self.__class__
        self._dispatch = {
            message_cls: getattr(cls, handler_name)
            for message_cls, handler_name in self._DISPATCH_TABLE.items()
        }

    # ------------------------------------------------------------------ utils
    @property
    def primary_id(self) -> str:
        """Identifier of the primary of the current view: memoised with
        the view it was computed for (assigning ``self.view`` needs no
        hook) and dropped by an epoch activation, the one other thing it
        depends on (:meth:`_refresh_epoch_caches`)."""
        if self._primary_view != self.view:
            self._primary = self.primary_for_view(self.view)
            self._primary_view = self.view
        return self._primary

    def primary_for_view(self, view: int) -> str:
        """Primary of *view* under this replica's active epoch's membership
        (HotStuff's round leader too: the primary of the round's number)."""
        return self.config.primary_of_view(view, self.epoch)

    def is_primary(self) -> bool:
        if self._primary_view != self.view:
            return self.node_id == self.primary_id
        return self.node_id == self._primary

    @property
    def last_executed_sequence(self) -> int:
        return self.executor.last_executed_sequence

    # ---------------------------------------------------------------- dispatch
    def on_message(self, sender: str, message: Message, now_ms: float) -> None:
        """Route *message* inside the step already in progress.

        Deliveries of the types the table names do not come through here
        (the driver looks the handler up itself); this is for handlers
        re-dispatching a message they parked earlier, and it ignores a
        message of a type the table does not name.
        """
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(self, sender, message, now_ms)

    # ------------------------------------------------------- deferred messages
    #: Views ahead of the current one a message may be deferred for.  A
    #: legitimate sender is at most a handful of views ahead (view changes
    #: are sequential); without the horizon one Byzantine replica claiming
    #: ever-larger views would grow the defer buffer without bound.
    DEFER_VIEW_HORIZON = 32

    def defer_message(self, view: int, sender: str, message: Message) -> None:
        """Buffer a message for a view this replica has not entered yet.

        During a view-change the new primary's first proposals can overtake
        the NEW-VIEW message on the wire; deferring them (instead of
        dropping them) keeps lagging replicas in sync.
        """
        if view > self.view + self.DEFER_VIEW_HORIZON:
            return
        self._deferred_messages.setdefault(view, []).append((sender, message))

    def replay_deferred(self, now_ms: float) -> None:
        """Re-dispatch buffered messages for every view up to the current one."""
        ready_views = [view for view in self._deferred_messages if view <= self.view]
        for view in sorted(ready_views):
            for sender, message in self._deferred_messages.pop(view):
                self.on_message(sender, message, now_ms)

    # ---------------------------------------------------------- client requests
    def handle_client_request(self, sender: str, message: ClientRequestMessage,
                              now_ms: float) -> None:
        """Accept, forward or answer a client request."""
        batch = message.batch
        reply_to = message.reply_to or sender
        self._reply_targets[batch.batch_id] = reply_to
        # Clients sign their requests; verifying costs one signature check.
        self.charge(CryptoOp.VERIFY)
        earlier_reply = self._replied.get(batch.batch_id)
        if earlier_reply is not None:
            # Already executed: simply re-send the reply (paper, Section II-B).
            self.send(reply_to, earlier_reply)
            return
        if self.is_primary() and not self.view_change_in_progress:
            self.enqueue_batch(batch)
            self.maybe_propose(now_ms)
        elif message.retransmission:
            # A client that timed out broadcasts its request; backups forward
            # it to the primary and start a progress timer so a faulty
            # primary is eventually detected (paper, Sections II-B / II-C1).
            self._forwarded_requests[batch.batch_id] = message
            self.send(self.primary_id, message)
            self.start_progress_timer(batch.batch_id, now_ms)

    def enqueue_batch(self, batch: RequestBatch) -> None:
        """Queue a client's batch for proposal as it came.

        The batch keeps its id, whatever its size: the client is answered
        under that id, so a batch proposed under another would never
        complete.
        """
        if batch.batch_id in self._seen_batch_ids:
            return
        # A new primary's _seen_batch_ids does not cover batches the *old*
        # primary proposed, so executed batches and batches parked in
        # adopted-but-unexecutable slots must be rejected explicitly —
        # re-proposing either would assign a second slot to the same batch.
        if batch.batch_id in self._batch_sequence:
            return
        if any(slot.batch.batch_id == batch.batch_id
               for slot in self._committed.values()):
            return
        self._seen_batch_ids.add(batch.batch_id)
        self._batch_queue.append(batch)

    # ---------------------------------------------------------------- proposing
    def in_flight(self) -> int:
        """Slots proposed by this primary but not yet executed locally."""
        return self.next_sequence - (self.executor.last_executed_sequence + 1)

    def proposal_window_open(self) -> bool:
        if self.config.out_of_order:
            return self.in_flight() < self.config.max_in_flight
        return self.in_flight() < 1

    def maybe_propose(self, now_ms: float) -> None:
        """Propose queued batches while the pipeline window allows."""
        if not self.is_primary() or self.view_change_in_progress:
            return
        while self._batch_queue and self.proposal_window_open():
            gate = self._epoch_gate
            if gate is not None and self.next_sequence > gate:
                # A reconfiguration is pending: the pipeline drains to the
                # activation boundary, so no proposal straddles the epoch
                # switch.  Activation (or a refusal at execution) clears
                # the gate and re-opens the pipeline.
                break
            batch = self._batch_queue.popleft()
            sequence = self.next_sequence
            self.next_sequence += 1
            if batch.control_phase == RECONFIG_PHASE:
                # Gate eagerly at proposal time — waiting for the record
                # to *execute* would let the out-of-order window assign
                # sequences beyond the boundary first.  The execution
                # handler recomputes the gate, so a record refused there
                # releases it.
                boundary = activation_boundary(
                    sequence, self.config.checkpoint_interval)
                if gate is None or boundary < gate:
                    self._epoch_gate = boundary
            self.create_proposal(sequence, batch, now_ms)

    @abc.abstractmethod
    def create_proposal(self, sequence: int, batch: RequestBatch, now_ms: float) -> None:
        """Primary-side: start consensus on *batch* as slot *sequence*."""

    # ---------------------------------------------------------------- execution
    def commit_slot(self, sequence: int, view: int, batch: RequestBatch,
                    proof: object = None, now_ms: float = 0.0,
                    speculative: bool = False) -> None:
        """Mark a slot ready for execution and execute any in-order prefix."""
        if sequence <= self.executor.last_executed_sequence:
            return
        if sequence not in self._committed:
            self._committed[sequence] = CommittedSlot(
                sequence=sequence, view=view, batch=batch, proof=proof,
                speculative=speculative,
            )
        self.try_execute(now_ms)

    def try_execute(self, now_ms: float) -> None:
        """Execute committed slots strictly in sequence order.

        Every replica runs this for every batch, so the loop reads its
        invariants once and enters the checkpoint and proposal steps only
        at a boundary or with a batch queued.  A batch is charged what
        ``charge_execution(len(batch))`` then ``charge(CryptoOp.HASH)``
        charge: two additions, in that order (a merged sum rounds
        differently and moves every virtual clock).
        """
        executor = self.executor
        committed = self._committed
        control = self.control_layer
        interval = self.config.checkpoint_interval
        execution_ms = self.config.execution_ms_per_txn
        hash_ms = self._op_cost_ms[CryptoOp.HASH.ordinal]
        while (executor.last_executed_sequence + 1) in committed:
            slot = committed.pop(executor.last_executed_sequence + 1)
            sequence = slot.sequence
            batch = slot.batch
            phase = batch.control_phase
            if control is not None and phase and phase != RECONFIG_PHASE:
                record = control.execute_control(self, slot, now_ms)
            else:
                record = executor.execute(
                    sequence=sequence, view=slot.view, batch=batch,
                    proof=slot.proof,
                )
                if phase == RECONFIG_PHASE:
                    # Reconfiguration records execute like ordinary (empty)
                    # batches — the block lands on every honest chain at the
                    # same sequence — then the membership delta is admitted
                    # or refused by the epoch machinery.
                    self._execute_reconfig(slot, now_ms)
            num_txns = len(batch.transactions) or batch.logical_size  # len(batch)
            self._pending_cpu_ms += execution_ms * num_txns
            self._pending_cpu_ms += hash_ms
            self.executed_batches += 1
            self.executed_txns += num_txns
            self._batch_sequence[batch.batch_id] = (sequence, now_ms)
            self.send_replies(slot, record, now_ms)
            if interval > 0 and (sequence + 1) % interval == 0:
                self.take_checkpoint(sequence, now_ms)
        if self._refresh_parked and self.in_flight() == 0:
            # The log gap that parked the post-view-change refresh has
            # filled: now re-proposal decisions can be made safely.
            self._refresh_parked = False
            if self.is_primary() and not self.view_change_in_progress:
                self.refresh_pending_requests(now_ms)
        if self._batch_queue:
            # Executing may have opened the proposal window again.
            self.maybe_propose(now_ms)

    def send_replies(self, slot: CommittedSlot, record: ExecutedBatch,
                     now_ms: float) -> None:
        """Send the execution reply for *slot* to the issuing client(s)."""
        batch = slot.batch
        batch_id = batch.batch_id
        # config.reply_size_bytes(len(batch)), once per length, in this frame.
        length = len(batch.transactions) or batch.logical_size
        size_bytes = self._reply_sizes.get(length)
        if size_bytes is None:
            size_bytes = self._reply_sizes[length] = (
                BASE_MESSAGE_SIZE if self.config.zero_payload else int(
                    BASE_MESSAGE_SIZE + self.config.reply_bytes_per_txn * length))
        reply = ClientReplyMessage(
            batch_id=batch_id,
            view=slot.view,
            sequence=slot.sequence,
            result_digest=record.result_digest,
            replica_id=self.node_id,
            speculative=slot.speculative,
            size_bytes=size_bytes,
        )
        self._replied[batch_id] = reply
        # Whoever sent the request, else every client in the batch.
        target = self._reply_targets.get(batch_id) or batch.reply_to
        targets = (target,) if target else batch.client_ids
        # charge(MAC_SIGN, max(1, len(targets))), in this frame.
        self._pending_cpu_ms += self._op_cost_ms[CryptoOp.MAC_SIGN.ordinal] * max(1, len(targets))
        for target in targets:
            self.send(target, reply)
        if self._progress_timers or self._forwarded_requests:
            self.stop_progress_timer(batch_id)

    # ----------------------------------------------------------------- rollback
    def rollback_speculation(self, kmax: int, now_ms: float) -> List[ExecutedBatch]:
        """Roll execution back to *kmax*, keeping the audit trail.

        Clears reply/dedup bookkeeping for every reverted batch so it can
        be ordered and executed again, and gives the protocol a per-record
        hook for its own log cleanup.
        """
        if self.last_executed_sequence <= kmax:
            return []
        self.rollback_log.append((kmax, self.checkpoints.stable_sequence))
        reverted = self.executor.rollback_to(kmax)
        self.rolled_back_batches += len(reverted)
        for record in reverted:
            self._replied.pop(record.batch_id, None)
            # A rolled-back batch must be acceptable again when the client
            # retransmits it.
            self._seen_batch_ids.discard(record.batch_id)
            self._batch_sequence.pop(record.batch_id, None)
            self.on_rolled_back(record)
            if (record.control_phase == RECONFIG_PHASE
                    and self._pending_epochs):
                # An executed reconfiguration that did not survive must
                # not activate; the shared registry entry stays (it is
                # idempotent and the record re-registers identically when
                # re-ordered).
                pending = self._pending_epochs
                for epoch in [e for e, entry in pending.items()
                              if entry.committed_at == record.sequence]:
                    del pending[epoch]
                self._reset_epoch_gate()
        return reverted

    def on_rolled_back(self, record: ExecutedBatch) -> None:
        """Hook invoked per batch reverted by :meth:`rollback_speculation`."""

    # --------------------------------------------------------------- checkpoints
    def take_checkpoint(self, sequence: int, now_ms: float) -> None:
        """Vote for this replica's state at *sequence*, a checkpoint
        boundary it just executed through (:meth:`try_execute` decides)."""
        state_digest = self.executor.state_digest()
        self.charge(CryptoOp.HASH)
        self.charge(CryptoOp.MAC_SIGN, self._fanout)
        # Journal the digest this replica itself computed at the boundary:
        # if the quorum stabilises (or already stabilised) a *different*
        # digest for the same height, this replica executed a wrong batch
        # and must repair.
        self._journal_boundary_state(sequence, state_digest)
        vouched_digest = self._expected_transfer_digest(sequence)
        if vouched_digest is not None and vouched_digest != state_digest:
            # Executing through a boundary the quorum already settled,
            # with different state: divergence introduced *after* the
            # checkpoint stabilised (e.g. a forged history adopted during
            # a view change) — same-height repair, not a lagging replica.
            self._begin_divergence_repair(sequence, now_ms)
        message = CheckpointMessage(
            sequence=sequence, state_digest=state_digest, replica_id=self.node_id
        )
        self.broadcast(message)
        self._record_checkpoint_vote(sequence, state_digest, self.node_id, now_ms)
        gate = self._epoch_gate
        if gate is not None and sequence >= gate and self._pending_epochs:
            # The boundary's own vote (just broadcast) still counts under
            # the old epoch; everything after this point is governed by
            # the new one.
            self._activate_epochs(sequence, now_ms)

    def handle_checkpoint_message(self, sender: str, message: CheckpointMessage,
                                  now_ms: float) -> None:
        self.charge(CryptoOp.MAC_VERIFY)
        # Transport-level sender, not the spoofable message.replica_id: one
        # Byzantine replica must not push a checkpoint to stability alone.
        self._record_checkpoint_vote(message.sequence, message.state_digest,
                                     sender, now_ms)

    def _record_checkpoint_vote(self, sequence: int, state_digest: bytes,
                                replica_id: str, now_ms: float) -> None:
        """Count one vote, a peer's or this replica's own, in the one tally
        and act on whichever rule it completed."""
        checkpoints = self.checkpoints
        voters = checkpoints.record_vote(sequence, state_digest, replica_id)
        if voters is None:
            return
        if checkpoints.stable_sequence != sequence:
            # Not stable yet: the vouching rule, in which this replica's
            # own vote never counts.
            others = voters.count - (self.node_id in voters)
            if replica_id != self.node_id and others >= self._f_plus_1:
                self._on_checkpoint_vouched(sequence, state_digest,
                                            replica_id, now_ms)
            return
        # This vote made (sequence, state_digest) the stable checkpoint.
        self.executor.prune_before(sequence)
        self._mark_checkpoint_digest_verified(sequence, state_digest, now_ms)
        own_digest = self._own_digest_at(sequence)
        if sequence > self.last_executed_sequence and replica_id != self.node_id:
            # The system proved progress this replica has not made (it was
            # kept in the dark): ask an up-to-date peer for the state.
            self.send(replica_id, StateTransferRequest(
                sequence=sequence, replica_id=self.node_id))
        elif own_digest is not None and own_digest != state_digest:
            # Same height, different state: this replica executed a wrong
            # batch behind the checkpoint.  Start a same-height repair.
            self._begin_divergence_repair(sequence, now_ms)
        self.on_stable_checkpoint(sequence, now_ms)

    def _on_checkpoint_vouched(self, sequence: int, state_digest: bytes,
                               voter: str, now_ms: float) -> None:
        """``f + 1`` *other* replicas vouch for ``(sequence, digest)``: one
        of them is non-faulty, so the digest is safe to install, and a
        replica behind that point (kept in the dark by the primary, say)
        requests a state transfer from the latest voter."""
        self._mark_checkpoint_digest_verified(sequence, state_digest, now_ms)
        if sequence <= self.last_executed_sequence:
            return
        if sequence <= self._state_transfer_requested_upto:
            return
        self._state_transfer_requested_upto = sequence
        self.send(voter, StateTransferRequest(sequence=sequence,
                                              replica_id=self.node_id))

    def _mark_checkpoint_digest_verified(self, sequence: int, state_digest: bytes,
                                         now_ms: float) -> None:
        """Record a vouched digest and drain any transfer parked on it."""
        if sequence not in self._verified_checkpoint_digests:
            self._verified_checkpoint_digests[sequence] = state_digest
            prune_to_last(self._verified_checkpoint_digests,
                          CheckpointTracker.STABLE_DIGEST_HISTORY)
        pending = self._pending_state_transfers.pop(sequence, None)
        if pending is not None:
            self.handle_state_transfer_response("", pending, now_ms)

    def readvertise_stable_checkpoint(self) -> None:
        """Re-broadcast this replica's vote for its stable checkpoint.

        Checkpoint votes are broadcast exactly once, at the boundary; a
        replica partitioned away at that moment misses them forever and
        afterwards can neither validate a state transfer nor learn that it
        should request one.  PBFT closes this hole by carrying the stable
        checkpoint's proof inside view-change messages; the equivalent
        here is re-advertising the vote whenever a view change completes,
        so recovery (the one time a dark replica is guaranteed to be
        listening again) always re-establishes the transfer baseline.
        """
        stable = self.checkpoints.stable_sequence
        if stable < 0:
            return
        state_digest = self._own_digest_at(stable)
        if state_digest is None:
            return
        self.charge(CryptoOp.MAC_SIGN, self._fanout)
        self.broadcast(CheckpointMessage(
            sequence=stable, state_digest=state_digest,
            replica_id=self.node_id))

    def _journal_boundary_state(self, sequence: int, state_digest: bytes) -> None:
        """Journal this replica's state at the boundary it just reached."""
        boundaries = self._boundaries
        applying = self.config.execute_operations
        boundaries[sequence] = BoundaryState(
            state_digest, self.blockchain.head.block_hash,
            self.store.snapshot() if applying else None)
        prune_to_last(boundaries, CheckpointTracker.STABLE_DIGEST_HISTORY)
        if applying:
            # Table snapshots are the heavy part: the newest 4 keep theirs.
            for stale in sorted(boundaries)[:-4]:
                boundaries[stale].snapshot = None

    def _own_digest_at(self, sequence: int) -> Optional[bytes]:
        """The state digest this replica journaled at boundary *sequence*."""
        boundary = self._boundaries.get(sequence)
        return boundary.state_digest if boundary is not None else None

    def _begin_divergence_repair(self, stable: int, now_ms: float) -> None:
        """This replica's state at *stable* contradicts the quorum: repair.

        The divergent suffix starts right after the highest earlier
        checkpoint this replica still agreed with the quorum on; everything
        above that point is excised and replaced by a (digest-validated)
        transferred checkpoint.  The request is broadcast so any honest
        up-to-date peer can serve it.
        """
        if self._repair_divergent_from is not None:
            return
        last_agreed = -1
        for sequence in sorted(self.checkpoints.stable_digests, reverse=True):
            if sequence >= stable:
                continue
            own = self._own_digest_at(sequence)
            if own is not None and own == self.checkpoints.stable_digests[sequence]:
                last_agreed = sequence
                break
        self._repair_divergent_from = last_agreed + 1
        self.repair_log.append((last_agreed + 1, stable))
        self.broadcast(StateTransferRequest(sequence=stable,
                                            replica_id=self.node_id))

    #: Checkpoint intervals of reply/dedup state retained *behind* the
    #: stable checkpoint.  Replies for a completed batch are never
    #: requested again once the client pool completed it, but in-flight
    #: duplicates (delayed or replayed requests) may still arrive a little
    #: late; one full retention window bounds how late while keeping the
    #: maps O(window), not O(history).
    REPLY_RETENTION_INTERVALS = 2

    #: Reply/dedup state also ages out in *time*, not just sequence
    #: distance: a burst can sink a batch far below the stable checkpoint
    #: within milliseconds, while the client that lost the reply only
    #: retransmits after its timeout (backed off up to
    #: ``2 ** ClientNode.BACKOFF_CAP`` timeouts).  Pruning the stored reply
    #: before that retransmission lands would make the primary re-propose
    #: an executed batch.  Twice the maximum client backoff is a 2x margin
    #: that follows the cap; memory stays bounded by throughput x this
    #: window, independent of run length.
    REPLY_RETENTION_TIMEOUTS = 2 ** (ClientNode.BACKOFF_CAP + 1)

    def on_stable_checkpoint(self, sequence: int, now_ms: float) -> None:
        """Hook invoked when a checkpoint becomes stable.

        The base implementation garbage-collects bookkeeping the stable
        checkpoint supersedes, so long-horizon (soak) runs stay bounded by
        the checkpoint window instead of growing with run length.
        Protocol overrides must call ``super()``.
        """
        horizon = sequence - (self.config.checkpoint_interval
                              * self.REPLY_RETENTION_INTERVALS)
        age_ms = self.config.request_timeout_ms * self.REPLY_RETENTION_TIMEOUTS
        if horizon >= 0 and now_ms - self._oldest_executed_at >= age_ms:
            batch_sequence = self._batch_sequence
            for batch_id in [
                    b for b, (s, executed_at) in batch_sequence.items()
                    if s <= horizon and now_ms - executed_at >= age_ms]:
                del batch_sequence[batch_id]
                self._replied.pop(batch_id, None)
                self._reply_targets.pop(batch_id, None)
                self._seen_batch_ids.discard(batch_id)
            self._oldest_executed_at = min(
                (executed_at for _, executed_at in batch_sequence.values()),
                default=now_ms)
        for stale in [s for s in self._committed if s <= sequence]:
            del self._committed[stale]
        for stale in [s for s in self._transfer_rerequested if s <= sequence]:
            self._transfer_rerequested.discard(stale)
        for stale in [s for s in self._pending_state_transfers
                      if s <= sequence]:
            del self._pending_state_transfers[stale]

    # ------------------------------------------------- epochs / reconfiguration
    def _known_epoch(self) -> int:
        """Highest epoch this replica has committed (active or pending)."""
        pending = self._pending_epochs
        if pending:
            highest = max(pending)
            return highest if highest > self.epoch else self.epoch
        return self.epoch

    def _execute_reconfig(self, slot: CommittedSlot, now_ms: float) -> None:
        """Admit or refuse a committed :class:`ReconfigRecord`.

        A valid record registers a pending epoch that activates at the
        next checkpoint boundary; an invalid one (a Byzantine proposer
        *can* get an unsafe resize ordered) commits as a no-op and is
        journaled in ``reconfig_refusals``.  Either way the epoch gate is
        recomputed, so a gate set eagerly at proposal time never outlives
        the record that justified it.
        """
        record: ReconfigRecord = slot.batch
        config = self.config
        base_epoch = self._known_epoch()
        ok, reason = reconfig_record_valid(
            record, base_epoch, config.membership(base_epoch))
        if ok:
            boundary = activation_boundary(slot.sequence,
                                           config.checkpoint_interval)
            # Two records ordered within one checkpoint interval would
            # otherwise compute the *same* boundary; activations must be
            # strictly increasing, so the later epoch slides to the next
            # boundary.  Deterministic: the predecessor's activation is
            # registered before its successor commits.
            prev_activation = config.epoch_activations.get(base_epoch, -1)
            while boundary <= prev_activation:
                boundary += config.checkpoint_interval
            members = apply_reconfig(config.membership(base_epoch),
                                     record.add, record.remove)
            config.register_epoch(record.new_epoch, boundary, members)
            self._pending_epochs[record.new_epoch] = EpochEntry(
                epoch=record.new_epoch, activation_sequence=boundary,
                members=members, added=record.add, removed=record.remove,
                committed_at=slot.sequence)
        else:
            self.reconfig_refusals.append(
                (slot.sequence, record.batch_id, reason))
        self._reset_epoch_gate()

    def _reset_epoch_gate(self) -> None:
        """Point the gate at the smallest pending activation boundary."""
        pending = self._pending_epochs
        self._epoch_gate = (min(e.activation_sequence for e in pending.values())
                            if pending else None)

    def _activate_epochs(self, sequence: int, now_ms: float) -> None:
        """Switch into every pending epoch whose boundary is behind us.

        Runs at the activation boundary itself (``take_checkpoint``) or
        when a state transfer lands past one.  Activation refreshes every
        cached quorum size, purges an evicted replica's votes from all
        not-yet-certified quorums (its vote must never complete a commit
        in the epoch that removed it), and — when this replica itself was
        removed — halts it at the boundary.
        """
        pending = self._pending_epochs
        config = self.config
        while pending:
            next_epoch = min(pending)
            entry = pending[next_epoch]
            if entry.activation_sequence > sequence:
                break
            del pending[next_epoch]
            prev_members = config.membership(self.epoch)
            self.epoch = next_epoch
            self.epoch_log.append(entry)
            members = entry.members
            self._refresh_epoch_caches(members)
            evicted = tuple(rid for rid in prev_members if rid not in members)
            for rid in evicted:
                self.checkpoints.discard_voter(rid)
            if self.join_epoch is not None and self.epoch >= self.join_epoch:
                self.join_epoch = None
            self.on_epoch_activated(entry, evicted, now_ms)
            # Only an *evicted* replica halts: one that was a member of
            # the previous epoch and is absent from this one.  A joiner
            # replaying history passes through epochs that predate its
            # admission without being a member of any of them — halting
            # it there would kill every late joiner at catch-up time.
            if self.node_id in evicted:
                self.crashed = True
                break
        self._reset_epoch_gate()

    def _refresh_epoch_caches(self, members: Tuple[str, ...]) -> None:
        """Re-derive every cached quorum size from the active membership."""
        f_e = fault_bound(len(members))
        self._f_plus_1 = f_e + 1
        self._2f_plus_1 = 2 * f_e + 1
        self._nf_quorum = len(members) - f_e
        self._fanout = len(members) - 1
        self._primary_view = None
        checkpoints = self.checkpoints
        checkpoints.quorum = self._2f_plus_1
        if checkpoints.quorum_fn is None:
            # From now on checkpoint stability is judged per-sequence:
            # votes for an old-epoch boundary stay held to the old
            # epoch's quorum even after the membership resized.  The
            # config's method, not one of this replica's: the replica
            # holds the tracker.
            checkpoints.quorum_fn = self.config.quorum_of_sequence

    def on_epoch_activated(self, entry: EpochEntry, evicted: Tuple[str, ...],
                           now_ms: float) -> None:
        """Hook: a new epoch's membership just took effect.

        The quorum caches are already refreshed; overrides purge evicted
        voters from their own tallies (:meth:`purge_evicted`) and must
        call ``super()``.
        """

    def purge_evicted(self, states, evicted: Tuple[str, ...]) -> None:
        """Remove *evicted* replicas from every tally *states* hold open.

        Each state (a consensus slot, a HotStuff round) names the tallies
        that can still complete through ``open_tallies()``: vote sets are
        keyed by replica id, share dicts by share index (membership
        position + 1 — without threshold re-keying an evicted replica's
        share would still aggregate into a valid certificate).  A closed
        tally froze its proof when it completed and is left alone.
        """
        index_map = self.config.replica_index_map
        dead = {index_map[rid] + 1 for rid in evicted if rid in index_map}
        for state in states:
            for tally in state.open_tallies():
                if tally.__class__ is VoteSet:
                    for rid in evicted:
                        tally.discard(rid)
                else:
                    for index in dead:
                        tally.pop(index, None)

    def _epoch_log_wire(self, sequence: int) -> Tuple[Tuple, ...]:
        """Wire form of every non-genesis epoch committed by *sequence*."""
        entries = [e for e in self.epoch_log if e.epoch > 0]
        entries.extend(self._pending_epochs.values())
        return tuple(e.as_wire() for e in sorted(entries, key=lambda e: e.epoch)
                     if e.committed_at <= sequence)

    def _adopt_epoch_log(self, wire_entries: Tuple[Tuple, ...],
                         upto_sequence: int, now_ms: float) -> None:
        """Adopt committed epochs carried by a vouched state transfer.

        A joiner (or a replica fast-forwarded over the slots that carried
        the reconfiguration records) learns the epochs it skipped from
        here.  Entries are validated against the shared registered
        schedule — written only by committed, admission-checked records —
        so a lying sender cannot smuggle an epoch consensus never agreed
        on.
        """
        if not wire_entries:
            return
        config = self.config
        known = self._known_epoch()
        adopted = False
        for wire in wire_entries:
            entry = EpochEntry.from_wire(wire)
            if entry.epoch <= known:
                continue
            if config.epoch_memberships.get(entry.epoch) != entry.members:
                continue
            if config.epoch_activations.get(entry.epoch) != entry.activation_sequence:
                continue
            self._pending_epochs[entry.epoch] = entry
            known = entry.epoch
            adopted = True
        if adopted:
            self._reset_epoch_gate()
            self._activate_epochs(upto_sequence, now_ms)

    # ------------------------------------------------------------ state transfer
    def handle_state_transfer_request(self, sender: str,
                                      message: StateTransferRequest,
                                      now_ms: float) -> None:
        """Ship checkpointed state to a lagging replica.

        The response carries the state *as of the stable checkpoint* —
        the digest and snapshot journaled when this replica executed
        through that boundary — not the replica's current (still moving)
        state: receivers validate the digest against the checkpoint votes
        for exactly that height, so the shipped pair must be the one the
        quorum vouched for.
        """
        sequence = self.checkpoints.stable_sequence
        if sequence < 0 or sequence < message.sequence:
            return
        if self.last_executed_sequence < sequence:
            return  # knows of the checkpoint but cannot produce its state
        boundary = self._boundaries.get(sequence)
        if boundary is None:
            return
        size = self.config.proposal_size_bytes(
            self.config.batch_size * self.config.checkpoint_interval)
        self.charge(CryptoOp.HASH)
        self.send(sender, StateTransferResponse(
            sequence=sequence, view=self.transfer_view(sequence),
            state_digest=boundary.state_digest,
            table_snapshot=boundary.snapshot, size_bytes=size,
            head_hash=boundary.head_hash,
            executed_batch_ids=tuple(
                (batch_id, seq)
                for batch_id, (seq, _) in self._batch_sequence.items()
                if seq <= sequence
            ),
            epoch_log=self._epoch_log_wire(sequence),
        ))

    def transfer_view(self, sequence: int) -> int:
        """View shipped with a state transfer covering *sequence*.

        Rotating-leader protocols override this: their ``self.view`` does
        not track consensus progress, so they report the round of the block
        at the transferred sequence instead.
        """
        return self.view

    def handle_state_transfer_response(self, sender: str,
                                       message: StateTransferResponse,
                                       now_ms: float) -> None:
        """Install transferred state — once its digest is quorum-vouched.

        A response is only applied when its ``(sequence, state_digest)``
        pair matches a digest this replica verified through checkpoint
        votes (``f + 1`` distinct senders, or local stability).  A response
        for a height no votes vouch for yet is parked; a response whose
        digest *contradicts* the vouched one is a lying peer and is
        rejected — the transfer is re-requested from the whole membership
        so an honest replica serves it instead.

        One install serves both reasons to transfer.  A replica *behind*
        the checkpoint keeps everything it executed; a replica repairing a
        divergence (:meth:`_begin_divergence_repair`) has its suffix from
        the first divergent sequence excised, boundary journal included,
        even when it already sits at the checkpoint's height.
        """
        repairing = (self._repair_divergent_from is not None
                     and message.sequence >= self._repair_divergent_from)
        if not repairing and message.sequence <= self.last_executed_sequence:
            return
        expected = self._expected_transfer_digest(message.sequence)
        if expected is None:
            self._pending_state_transfers.setdefault(message.sequence, message)
            return
        if expected != message.state_digest \
                or not self._transfer_commitment_holds(message, expected):
            self.state_transfer_rejections += 1
            if message.sequence not in self._transfer_rerequested:
                self._transfer_rerequested.add(message.sequence)
                self.broadcast(StateTransferRequest(
                    sequence=message.sequence, replica_id=self.node_id))
            return
        # A lagging replica excises nothing; a repairing one everything
        # from its first divergent sequence up.
        divergent_from = self.last_executed_sequence + 1
        if repairing:
            divergent_from = self._repair_divergent_from
            self._repair_divergent_from = None
            self.divergence_repairs += 1
        # Boundaries journaled above the excision point reflect state the
        # install replaces; the installed checkpoint, journaled below, is
        # this replica's state now.
        for stale in [s for s in self._boundaries if s >= divergent_from]:
            del self._boundaries[stale]
        self.executor.install_checkpoint(
            sequence=message.sequence, view=message.view,
            state_digest=message.state_digest,
            table_snapshot=message.table_snapshot,
            head_hash=message.head_hash or None,
            divergent_from=divergent_from,
        )
        self._journal_boundary_state(message.sequence, message.state_digest)
        self._adopt_epoch_log(message.epoch_log, message.sequence, now_ms)
        self.charge_execution(self.config.batch_size)
        # The digest validated, so the sender's execution records for the
        # vouched prefix are adopted for dedup: slots this replica jumped
        # over consumed these batch ids, and re-proposing them later (as a
        # gap-filling new primary) would double-execute their batches.
        for batch_id, seq in message.executed_batch_ids:
            if seq <= message.sequence:
                self._batch_sequence.setdefault(batch_id, (seq, now_ms))
                self._seen_batch_ids.add(batch_id)
                # Learning a forwarded batch was executed stands down the
                # suspicion its progress timer encodes: the primary did
                # serve it, this replica just was not in the loop.
                self.stop_progress_timer(batch_id)
        for stale in [s for s in self._committed if s <= message.sequence]:
            del self._committed[stale]
        for stale in [s for s in self._pending_state_transfers
                      if s <= message.sequence]:
            del self._pending_state_transfers[stale]
        if message.view > self.view:
            self.view = message.view
            self.view_change_in_progress = False
            self.on_transfer_view_adopted(message.view, now_ms)
        self.next_sequence = max(self.next_sequence, message.sequence + 1)
        self.try_execute(now_ms)
        self.replay_deferred(now_ms)

    def _expected_transfer_digest(self, sequence: int) -> Optional[bytes]:
        """The vouched state digest for *sequence*, if any is known."""
        expected = self._verified_checkpoint_digests.get(sequence)
        if expected is None:
            expected = self.checkpoints.stable_digests.get(sequence)
        return expected

    def _transfer_commitment_holds(self, message: StateTransferResponse,
                                   vouched_digest: bytes) -> bool:
        """Check that the vouched digest really commits to the shipped state.

        The checkpoint state digest is
        ``digest("state", sequence, head_hash, snapshot_digest)`` — a
        response whose ``head_hash`` or ``table_snapshot`` was tampered
        with while keeping the genuine (publicly broadcast) digest must
        not install: the receiver would adopt a forged chain head or a
        poisoned table under a digest the quorum never computed over
        them.
        """
        if self.config.execute_operations:
            snapshot_digest = table_digest(message.table_snapshot or {})
        else:
            snapshot_digest = b""
        recomputed = digest("state", message.sequence, message.head_hash,
                            snapshot_digest)
        return recomputed == vouched_digest

    def on_transfer_view_adopted(self, view: int, now_ms: float) -> None:
        """Hook invoked when a state transfer advanced this replica's view.

        The primary-backup layer overrides this to mark *view* entered
        and disarm any pending view-change retry timer (see
        :class:`~repro.protocols.recovery.PrimaryBackupReplica`).
        """

    # ------------------------------------------------------------ progress timers
    def start_progress_timer(self, batch_id: str, now_ms: float) -> None:
        """Arm the timer that detects a primary failing to make progress.

        A batch with a known execution record (replied locally, or learned
        executed through a state-transfer merge) is not grounds for primary
        suspicion: the primary already served it, however the client is
        faring with its evidence collection.  Retransmissions of such
        batches must not re-arm the timer — a replica that keeps suspecting
        over served batches escalates view changes nobody joins and drifts
        itself out of the quorum's view.
        """
        if batch_id in self._progress_timers or batch_id in self._batch_sequence:
            return
        if self.join_epoch is not None and self.epoch < self.join_epoch:
            # Still bootstrapping into the epoch that admits this replica:
            # it has no standing to suspect the primary yet.
            return
        self._progress_timers.add(batch_id)
        self.set_timer(f"progress:{batch_id}", self.config.request_timeout_ms,
                       payload=batch_id)

    def stop_progress_timer(self, batch_id: str) -> None:
        if batch_id in self._progress_timers:
            self._progress_timers.discard(batch_id)
            self.cancel_timer(f"progress:{batch_id}")
        self._forwarded_requests.pop(batch_id, None)

    def has_unserved_forwarded_requests(self) -> bool:
        """Whether any forwarded request is still awaiting service.

        Grounds for (continued) primary suspicion: a batch this replica
        relayed that has neither been replied to nor learned executed.
        """
        return any(batch_id not in self._batch_sequence
                   for batch_id in self._forwarded_requests)

    def refresh_pending_requests(self, now_ms: float) -> None:
        """Re-forward pending requests to the (new) primary and restart timers.

        Called when a replica enters a new view: the new primary gets a
        full timeout before it, too, is suspected, and it immediately
        learns about every request the old primary failed to handle.
        """
        pending = {
            batch_id: message
            for batch_id, message in self._forwarded_requests.items()
            if batch_id not in self._batch_sequence
        }
        for batch_id in list(self._progress_timers):
            self._progress_timers.discard(batch_id)
            self.cancel_timer(f"progress:{batch_id}")
        # A new primary whose adopted prefix has gaps (certified slots it
        # cannot execute yet) must not re-propose forwarded batches: it
        # cannot tell which of them the missing slots already consumed.
        # Park them behind fresh progress timers and retry once the gap
        # fills (state transfer or late certificates) — see try_execute.
        gapped = self.is_primary() and self.in_flight() > 0
        if gapped:
            self._refresh_parked = True
        for batch_id, message in pending.items():
            if self.is_primary() and not gapped:
                self.enqueue_batch(message.batch)
            elif not self.is_primary():
                self.send(self.primary_id, message)
            self.start_progress_timer(batch_id, now_ms)
        if self.is_primary():
            self.maybe_propose(now_ms)

    def on_timer(self, name: str, payload, now_ms: float) -> None:
        if name.startswith("progress:"):
            batch_id = payload
            self._progress_timers.discard(batch_id)
            if batch_id not in self._replied:
                self.on_progress_timeout(batch_id, now_ms)
        else:
            self.on_protocol_timer(name, payload, now_ms)

    def on_progress_timeout(self, batch_id: str, now_ms: float) -> None:
        """Hook invoked when the primary failed to execute a request in time."""

    def on_protocol_timer(self, name: str, payload, now_ms: float) -> None:
        """Hook for protocol-specific timers."""


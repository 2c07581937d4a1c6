"""SBFT baseline: linearised twin-path BFT with collector and executor.

SBFT linearises each of PBFT's phases through threshold signatures, which
yields five linear phases in the fast path (Section IV-A of the paper):

1. the primary broadcasts a PRE-PREPARE with the batch;
2. replicas send a signature share to the *collector*;
3. the collector aggregates the shares and broadcasts a full commit proof;
4. replicas execute and send a second signature share to the *executor*;
5. the executor aggregates and broadcasts an execute acknowledgement that
   also answers the client (one aggregated reply instead of n).

The fast path expects shares from **all** ``n`` replicas (or ``3f+2c+1``
replicas when ``c`` crash failures should be tolerated); if the collector
times out it falls back to a slow path that needs two additional linear
phases.  With a single crashed backup the collector times out on every
slot, which is why SBFT loses throughput under failures — though less
dramatically than Zyzzyva, because the primary keeps proposing
out-of-order while collectors wait.

A faulty *primary* is recovered from through the shared primary-backup
layer (:class:`~repro.protocols.recovery.PrimaryBackupReplica`): replicas
broadcast VIEW-CHANGE requests carrying their commit-proof-certified
slots, the primary of the next view combines ``2f + 1`` of them into a
NEW-VIEW, and entering the view rotates collector and executor along with
the primary (both roles are derived from the view number).  Because every
executed slot carries a threshold commit proof, view-change requests are
third-party verifiable — unlike Zyzzyva's purely speculative histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.view_change import longest_consecutive_prefix
from repro.crypto.authenticator import Authenticator
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.crypto.hashing import shared_digest
from repro.crypto.threshold import ThresholdError
from repro.protocols.base import Message, NodeConfig, ProtocolInfo
from repro.protocols.client_messages import ClientReplyMessage
from repro.protocols.recovery import LogEntry, NewView, PrimaryBackupReplica
from repro.protocols.replica_base import CommittedSlot
from repro.workload.clients import ClientPool
from repro.workload.transactions import RequestBatch


def sbft_proposal_digest(view: int, sequence: int, batch: RequestBatch) -> bytes:
    """The digest replicas sign shares over for slot (*view*, *sequence*)."""
    return shared_digest("sbft", view, sequence, batch.digest())


@dataclass
class SbftPrePrepare(Message):
    """PRE-PREPARE(v, k, batch) broadcast by the primary."""

    view: int = 0
    sequence: int = 0
    batch: RequestBatch = None


@dataclass
class SbftSignShare(Message):
    """A replica's signature share sent to the collector (phase 2)."""

    view: int = 0
    sequence: int = 0
    proposal_digest: bytes = b""
    share: object = None
    replica_id: str = ""


@dataclass
class SbftCommitProof(Message):
    """The collector's aggregated full-commit proof (phase 3)."""

    view: int = 0
    sequence: int = 0
    proposal_digest: bytes = b""
    certificate: object = None
    slow_path: bool = False


@dataclass
class SbftSignState(Message):
    """A replica's post-execution signature share sent to the executor (phase 4)."""

    view: int = 0
    sequence: int = 0
    batch_id: str = ""
    result_digest: bytes = b""
    share: object = None
    replica_id: str = ""


@dataclass
class SbftExecuteAck(Message):
    """The executor's aggregated execution acknowledgement (phase 5)."""

    view: int = 0
    sequence: int = 0
    batch_id: str = ""
    result_digest: bytes = b""
    certificate: object = None


@dataclass(slots=True)
class _SbftSlot:
    """Per (view, sequence) bookkeeping at the collector/executor."""

    batch: Optional[RequestBatch] = None
    proposal_digest: bytes = b""
    commit_shares: Dict[int, object] = field(default_factory=dict)
    state_shares: Dict[int, object] = field(default_factory=dict)
    commit_proof_sent: bool = False
    execute_ack_sent: bool = False
    slow_path: bool = False
    result_digest: bytes = b""

    def open_tallies(self) -> Tuple[Dict[int, object], ...]:
        return ((() if self.commit_proof_sent else (self.commit_shares,))
                + (() if self.execute_ack_sent else (self.state_shares,)))


class SbftReplica(PrimaryBackupReplica):
    """An SBFT replica; the primary doubles as collector, the next replica as executor."""

    PROTOCOL_INFO = ProtocolInfo(
        name="SBFT",
        phases=5,
        messages="O(5n)",
        resilience="0",
        requirements="Twin paths",
    )

    #: How long the collector waits for all n shares before the slow path.
    COLLECTOR_TIMEOUT_MS = 50.0

    MESSAGE_HANDLERS = {
        SbftPrePrepare: "handle_preprepare",
        SbftSignShare: "handle_sign_share",
        SbftCommitProof: "handle_commit_proof",
        SbftSignState: "handle_sign_state",
        SbftExecuteAck: "handle_execute_ack",
    }

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        authenticator: Authenticator,
        cost_model: Optional[CryptoCostModel] = None,
        initial_table: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(node_id, config, authenticator, cost_model, initial_table)
        #: Collector timers currently armed, by (view, sequence).  Tracked so
        #: advancing the view can cancel the old view's timers instead of
        #: letting stale collector timeouts fire after rotation.
        self._collector_timers: Set[Tuple[int, int]] = set()
        self.slow_path_slots = 0

    # ------------------------------------------------------------------ roles
    @property
    def collector_id(self) -> str:
        """The collector of the current view (the primary, per SBFT's default)."""
        return self.primary_id

    @property
    def executor_id(self) -> str:
        """The executor of the current view (the replica after the primary)."""
        return self.primary_for_view(self.view + 1)

    new_slot = _SbftSlot

    # ---------------------------------------------------------------- proposing
    def create_proposal(self, sequence: int, batch: RequestBatch, now_ms: float) -> None:
        proposal_digest = sbft_proposal_digest(self.view, sequence, batch)
        self.charge(CryptoOp.HASH)
        slot = self._slot(self.view, sequence)
        slot.batch = batch
        slot.proposal_digest = proposal_digest
        self._accepted[(self.view, sequence)] = proposal_digest
        self.broadcast(SbftPrePrepare(
            view=self.view, sequence=sequence, batch=batch,
            size_bytes=self.config.proposal_size_bytes(len(batch)),
        ))
        # The primary contributes its own share and, as collector, arms the
        # fast-path timer for this slot.
        self.charge(CryptoOp.THRESHOLD_SHARE)
        share = self.auth.threshold_share(proposal_digest)
        slot.commit_shares[share.index] = share
        self._collector_timers.add((self.view, sequence))
        self.set_timer(f"collector:{self.view}:{sequence}", self.COLLECTOR_TIMEOUT_MS,
                       payload=(self.view, sequence))

    # ---------------------------------------------------------------- messages
    def handle_preprepare(self, sender: str, message: SbftPrePrepare,
                          now_ms: float) -> None:
        key = self.admit_proposal(sender, message)
        if key is None:
            return
        self.charge(CryptoOp.MAC_VERIFY)
        self.charge(CryptoOp.HASH)
        proposal_digest = sbft_proposal_digest(message.view, message.sequence,
                                               message.batch)
        self._accepted[key] = proposal_digest
        slot = self._slot(message.view, message.sequence)
        slot.batch = message.batch
        slot.proposal_digest = proposal_digest
        self.charge(CryptoOp.THRESHOLD_SHARE)
        share = self.auth.threshold_share(proposal_digest)
        self.send(self.collector_id, SbftSignShare(
            view=message.view, sequence=message.sequence,
            proposal_digest=proposal_digest, share=share, replica_id=self.node_id,
        ))

    def handle_sign_share(self, sender: str, message: SbftSignShare,
                          now_ms: float) -> None:
        """Collector: aggregate shares; fast path needs all n of them."""
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return
        if message.view != self.view or self.node_id != self.collector_id:
            return
        slot = self._slot(message.view, message.sequence)
        if slot.commit_proof_sent or message.share is None:
            return
        if slot.proposal_digest and message.proposal_digest != slot.proposal_digest:
            return
        # Share verification is deferred to aggregation (see PoeReplica).
        if not self.auth.threshold_verify_share(message.share, slot.proposal_digest):
            return
        slot.commit_shares[message.share.index] = message.share
        fast_quorum = self._fanout + 1  # all n of the current epoch
        if len(slot.commit_shares) >= fast_quorum:
            self._send_commit_proof(message.view, message.sequence, slot,
                                    slow_path=False, now_ms=now_ms)
        elif slot.slow_path and len(slot.commit_shares) >= self._nf_quorum:
            self._send_commit_proof(message.view, message.sequence, slot,
                                    slow_path=True, now_ms=now_ms)

    def _send_commit_proof(self, view: int, sequence: int, slot: _SbftSlot,
                           slow_path: bool, now_ms: float) -> None:
        self.charge(CryptoOp.THRESHOLD_AGGREGATE)
        try:
            certificate = self.auth.threshold_aggregate(
                list(slot.commit_shares.values())[: self._nf_quorum])
        except ThresholdError:
            return
        slot.commit_proof_sent = True
        slot.slow_path = slow_path
        if slow_path:
            self.slow_path_slots += 1
            # The slow path costs two additional linear phases; model their
            # latency by charging the collector an extra round of signing
            # and by flagging the proof so replicas charge the extra
            # verification round as well.
            self.charge(CryptoOp.THRESHOLD_SHARE)
            self.charge(CryptoOp.THRESHOLD_AGGREGATE)
        self._collector_timers.discard((view, sequence))
        self.cancel_timer(f"collector:{view}:{sequence}")
        self.broadcast(SbftCommitProof(
            view=view, sequence=sequence, proposal_digest=slot.proposal_digest,
            certificate=certificate, slow_path=slow_path,
        ), include_self=True)

    def handle_commit_proof(self, sender: str, message: SbftCommitProof,
                            now_ms: float) -> None:
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return
        if message.view != self.view or sender != self.collector_id:
            return
        slot = self._slot(message.view, message.sequence)
        if slot.batch is None:
            return
        self.charge(CryptoOp.THRESHOLD_VERIFY)
        if message.slow_path:
            # Extra verification round of the slow path.
            self.charge(CryptoOp.THRESHOLD_SHARE)
            self.charge(CryptoOp.THRESHOLD_VERIFY)
        if message.certificate is None or not self.auth.threshold_verify(
                message.certificate, slot.proposal_digest):
            return
        # The verified commit proof makes this slot certifiable to third
        # parties — the collector's threshold signature over the proposal
        # digest — so view-change requests need no trust in their sender.
        self._log[message.sequence] = LogEntry(
            sequence=message.sequence, view=message.view,
            digest=slot.proposal_digest, batch=slot.batch,
            proof=message.certificate,
        )
        self.commit_slot(sequence=message.sequence, view=message.view,
                         batch=slot.batch, proof=message.certificate,
                         now_ms=now_ms, speculative=False)

    # -- execution: replicas send state shares to the executor -------------------
    def send_replies(self, slot: CommittedSlot, record, now_ms: float) -> None:
        """Instead of replying to the client, send a state share to the executor."""
        sbft_slot = self._slot(slot.view, slot.sequence)
        sbft_slot.result_digest = record.result_digest
        self._replied[slot.batch.batch_id] = ClientReplyMessage(
            batch_id=slot.batch.batch_id, view=slot.view, sequence=slot.sequence,
            result_digest=record.result_digest, replica_id=self.node_id,
        )
        self.stop_progress_timer(slot.batch.batch_id)
        self.charge(CryptoOp.THRESHOLD_SHARE)
        share = self.auth.threshold_share(record.result_digest)
        message = SbftSignState(
            view=slot.view, sequence=slot.sequence, batch_id=slot.batch.batch_id,
            result_digest=record.result_digest, share=share, replica_id=self.node_id,
        )
        if self.node_id == self.executor_id:
            self.handle_sign_state(self.node_id, message, now_ms)
        else:
            self.send(self.executor_id, message)

    def handle_sign_state(self, sender: str, message: SbftSignState,
                          now_ms: float) -> None:
        """Executor: aggregate f+1 state shares and broadcast the execute ack."""
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return
        if message.view != self.view or self.node_id != self.executor_id:
            return
        slot = self._slot(message.view, message.sequence)
        if slot.execute_ack_sent or message.share is None:
            return
        # Share verification is deferred to aggregation (see PoeReplica).
        if not self.auth.threshold_verify_share(message.share, message.result_digest):
            return
        slot.state_shares[message.share.index] = message.share
        if len(slot.state_shares) < self._nf_quorum:
            return
        self.charge(CryptoOp.THRESHOLD_AGGREGATE)
        try:
            certificate = self.auth.threshold_aggregate(slot.state_shares.values())
        except ThresholdError:
            return
        slot.execute_ack_sent = True
        ack = SbftExecuteAck(
            view=message.view, sequence=message.sequence, batch_id=message.batch_id,
            result_digest=message.result_digest, certificate=certificate,
            size_bytes=self.config.reply_size_bytes(
                len(slot.batch) if slot.batch else self.config.batch_size),
        )
        self.broadcast(ack)
        reply_to = self._reply_targets.get(message.batch_id)
        if slot.batch is not None and not reply_to:
            reply_to = slot.batch.reply_to
        if reply_to:
            self.send(reply_to, ClientReplyMessage(
                batch_id=message.batch_id, view=message.view,
                sequence=message.sequence, result_digest=message.result_digest,
                replica_id=self.node_id, extra=certificate,
                size_bytes=ack.size_bytes,
            ))

    def handle_execute_ack(self, sender: str, message: SbftExecuteAck,
                           now_ms: float) -> None:
        self.charge(CryptoOp.THRESHOLD_VERIFY)

    # ------------------------------------------------------------- view change
    # Generic machinery in PrimaryBackupReplica; SBFT's requests carry its
    # threshold-certified slots, and entering a view rotates the collector
    # and executor (both derive from the view number).

    def view_change_entry_valid(self, entry: LogEntry) -> bool:
        """Certified slots are threshold signatures: re-verify every one.

        Each entry must carry a commit proof for the recomputed proposal
        digest — the same admission rule PoE applies to its VC-REQUESTs
        (paper, Figure 5 preconditions).
        """
        expected = sbft_proposal_digest(entry.view, entry.sequence, entry.batch)
        if entry.digest != expected:
            return False
        self.charge(CryptoOp.THRESHOLD_VERIFY)
        return entry.proof is not None and self.auth.threshold_verify(
            entry.proof, expected)

    def adopt_new_view(self, proposal: NewView, requests, now_ms: float) -> int:
        """Adopt the longest certified prefix; commit the slots this replica missed.

        SBFT never executes speculatively, so there is nothing to roll
        back; executed slots the admissible requests happen not to cover
        keep ``kmax`` at this replica's executed prefix (same rule as
        PBFT).
        """
        # SBFT admission verifies every entry's threshold commit proof, so
        # certificate-backed entries are trustworthy even on single-request
        # support (sub-checkpoint slots included).
        prefix, kmax = longest_consecutive_prefix(requests, f=self._f_plus_1 - 1,
                                                  trust_certificates=True)
        kmax = max(kmax, self.last_executed_sequence)
        self.evict_uncovered(prefix, kmax)
        self.commit_adopted(prefix, now_ms)
        return kmax

    def adopt_entry(self, entry: LogEntry, now_ms: float) -> None:
        slot = self._slot(entry.view, entry.sequence)
        slot.batch = entry.batch
        slot.proposal_digest = entry.digest
        super().adopt_entry(entry, now_ms)

    def on_view_entered(self, view: int, now_ms: float) -> None:
        """Rotation epilogue: disarm the previous views' collector timers.

        The collector role moved with the view; a stale timer from the old
        view firing after rotation would re-enter the slow-path logic for
        a slot the old collector no longer owns.
        """
        for key in [k for k in self._collector_timers if k[0] < view]:
            self._collector_timers.discard(key)
            self.cancel_timer(f"collector:{key[0]}:{key[1]}")

    # ---------------------------------------------------------------- timers
    def on_protocol_timer(self, name: str, payload, now_ms: float) -> None:
        if self.handle_view_change_timer(name, payload, now_ms):
            return
        if not name.startswith("collector:"):
            return
        view, sequence = payload
        self._collector_timers.discard((view, sequence))
        if view != self.view or self.node_id != self.collector_id:
            return
        slot = self._slot(view, sequence)
        if slot.commit_proof_sent:
            return
        # Fast path failed: fall back to the slow path, which only needs nf
        # shares (two extra linear phases are charged when the proof is sent).
        slot.slow_path = True
        if len(slot.commit_shares) >= self._nf_quorum:
            self._send_commit_proof(view, sequence, slot, slow_path=True, now_ms=now_ms)


class SbftClientPool(ClientPool):
    """SBFT client pool: one aggregated execute-ack completes a request."""

    QUORUM_RULE = "1"

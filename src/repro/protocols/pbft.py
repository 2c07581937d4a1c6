"""PBFT baseline (Castro & Liskov), as implemented in RESILIENTDB.

The paper compares PoE against a PBFT implementation "based on the
BFTSmart framework with the added benefits of pipelining and
multi-threading of RESILIENTDB" (Section IV-A).  PBFT needs three phases:
a linear PRE-PREPARE followed by two all-to-all phases (PREPARE and
COMMIT); replicas authenticate with MACs and clients wait for ``f + 1``
matching replies.  The quadratic message complexity — and the matching
quadratic MAC signing/verification cost — is what PoE's three linear
phases avoid.  Everything around the three phases is
:class:`~repro.protocols.recovery.PrimaryBackupReplica`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

from repro.core.view_change import longest_consecutive_prefix
from repro.crypto.cost import CryptoOp
from repro.crypto.hashing import flat_digest
from repro.protocols.base import Message, ProtocolInfo
from repro.protocols.quorum import VoteSet
from repro.protocols.recovery import LogEntry, NewView, PrimaryBackupReplica
from repro.workload.clients import ClientPool
from repro.workload.transactions import RequestBatch


#: The digest a PRE-PREPARE binds to its slot, which votes and view-change
#: entries carry: ``pbft_batch_digest(view, sequence, batch.digest())``,
#: the shared memo itself (a hit runs no Python frame).
pbft_batch_digest = partial(flat_digest, "pbft")


@dataclass(slots=True)
class PbftPrePrepare(Message):
    """PRE-PREPARE(v, k, batch) broadcast by the primary."""

    view: int = 0
    sequence: int = 0
    batch: RequestBatch = None


@dataclass(slots=True)
class PbftPrepare(Message):
    """PREPARE(v, k, d) broadcast by every replica."""

    view: int = 0
    sequence: int = 0
    batch_digest: bytes = b""
    replica_id: str = ""


@dataclass(slots=True)
class PbftCommit(Message):
    """COMMIT(v, k, d) broadcast by every prepared replica."""

    view: int = 0
    sequence: int = 0
    batch_digest: bytes = b""
    replica_id: str = ""


@dataclass(slots=True)
class _PbftSlot:
    """Per (view, sequence) consensus bookkeeping.

    The PREPARE/COMMIT phases are all-to-all: at n replicas each slot
    absorbs ~2n² vote deliveries, so the vote sets are aggregated
    :class:`~repro.protocols.quorum.VoteSet` bitsets built by
    :meth:`PbftReplica.new_slot` with the deployment's index map.
    """

    batch: Optional[RequestBatch] = None
    batch_digest: bytes = b""
    prepare_votes: VoteSet = None
    commit_votes: VoteSet = None
    prepared: bool = False
    committed: bool = False
    commit_sent: bool = False
    parked: Optional[list] = None  # PrimaryBackupReplica.park_vote

    def open_tallies(self) -> Tuple[VoteSet, ...]:
        # Commit votes accumulate before the slot prepares; committed
        # implies prepared.
        if not self.prepared:
            return (self.prepare_votes, self.commit_votes)
        return () if self.committed else (self.commit_votes,)


class PbftReplica(PrimaryBackupReplica):
    """A PBFT replica with out-of-order pre-prepares and MAC authentication."""

    PROTOCOL_INFO = ProtocolInfo(
        name="PBFT",
        phases=3,
        messages="O(n + 2n^2)",
        resilience="f",
        requirements="",
    )

    MESSAGE_HANDLERS = {
        PbftPrePrepare: "handle_preprepare",
        PbftPrepare: "handle_prepare",
        PbftCommit: "handle_commit",
    }

    def new_slot(self) -> _PbftSlot:
        index_map = self._vote_index
        return _PbftSlot(prepare_votes=VoteSet(index_map),
                         commit_votes=VoteSet(index_map))

    # ---------------------------------------------------------------- proposing
    def create_proposal(self, sequence: int, batch: RequestBatch, now_ms: float) -> None:
        """Primary: broadcast PRE-PREPARE and cast its own PREPARE vote."""
        batch_digest = pbft_batch_digest(self.view, sequence, batch.digest())
        self.charge(CryptoOp.HASH)
        self.charge(CryptoOp.MAC_SIGN, self._fanout)
        slot = self._slot(self.view, sequence)
        slot.batch = batch
        slot.batch_digest = batch_digest
        if slot.parked:
            self.count_parked(slot, batch_digest)
        self._accepted[(self.view, sequence)] = batch_digest
        self.broadcast(PbftPrePrepare(
            view=self.view, sequence=sequence, batch=batch,
            size_bytes=self.config.proposal_size_bytes(len(batch)),
        ))
        self._cast_prepare(self.view, sequence, slot, now_ms)

    # ---------------------------------------------------------------- messages
    def handle_preprepare(self, sender: str, message: PbftPrePrepare,
                          now_ms: float) -> None:
        key = self.admit_proposal(sender, message)
        if key is None:
            return
        self.charge(CryptoOp.MAC_VERIFY)
        self.charge(CryptoOp.HASH)
        batch_digest = pbft_batch_digest(message.view, message.sequence,
                                         message.batch.digest())
        self._accepted[key] = batch_digest
        slot = self._slot(message.view, message.sequence)
        slot.batch = message.batch
        slot.batch_digest = batch_digest
        if slot.parked:
            self.count_parked(slot, batch_digest)
        self._cast_prepare(message.view, message.sequence, slot, now_ms)

    def _cast_prepare(self, view: int, sequence: int, slot: _PbftSlot,
                      now_ms: float) -> None:
        self.charge(CryptoOp.MAC_SIGN, self._fanout)
        self.broadcast(PbftPrepare(
            view=view, sequence=sequence, batch_digest=slot.batch_digest,
            replica_id=self.node_id,
        ))
        slot.prepare_votes.add(self.node_id)
        self._check_prepared(view, sequence, slot, now_ms)

    def handle_prepare(self, sender: str, message: PbftPrepare, now_ms: float) -> None:
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return
        if message.view != self.view:
            return
        self._pending_cpu_ms += self._mac_verify_ms  # charge(MAC_VERIFY)
        # Inline slot hit path (the vote flood always hits an existing slot).
        slot = self._slots.get((message.view << 32) | message.sequence)
        if slot is None:
            slot = self._slot(message.view, message.sequence)
        if slot.prepared:
            # Late vote after the prepare quorum: nothing reads the prepare
            # set once the slot is prepared — skip the dead bookkeeping on
            # this half of the ~2n²-per-slot vote flood.
            return
        if not slot.batch_digest or message.batch_digest != slot.batch_digest:
            self.park_vote(slot, slot.prepare_votes, sender, message.batch_digest)
            return
        # Vote identity is the transport-level sender: the claimed
        # ``message.replica_id`` is spoofable, and counting it would let one
        # Byzantine replica cast a PREPARE vote per forged identity.
        slot.prepare_votes.add(sender)
        if slot.batch is None or slot.prepare_votes.count < self._2f_plus_1:
            return
        self._check_prepared(message.view, message.sequence, slot, now_ms)

    def _check_prepared(self, view: int, sequence: int, slot: _PbftSlot,
                        now_ms: float) -> None:
        if slot.prepared or slot.batch is None:
            return
        if slot.prepare_votes.count < self._2f_plus_1:
            return
        slot.prepared = True
        self.charge(CryptoOp.MAC_SIGN, self._fanout)
        self.broadcast(PbftCommit(
            view=view, sequence=sequence, batch_digest=slot.batch_digest,
            replica_id=self.node_id,
        ))
        slot.commit_sent = True
        slot.commit_votes.add(self.node_id)
        self._check_committed(view, sequence, slot, now_ms)

    def handle_commit(self, sender: str, message: PbftCommit, now_ms: float) -> None:
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return
        if message.view != self.view:
            return
        self._pending_cpu_ms += self._mac_verify_ms  # charge(MAC_VERIFY)
        # Inline slot hit path (the vote flood always hits an existing slot).
        slot = self._slots.get((message.view << 32) | message.sequence)
        if slot is None:
            slot = self._slot(message.view, message.sequence)
        if slot.committed:
            # Late vote after the commit quorum: the committers snapshot
            # was taken at commit time, so recording the voter is dead work.
            return
        if not slot.batch_digest or message.batch_digest != slot.batch_digest:
            self.park_vote(slot, slot.commit_votes, sender, message.batch_digest)
            return
        # Transport-level sender, not the spoofable message.replica_id.
        # Commit votes accumulate even before the slot prepares locally.
        slot.commit_votes.add(sender)
        if (not slot.prepared or slot.batch is None
                or slot.commit_votes.count < self._2f_plus_1):
            return
        self._check_committed(message.view, message.sequence, slot, now_ms)

    def _check_committed(self, view: int, sequence: int, slot: _PbftSlot,
                         now_ms: float) -> None:
        if slot.committed or not slot.prepared or slot.batch is None:
            return
        if slot.commit_votes.count < self._2f_plus_1:
            return
        slot.committed = True
        committers = slot.commit_votes.freeze()
        self._log[sequence] = LogEntry(
            sequence=sequence, view=view, digest=slot.batch_digest,
            batch=slot.batch, proof=committers,
        )
        self.commit_slot(sequence=sequence, view=view, batch=slot.batch,
                         proof=committers, now_ms=now_ms, speculative=False)

    # ------------------------------------------------------------- view change
    # Generic machinery in PrimaryBackupReplica; PBFT supplies its payloads.

    def view_change_entry_valid(self, entry: LogEntry) -> bool:
        """An honest entry carries the digest the PRE-PREPARE bound to its slot.

        Without this check a forged request could park arbitrary garbage
        in the per-view request pool; the digest recomputation also forces
        a forger to at least fabricate *self-consistent* entries, which
        support-ranked selection then outvotes.
        """
        return entry.batch is not None and entry.digest == pbft_batch_digest(
            entry.view, entry.sequence, entry.batch.digest())

    def adopt_new_view(self, proposal: NewView, requests, now_ms: float) -> int:
        # Support-ranked selection (shared with PoE): below the durable
        # anchor — the highest stable checkpoint any request proves — a
        # slot needs f + 1 matching requests, because honest requests only
        # carry entries above their *own* stable checkpoint and a lone
        # forged request claiming stable_checkpoint = -1 would otherwise
        # be the unique witness for every settled sub-anchor slot
        # (first-writer-wins union, the PR-5 residual).  Sub-anchor slots
        # nobody corroborates are left to checkpoint state transfer.
        prefix, kmax = longest_consecutive_prefix(requests, f=self._f_plus_1 - 1)
        kmax = max(kmax, self.last_executed_sequence)
        # No eviction: a committed PBFT slot is final.
        self.commit_adopted(prefix, now_ms)
        return kmax


class PbftClientPool(ClientPool):
    """PBFT client pool: a request completes after ``f + 1`` matching replies."""

    QUORUM_RULE = "f+1"

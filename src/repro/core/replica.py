"""The PoE replica state machine.

Implements the normal-case algorithm of the paper (Figure 3) in both its
threshold-signature and MAC instantiations, speculative execution with
rollback, and the view-change algorithm (Figure 5).

Normal case (threshold-signature mode, Section II-B):

1. the primary broadcasts ``PROPOSE(<T>_c, v, k)``;
2. each replica supports the first ``k``-th proposal of view ``v`` it
   receives by sending a signature share to the primary;
3. the primary aggregates ``nf`` shares into a threshold signature and
   broadcasts it in a ``CERTIFY`` message;
4. replicas that receive a valid certificate *view-commit*, speculatively
   execute the batch in sequence order, and send ``INFORM`` to the client.

MAC mode (Appendix A) replaces steps 2-3 with an all-to-all ``SUPPORT``
broadcast: a replica view-commits once it has ``nf`` matching supports.

View-change (Section II-C): replicas that suspect the primary broadcast
``VC-REQUEST`` messages carrying their executed-slot certificates; the
next primary combines ``nf`` of them into ``NV-PROPOSE``; replicas adopt
the longest consecutive prefix, rolling back any speculative execution
beyond it.

Everything around those phases — the slot table, first-proposal admission,
checkpoint pruning, the view-change machinery, its messages and the log
they are built from — is
:class:`~repro.protocols.recovery.PrimaryBackupReplica`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.messages import PoeCertify, PoeCommitVote, PoePropose, PoeSupport
from repro.core.view_change import (
    longest_consecutive_prefix,
    proposal_digest,
    validate_view_change_request,
)
from repro.crypto.authenticator import Authenticator, SchemeKind
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.crypto.threshold import ThresholdError
from repro.protocols.base import NodeConfig, ProtocolInfo
from repro.protocols.quorum import VoteSet
from repro.protocols.recovery import (
    LogEntry,
    NewView,
    PrimaryBackupReplica,
    ViewChangeRequest,
)
from repro.workload.transactions import RequestBatch


@dataclass(slots=True)
class _SlotState:
    """Per (view, sequence) consensus bookkeeping.

    ``support_votes`` / ``commit_votes`` are aggregated
    :class:`~repro.protocols.quorum.VoteSet` bitsets (constructed by
    :meth:`PoeReplica.new_slot` with the deployment's index map) rather
    than per-slot ``set`` objects: in MAC mode every replica counts the n²
    SUPPORT flood, and the bitset makes each counted vote integer work.
    At ``nf`` supports ``support_votes.freeze()`` becomes the slot's
    proof: a :class:`~repro.protocols.quorum.QuorumProof` of constant size
    that its log entry and ledger block keep.
    A slot holds only the tallies its replica's scheme counts — ``shares``
    in threshold mode, ``support_votes`` in MAC mode, ``commit_votes``
    without speculation — and the others stay ``None``.
    """

    batch: Optional[RequestBatch] = None
    proposal_digest: bytes = b""
    supported: bool = False
    shares: Optional[Dict[int, object]] = None
    support_votes: Optional[VoteSet] = None
    certified: bool = False
    commit_votes: Optional[VoteSet] = None
    commit_vote_sent: bool = False
    committed: bool = False
    parked: Optional[list] = None  # PrimaryBackupReplica.park_vote

    def open_tallies(self) -> Tuple[Union[VoteSet, Dict[int, object]], ...]:
        if not self.certified:
            # The threshold primary's shares aggregate into the certificate.
            tallies = (self.shares, self.support_votes, self.commit_votes)
        elif self.commit_vote_sent and not self.committed:
            # Without speculation a certified slot casts its commit vote
            # and goes on counting until it commits.
            tallies = (self.commit_votes,)
        else:
            return ()
        return tuple(tally for tally in tallies if tally is not None)


class PoeReplica(PrimaryBackupReplica):
    """A PoE replica (primary or backup, depending on the view)."""

    PROTOCOL_INFO = ProtocolInfo(
        name="PoE",
        phases=3,
        messages="O(3n)",
        resilience="f",
        requirements="signature agnostic",
    )

    MESSAGE_HANDLERS = {
        PoePropose: "handle_propose",
        PoeSupport: "handle_support",
        PoeCertify: "handle_certify",
        PoeCommitVote: "handle_commit_vote",
    }

    #: Deployments at or below this size default to MAC authentication,
    #: following the paper's guidance that "when few replicas are
    #: participating in consensus (up to 16), a single phase of all-to-all
    #: communication is inexpensive and using MACs can make computations
    #: cheap" (ingredient I3).
    MAC_SCHEME_MAX_REPLICAS = 16

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        authenticator: Authenticator,
        cost_model: Optional[CryptoCostModel] = None,
        initial_table: Optional[Dict[str, str]] = None,
        scheme: Optional[SchemeKind] = None,
        speculative: bool = True,
    ) -> None:
        super().__init__(node_id, config, authenticator, cost_model, initial_table)
        if scheme is None:
            scheme = (SchemeKind.MACS if config.n <= self.MAC_SCHEME_MAX_REPLICAS
                      else SchemeKind.THRESHOLD)
        self.scheme = scheme
        # Plain bool for the per-SUPPORT scheme branch: `scheme is
        # SchemeKind.THRESHOLD` costs a global + enum-attribute load per
        # delivered vote.
        self._is_threshold = scheme is SchemeKind.THRESHOLD
        #: Ablation switch: ``False`` re-introduces a PBFT-style commit phase
        #: after view-commit instead of executing speculatively.
        self.speculative = speculative

    def new_slot(self) -> _SlotState:
        if self._is_threshold:
            slot = _SlotState(shares={})
        else:
            slot = _SlotState(support_votes=VoteSet(self._vote_index))
        if not self.speculative:
            slot.commit_votes = VoteSet(self._vote_index)
        return slot

    # -------------------------------------------------------------- proposing
    def create_proposal(self, sequence: int, batch: RequestBatch, now_ms: float) -> None:
        """Primary: broadcast PROPOSE and record its own support."""
        digest_h = proposal_digest(sequence, self.view, batch.digest())
        self._pending_cpu_ms += self._op_cost_ms[CryptoOp.HASH.ordinal]
        slot = self._slot(self.view, sequence)
        slot.batch = batch
        slot.proposal_digest = digest_h
        if slot.parked:
            self.count_parked(slot, digest_h)
        self._accepted[(self.view, sequence)] = digest_h
        proposal = PoePropose(
            view=self.view, sequence=sequence, batch=batch,
            size_bytes=self.config.proposal_size_bytes(len(batch)),
        )
        self.broadcast(proposal)
        # Optimisation from the paper (Section II-E): the primary generates
        # one support itself, so it only needs nf - 1 shares from others.
        if self._is_threshold:
            self._pending_cpu_ms += self._op_cost_ms[CryptoOp.THRESHOLD_SHARE.ordinal]
            share = self.auth.threshold.sign_share(self.auth.threshold_index, digest_h)
            slot.shares[share.index] = share
        else:
            slot.support_votes.add(self.node_id)
        slot.supported = True

    # -- PROPOSE -----------------------------------------------------------------
    def handle_propose(self, sender: str, message: PoePropose, now_ms: float) -> None:
        """Backup: support the first k-th proposal of the current view."""
        key = self.admit_proposal(sender, message)
        if key is None:
            return
        view, sequence = key
        digest_h = proposal_digest(sequence, view, message.batch.digest())
        self._pending_cpu_ms += self._op_cost_ms[CryptoOp.HASH.ordinal]
        self._accepted[key] = digest_h
        slot = self._slot(view, sequence)
        slot.batch = message.batch
        slot.proposal_digest = digest_h
        slot.supported = True
        if slot.parked:
            self.count_parked(slot, digest_h)
        if self._is_threshold:
            self._pending_cpu_ms += self._op_cost_ms[CryptoOp.THRESHOLD_SHARE.ordinal]
            self.send(sender, PoeSupport(  # admission checked: the primary
                view=view, sequence=sequence, proposal_digest=digest_h,
                share=self.auth.threshold.sign_share(self.auth.threshold_index, digest_h),
                replica_id=self.node_id,
            ))
        else:
            self.charge(CryptoOp.MAC_SIGN, self._fanout)
            support = PoeSupport(
                view=view, sequence=sequence,
                proposal_digest=digest_h, replica_id=self.node_id,
            )
            self.broadcast(support)
            slot.support_votes.add(self.node_id)
            # The primary's PROPOSE doubles as its SUPPORT for the slot, so
            # backups count it without waiting for an extra message.
            slot.support_votes.add(sender)
            self._check_mac_commit(view, sequence, slot, now_ms)

    # -- SUPPORT -----------------------------------------------------------------
    def handle_support(self, sender: str, message: PoeSupport, now_ms: float) -> None:
        """Count one SUPPORT: a share at the primary, a vote in MAC mode.

        In MAC mode this is the n²-per-slot path, so the whole vote is
        handled in this one frame; so is a share, at the primary.
        """
        view = message.view
        if view != self.view:
            if view > self.view:
                self.defer_message(view, sender, message)
            return
        slot = self._slots.get((view << 32) | message.sequence)
        if slot is None:
            slot = self._slot(view, message.sequence)
        if self._is_threshold:
            # Primary: collect shares, certify at nf (is_primary(), from its memo).
            if (self.node_id != (self._primary if self._primary_view == view
                                 else self.primary_id)
                    or slot.certified or message.share is None):
                return
            if slot.proposal_digest and message.proposal_digest != slot.proposal_digest:
                return
            # Shares are not individually verified on the hot path:
            # aggregation validates the combined signature once, and a
            # corrupt share shows up there (RESILIENTDB defers share
            # verification the same way).
            if not self.auth.threshold.verify_share(message.share,
                                                    slot.proposal_digest):
                return
            slot.shares[message.share.index] = message.share
            if len(slot.shares) < self._nf_quorum:
                return
            self.charge(CryptoOp.THRESHOLD_AGGREGATE)
            try:
                certificate = self.auth.threshold.aggregate(slot.shares.values())
            except ThresholdError:
                return
            slot.certified = True
            self.broadcast(PoeCertify(
                view=view, sequence=message.sequence,
                proposal_digest=slot.proposal_digest, certificate=certificate,
            ))
            self._view_commit(view, message.sequence, slot, certificate, now_ms)
            return
        self._pending_cpu_ms += self._mac_verify_ms  # charge(MAC_VERIFY)
        if slot.certified:
            # Late vote after quorum: the proof was frozen at certification
            # and nothing reads the vote set afterwards — recording the
            # voter would be dead work on ~(n - nf)/n of the flood.
            return
        if not slot.proposal_digest or message.proposal_digest != slot.proposal_digest:
            self.park_vote(slot, slot.support_votes, sender, message.proposal_digest)
            return
        # Vote identity is the transport-level sender, never the claimed
        # ``message.replica_id``: a MAC authenticates the link, so a Byzantine
        # replica can lie about who it is inside the payload but cannot forge
        # the channel it sends on.  Counting the claimed id would let one
        # faulty replica vote once per forged identity.
        slot.support_votes.add(sender)
        # Below nf nothing can change; skip the call on most of the flood.
        if slot.support_votes.count >= self._nf_quorum:
            self._check_mac_commit(view, message.sequence, slot, now_ms)

    def _check_mac_commit(self, view: int, sequence: int, slot: _SlotState,
                          now_ms: float) -> None:
        """The MAC-mode vote rule (Appendix A), after a vote was recorded:
        view-commit a supported slot once ``nf`` matching SUPPORTs are in."""
        if (slot.certified or not slot.supported or slot.batch is None
                or slot.support_votes.count < self._nf_quorum):
            return
        slot.certified = True
        self._view_commit(view, sequence, slot, slot.support_votes.freeze(), now_ms)

    # -- CERTIFY -----------------------------------------------------------------
    def handle_certify(self, sender: str, message: PoeCertify, now_ms: float) -> None:
        """Backup: view-commit on a valid certificate for a supported slot."""
        view = message.view
        if view > self.view:
            self.defer_message(view, sender, message)
            return
        if view != self.view or sender != (
                self._primary if self._primary_view == view else self.primary_id):
            return
        # A probe, not _slot(): a slot never proposed has nothing to certify.
        slot = self._slots.get((view << 32) | message.sequence)
        if (slot is None or slot.certified or not slot.supported
                or slot.batch is None):
            return
        if message.proposal_digest != slot.proposal_digest:
            return
        self._pending_cpu_ms += self._op_cost_ms[CryptoOp.THRESHOLD_VERIFY.ordinal]
        certificate = message.certificate
        if certificate is None or not self.auth.threshold.verify(
                certificate, slot.proposal_digest):
            return
        slot.certified = True
        self._view_commit(view, message.sequence, slot, certificate, now_ms)

    def _view_commit(self, view: int, sequence: int, slot: _SlotState,
                     proof: object, now_ms: float) -> None:
        """Log VCommit and schedule speculative execution (Figure 3, L18-23)."""
        self._log[sequence] = LogEntry(
            sequence=sequence, view=view, digest=slot.proposal_digest,
            batch=slot.batch, proof=proof,
        )
        if not self.speculative:
            # Ablation of ingredient I1: wait for an extra commit phase
            # before executing, exactly like PBFT's commit round.
            self._cast_commit_vote(view, sequence, slot, now_ms)
            return
        self.commit_slot(sequence=sequence, view=view, batch=slot.batch,
                         proof=proof, now_ms=now_ms, speculative=True)

    # -- non-speculative ablation --------------------------------------------------
    def _cast_commit_vote(self, view: int, sequence: int, slot: _SlotState,
                          now_ms: float) -> None:
        if not slot.commit_vote_sent:
            slot.commit_vote_sent = True
            self.charge(CryptoOp.MAC_SIGN, self._fanout)
            self.broadcast(PoeCommitVote(
                view=view, sequence=sequence,
                proposal_digest=slot.proposal_digest, replica_id=self.node_id,
            ))
            slot.commit_votes.add(self.node_id)
        self._check_non_speculative_commit(view, sequence, slot, now_ms)

    def handle_commit_vote(self, sender: str, message: PoeCommitVote,
                           now_ms: float) -> None:
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return
        if message.view != self.view:
            return
        self.charge(CryptoOp.MAC_VERIFY)
        if self.speculative:
            return  # no commit phase here: nothing counts the vote
        slot = self._slot(message.view, message.sequence)
        if not slot.proposal_digest or message.proposal_digest != slot.proposal_digest:
            self.park_vote(slot, slot.commit_votes, sender, message.proposal_digest)
            return
        # Transport-level sender, not the spoofable message.replica_id.
        slot.commit_votes.add(sender)
        self._check_non_speculative_commit(message.view, message.sequence, slot, now_ms)

    def _check_non_speculative_commit(self, view: int, sequence: int,
                                      slot: _SlotState, now_ms: float) -> None:
        if not slot.certified or slot.batch is None:
            return
        if sequence in self._committed or sequence <= self.last_executed_sequence:
            return
        if slot.commit_votes.count < self._nf_quorum:
            return
        slot.committed = True
        self.commit_slot(sequence=sequence, view=view, batch=slot.batch,
                         proof=self._log.get(sequence),
                         now_ms=now_ms, speculative=False)

    # ------------------------------------------------------------- view change
    # The generic machinery (join rule, retry back-off, NEW-VIEW quorum,
    # view-entry epilogue) lives in PrimaryBackupReplica; the hooks below
    # supply PoE's payloads (paper, Figure 5).

    def view_change_quorum(self) -> int:
        """The new primary combines ``nf`` valid VC-REQUESTs (Figure 5, L9).

        ``nf`` of the *active epoch* — the cache is refreshed whenever a
        reconfiguration activates.
        """
        return self._nf_quorum

    def validate_view_change_request_message(self, request: ViewChangeRequest,
                                             view: int) -> bool:
        return validate_view_change_request(
            request, self.auth, expected_view=view,
            verify_certificates=self.scheme is SchemeKind.THRESHOLD)

    def adopt_new_view(self, proposal: NewView, requests, now_ms: float) -> int:
        """Adopt the new view: execute/roll back per the NV-PROPOSE (Figure 5, L11-16)."""
        prefix, kmax = longest_consecutive_prefix(
            requests, f=self._f_plus_1 - 1,
            trust_certificates=self.scheme is SchemeKind.THRESHOLD)
        # Roll back to the last slot where this replica's execution agrees
        # with the adopted prefix, and never keep speculation beyond it —
        # but never below the local stable checkpoint either: kmax is
        # anchored at the *requests'* checkpoints, and under this replica's
        # own the undo logs are pruned, so the ledger would be truncated
        # over a store that cannot be reverted.
        self.rollback_speculation(
            max(self.checkpoints.stable_sequence,
                min(kmax, self.rollback_target(prefix, kmax))), now_ms)
        self.evict_uncovered(prefix, kmax)
        self.commit_adopted(prefix, now_ms)
        return kmax

"""Zyzzyva baseline: single-phase speculative BFT with client-driven commit.

Zyzzyva's fast path has the absolute minimal cost: the primary orders a
request, every replica executes it immediately and answers the client,
and the *client* completes only when it has matching speculative replies
from **all** ``n`` replicas (Section IV-A of the paper).  If even one
replica fails or is slow, the client times out; with at least ``2f + 1``
matching replies it distributes a commit certificate and waits for
``2f + 1`` acknowledgements (the second phase); with fewer it must
retransmit.  This reliance on clients and on all replicas answering is
exactly what collapses Zyzzyva's throughput under a single backup
failure (Figures 9(a), 9(e), 9(i)).

Recovery from a faulty primary is *client-triggered*: a client that
collects conflicting speculative responses for the same (view, sequence)
slot holds evidence that the primary equivocated its ORDER-REQs and
broadcasts a proof of misbehaviour; replicas receiving it — or timing
out on a forwarded request — start the view change of the shared layer
(:class:`~repro.protocols.recovery.PrimaryBackupReplica`).  Because
execution is purely speculative, view-change requests carry unverifiable
speculative histories plus the highest *commit certificate* the replica
acknowledged; the new view reconciles them from the highest commit
certificate upward (``reconcile_speculative_histories``), rolling
divergent speculation back to the last agreement point.  This is the
recovery path whose absence made the fault matrix mark Zyzzyva
expected-unsafe under equivocation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Set, Tuple

from repro.core.view_change import (
    reconcile_speculative_histories,
    speculative_anchor,
)
from repro.ledger.execution import modelled_result_digest
from repro.crypto.authenticator import Authenticator
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.crypto.hashing import digest, shared_digest
from repro.protocols.base import Message, NodeConfig, ProtocolInfo
from repro.protocols.checkpoint import StateTransferRequest
from repro.protocols.client_messages import ClientReplyMessage
from repro.protocols.recovery import (
    LogEntry,
    NewView,
    PrimaryBackupReplica,
    ViewChangeRequest,
)
from repro.protocols.replica_base import CommittedSlot
from repro.workload.clients import ClientPool, _PendingBatch
from repro.workload.transactions import RequestBatch


_HISTORY = "zyzzyva-history"
#: A link of the history chain ORDER-REQs carry, ``zyzzyva_history_link(
#: previous, sequence, batch.digest())``: only the primary computes one.
zyzzyva_history_link = partial(digest, _HISTORY)
#: The chain's root at boot, which every replica computes alike.
zyzzyva_genesis_history = partial(shared_digest, _HISTORY, "genesis")


@dataclass
class ZyzzyvaOrderRequest(Message):
    """ORDER-REQ(v, k, batch, h_k): the primary's speculative ordering."""

    view: int = 0
    sequence: int = 0
    batch: RequestBatch = None
    history_digest: bytes = b""


@dataclass
class ZyzzyvaCommitCertificate(Message):
    """COMMIT(c, CC): a client forwarding its 2f+1 matching-reply certificate."""

    batch_id: str = ""
    view: int = 0
    sequence: int = 0
    result_digest: bytes = b""
    responders: Tuple[str, ...] = ()
    client_id: str = ""


@dataclass
class ZyzzyvaLocalCommit(Message):
    """LOCAL-COMMIT(v, d): a replica acknowledging a commit certificate."""

    batch_id: str = ""
    view: int = 0
    sequence: int = 0
    replica_id: str = ""


@dataclass
class ZyzzyvaProofOfMisbehaviour(Message):
    """POM(v, <OR, OR'>): client evidence that the primary equivocated.

    In Zyzzyva the proof carries two ORDER-REQs signed by the primary for
    the same sequence number with different histories.  This MAC-mode
    reproduction cannot re-verify the primary's per-link authenticators,
    so the evidence is the pair of conflicting speculative responses the
    client observed, as ``(view, sequence, batch_id, result_digest)``
    tuples.  A replica accepting a forged proof can at worst start a view
    change — a liveness nuisance, never a safety violation — mirroring
    how MAC-mode PoE skips certificate verification and leans on quorum
    intersection instead.
    """

    view: int = 0
    evidence: Tuple[Tuple[int, int, str, bytes], ...] = ()
    client_id: str = ""


class ZyzzyvaReplica(PrimaryBackupReplica):
    """A Zyzzyva replica: execute speculatively straight from the ordering.

    There is no vote phase between replicas, so the slot table stays empty;
    ``_accepted`` maps each ordered slot to its history digest.
    """

    # Figure 1 reproduces the paper's table, which characterises *published*
    # Zyzzyva ("reliable clients and unsafe"); this implementation adds the
    # recovery path the paper's comparison says it lacks.
    PROTOCOL_INFO = ProtocolInfo(
        name="Zyzzyva",
        phases=1,
        messages="O(n)",
        resilience="0",
        requirements="reliable clients and unsafe",
    )

    MESSAGE_HANDLERS = {
        ZyzzyvaOrderRequest: "handle_order_request",
        ZyzzyvaCommitCertificate: "handle_commit_certificate",
        ZyzzyvaProofOfMisbehaviour: "handle_proof_of_misbehaviour",
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
        self._history_digest = zyzzyva_genesis_history()
        #: Validated client commit certificates, by sequence; the highest one
        #: anchors history reconciliation in a view change.
        self._commit_certs: Dict[int, ZyzzyvaCommitCertificate] = {}
        self.local_commits_sent = 0
        self.proofs_of_misbehaviour_accepted = 0

    # ---------------------------------------------------------------- proposing
    def create_proposal(self, sequence: int, batch: RequestBatch, now_ms: float) -> None:
        """Primary: extend the speculative history and broadcast the ordering."""
        self._history_digest = zyzzyva_history_link(self._history_digest,
                                                    sequence, batch.digest())
        self.charge(CryptoOp.HASH)
        self.charge(CryptoOp.MAC_SIGN, self._fanout)
        message = ZyzzyvaOrderRequest(
            view=self.view, sequence=sequence, batch=batch,
            history_digest=self._history_digest,
            size_bytes=self.config.proposal_size_bytes(len(batch)),
        )
        self._accepted[(self.view, sequence)] = self._history_digest
        self.broadcast(message)
        # The primary executes speculatively as well.
        self.commit_slot(sequence=sequence, view=self.view, batch=batch,
                         proof=self._history_digest, now_ms=now_ms, speculative=True)

    # ---------------------------------------------------------------- messages
    def handle_order_request(self, sender: str, message: ZyzzyvaOrderRequest,
                             now_ms: float) -> None:
        key = self.admit_proposal(sender, message)
        if key is None:
            return
        self.charge(CryptoOp.MAC_VERIFY)
        self.charge(CryptoOp.HASH)
        self._accepted[key] = message.history_digest
        self.commit_slot(sequence=message.sequence, view=message.view,
                         batch=message.batch, proof=message.history_digest,
                         now_ms=now_ms, speculative=True)

    def handle_commit_certificate(self, sender: str,
                                  message: ZyzzyvaCommitCertificate,
                                  now_ms: float) -> None:
        """Second phase: acknowledge a client's 2f+1 commit certificate.

        The certificate is client input and is validated before it earns a
        LOCAL-COMMIT: it must name ``2f + 1`` distinct *real* replicas as
        responders and match the result this replica's own speculative
        history produced at that slot — a forged certificate (fake
        responder ids, or a digest the replica never computed) is dropped.
        A certificate from an *older* view stays acceptable as long as the
        certified slot survived into the current history (the execution
        match enforces that): a view change between the client collecting
        its ``2f + 1`` responses and distributing the certificate must not
        strand the batch — the client cannot re-issue the certificate
        under the new view, so rejecting it outright would loop the
        request forever.  Future views are still rejected.
        """
        self.charge(CryptoOp.MAC_VERIFY, max(1, len(message.responders)))
        if message.view > self.view or self.view_change_in_progress:
            return
        members, quorum = self._certificate_rules(message.sequence)
        responders = set(message.responders)
        if not responders.issubset(members):
            return
        if len(responders) < quorum:
            return
        executed = self.executor.executed(message.sequence)
        if executed is not None:
            if executed.batch_id != message.batch_id:
                return
            if executed.result_digest != message.result_digest:
                return
            # Only a certificate checked against this replica's own
            # execution result is journaled as view-change anchor
            # evidence; the installed-prefix path below acknowledges
            # without journaling.
            self._commit_certs[message.sequence] = message
        else:
            # No per-slot execution record: either the slot was jumped
            # over by a (digest-validated) checkpoint state transfer, or
            # its record was pruned below a stable checkpoint.  In both
            # cases the slot is part of a durable, quorum-vouched prefix,
            # so if the transferred execution map confirms the certified
            # (batch, slot) binding, durability is exactly what a
            # LOCAL-COMMIT attests — and withholding the ack would strand
            # the client's batch behind a slot no live replica can ever
            # re-check (the responders that could have are crashed or
            # rolled back).
            if message.sequence > self.last_executed_sequence:
                return
            known = self._batch_sequence.get(message.batch_id)
            if known is None or known[0] != message.sequence:
                return
        self.charge(CryptoOp.MAC_SIGN)
        self.local_commits_sent += 1
        self.send(message.client_id or sender, ZyzzyvaLocalCommit(
            batch_id=message.batch_id, view=message.view,
            sequence=message.sequence, replica_id=self.node_id,
        ))

    def handle_proof_of_misbehaviour(self, sender: str,
                                     message: ZyzzyvaProofOfMisbehaviour,
                                     now_ms: float) -> None:
        """A client proved the primary equivocated: replace it.

        The evidence must contain two responses for the same
        (view, sequence) slot of the *current* view that disagree on the
        ordered batch or its result — exactly what an honest primary can
        never produce.
        """
        self.charge(CryptoOp.VERIFY)
        if message.view != self.view or len(message.evidence) < 2:
            return
        first, second = message.evidence[0], message.evidence[1]
        if first[0] != self.view or second[0] != self.view:
            return
        if first[:2] != second[:2] or first[2:] == second[2:]:
            return
        self.proofs_of_misbehaviour_accepted += 1
        self.initiate_view_change(now_ms)

    def send_replies(self, slot: CommittedSlot, record, now_ms: float) -> None:
        """Log the speculatively executed slot, and reply with the
        speculative history digest (SPEC-RESPONSE).  The slot's proof, the
        client's commit certificate, arrives later if at all and is
        attached when a request is built."""
        history = self._accepted.get((slot.view, slot.sequence), b"")
        self._log[slot.sequence] = LogEntry(
            sequence=slot.sequence, view=slot.view, digest=history,
            batch=slot.batch,
        )
        batch = slot.batch
        target = self._reply_targets.get(batch.batch_id) or batch.reply_to
        targets = (target,) if target else batch.client_ids
        reply = ClientReplyMessage(
            batch_id=batch.batch_id,
            view=slot.view,
            sequence=slot.sequence,
            result_digest=record.result_digest,
            replica_id=self.node_id,
            speculative=True,
            extra=history,
            size_bytes=self.config.reply_size_bytes(len(batch)),
        )
        self._replied[batch.batch_id] = reply
        self.charge(CryptoOp.MAC_SIGN, max(1, len(targets)))
        for target in targets:
            self.send(target, reply)
        self.stop_progress_timer(batch.batch_id)

    # ----------------------------------------------------------- history journal
    def on_stable_checkpoint(self, sequence: int, now_ms: float) -> None:
        """Durable slots need no commit certificates any more, except the
        highest one, which anchors the next view change."""
        super().on_stable_checkpoint(sequence, now_ms)
        best = max(self._commit_certs, default=None)
        for seq in [s for s in self._commit_certs
                    if s <= sequence and s != best]:
            del self._commit_certs[seq]

    # ------------------------------------------------------------- view change
    # Generic machinery in PrimaryBackupReplica.  Zyzzyva's requests carry an
    # unverifiable speculative history plus the highest client commit
    # certificate; reconciliation anchors on the certificates and adopts
    # speculative entries with f+1 matching support (see
    # reconcile_speculative_histories).

    def build_view_change_request(self, view: int) -> ViewChangeRequest:
        """The speculative history with each slot's commit certificate
        attached where this replica acknowledged one, the highest such
        certificate as the request's anchor, and the quorum-vouched state
        digest at the stable checkpoint: with ``f + 1`` requests agreeing
        on it the new view can detect (and repair) a replica whose
        same-height state contradicts the durable prefix — not just
        replicas that are behind."""
        request = super().build_view_change_request(view)
        certificates = self._commit_certs
        best = max(certificates, default=None)
        return dataclasses.replace(
            request,
            executed=tuple(
                dataclasses.replace(entry, proof=certificates.get(entry.sequence))
                for entry in request.executed),
            checkpoint_digest=self.checkpoints.stable_digests.get(
                request.stable_checkpoint, b""),
            certificate=certificates[best] if best is not None else None,
        )

    def validate_view_change_request_message(self, request: ViewChangeRequest,
                                             view: int) -> bool:
        """Admit a VIEW-CHANGE: consecutive history, verified certificates.

        Speculative entries carry no proofs this MAC-mode protocol could
        re-check cryptographically (reconciliation defends against lying
        senders with its certified-or-``f+1``-support rule instead), but
        every carried commit certificate — the request-level anchor and
        the per-slot entry certificates — is re-verified on admission:
        real responder identities, a full ``2f + 1`` responder set, slot
        alignment, and (in cost-modelled deployments, where it is
        re-derivable) the result digest the certified responders must have
        produced.
        """
        if not super().validate_view_change_request_message(request, view):
            return False
        certificate = request.certificate
        return certificate is None or self._certificate_admissible(certificate)

    def view_change_entry_valid(self, entry: LogEntry) -> bool:
        certificate = entry.proof
        return certificate is None or self._certificate_admissible(
            certificate, sequence=entry.sequence, batch=entry.batch)

    def _certificate_rules(self, sequence: int):
        """(members, 2f+1) of the epoch governing *sequence*'s slot.

        A certificate for a slot committed before a reconfiguration is
        judged against the membership and quorum that governed the slot
        when it was ordered, not the current epoch's.
        """
        config = self.config
        epoch = config.epoch_of_sequence(sequence)
        return set(config.membership(epoch)), config.quorum_of(epoch)

    def _certificate_admissible(self, certificate: ZyzzyvaCommitCertificate,
                                sequence: Optional[int] = None,
                                batch: Optional[RequestBatch] = None) -> bool:
        """Re-verify a commit certificate carried by a view-change request."""
        members, quorum = self._certificate_rules(certificate.sequence)
        responders = set(certificate.responders)
        if not responders.issubset(members):
            return False
        if len(responders) < quorum:
            return False
        if sequence is not None and certificate.sequence != sequence:
            return False
        if batch is not None:
            if certificate.batch_id != batch.batch_id:
                return False
            if not self.config.execute_operations:
                # Cost-modelled execution has deterministic results: the
                # digest 2f+1 responders vouched for is re-derivable, so a
                # fabricated certificate over a forged batch must also
                # fabricate this digest consistently — which binds it to
                # the batch it claims to certify.
                if certificate.result_digest != modelled_result_digest(
                        certificate.sequence, batch):
                    return False
        # MAC mode cannot re-verify the responders' authenticators, but at
        # most one genuine certificate can exist per slot (two would need
        # intersecting honest responders answering conflicting batches), so
        # a carried certificate that contradicts what this replica *knows*
        # about the slot — the certificate it acknowledged itself, or a
        # batch this replica executed below its stable checkpoint, where
        # the state is durable — is necessarily forged.
        own_certificate = self._commit_certs.get(certificate.sequence)
        if (own_certificate is not None
                and (own_certificate.batch_id != certificate.batch_id
                     or own_certificate.result_digest
                     != certificate.result_digest)):
            return False
        if certificate.sequence <= self.checkpoints.stable_sequence:
            executed = self.executor.executed(certificate.sequence)
            if (executed is not None
                    and executed.batch_id != certificate.batch_id):
                return False
        return True

    def adopt_new_view(self, proposal: NewView, requests,
                       now_ms: float) -> int:
        """Reconcile speculative histories and converge on the adopted one.

        Unlike PoE, where certified entries are unique per slot, a replica
        here may have executed a *different* batch than the adopted one at
        the same slot (that is exactly what an equivocating primary
        causes), so adoption rolls back to the last slot where this
        replica's history agrees with the adopted prefix before executing
        the remainder.  Two repairs the adopted prefix cannot express run
        through the checkpoint layer instead: a replica *behind* the
        anchor requests a state transfer from the anchor's witness, and a
        replica whose journaled state digest at the anchor *contradicts*
        the ``f + 1``-backed anchor digest — same height, wrong batch —
        starts a same-height divergence repair.
        """
        anchor_info = speculative_anchor(requests, self._f_plus_1 - 1)
        prefix, kmax = reconcile_speculative_histories(
            requests, self._f_plus_1 - 1, anchor_info)
        self.rollback_speculation(self.rollback_target(prefix, kmax), now_ms)
        self.evict_uncovered(prefix, kmax)
        self.commit_adopted(prefix, now_ms)
        checkpoint = anchor_info.checkpoint
        checkpoint_digest = anchor_info.checkpoint_digest
        if checkpoint_digest is not None and checkpoint >= 0:
            # f + 1 requests agree on the durable state digest at the
            # highest stable checkpoint: treat it like a checkpoint vote
            # quorum (crucial for a replica too dark to have heard the
            # votes themselves).
            self._mark_checkpoint_digest_verified(checkpoint,
                                                  checkpoint_digest, now_ms)
            own_digest = self._own_digest_at(checkpoint)
            if self.last_executed_sequence >= checkpoint:
                if own_digest is not None and own_digest != checkpoint_digest:
                    self._begin_divergence_repair(checkpoint, now_ms)
            elif anchor_info.witness is not None \
                    and anchor_info.witness != self.node_id:
                # Broadcast rather than unicast to the witness: the link to
                # any single peer may be dark, and every up-to-date honest
                # replica can serve the checkpoint state.
                self.broadcast(StateTransferRequest(
                    sequence=checkpoint, replica_id=self.node_id))
        # History reconciliation: every replica re-bases the speculative
        # history chain at the same deterministic value, so the new
        # primary's ORDER-REQs extend a chain all replicas share.
        self._history_digest = shared_digest(_HISTORY, "new-view",
                                             proposal.new_view, kmax)
        return kmax

    def adopt_entry(self, entry: LogEntry, now_ms: float) -> None:
        """Execution logs the slot (:meth:`send_replies`), under the
        history digest, which is also what its block stores as proof."""
        self._accepted[(entry.view, entry.sequence)] = entry.digest
        if entry.proof is not None:
            self._commit_certs.setdefault(entry.sequence, entry.proof)
        self.commit_slot(sequence=entry.sequence, view=entry.view, batch=entry.batch,
                         proof=entry.digest, now_ms=now_ms)

    def on_rolled_back(self, record) -> None:
        super().on_rolled_back(record)
        self._commit_certs.pop(record.sequence, None)


@dataclass(slots=True)
class _PendingCommit(_PendingBatch):
    """An outstanding batch plus the state of its second phase, which dies
    with the request when the pool retires it."""

    #: Reply key the last commit certificate was built from, so a
    #: certificate round that passes a full timeout without 2f+1 local
    #: commits is recognised as failed instead of looped.
    cert_attempted: Optional[Tuple] = None
    #: The reply the batch completes with once ``2f + 1`` replicas
    #: acknowledged a certificate (``None`` until one is sent), and who did.
    commit_reply: Optional[ClientReplyMessage] = None
    commit_acks: Set[str] = field(default_factory=set)


class ZyzzyvaClientPool(ClientPool):
    """Zyzzyva client: waits for all ``n`` replicas, falls back to commit certs.

    The fast path completes a batch only when **every** replica answered
    with an identical speculative response.  On timeout the client checks
    whether it holds at least ``2f + 1`` matching responses; if so it
    broadcasts a commit certificate and completes once ``2f + 1`` replicas
    acknowledge it; otherwise it retransmits the request.

    The client is also Zyzzyva's equivocation detector: it records every
    speculative response per (view, sequence) slot — including responses
    for batches it never submitted, which is how a forged ordering at its
    own slot becomes visible — and, when a slot shows two conflicting
    responses, broadcasts a proof of misbehaviour that makes the replicas
    replace the primary.
    """

    QUORUM_RULE = "n"
    PENDING_RECORD = _PendingCommit

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (view, sequence) -> (batch_id, result_digest) -> distinct senders.
        self._slot_observations: Dict[Tuple[int, int],
                                      Dict[Tuple[str, bytes], Set[str]]] = {}
        #: Views a proof of misbehaviour was already broadcast for.
        self._pom_views: Set[int] = set()
        self.commit_certificates_sent = 0
        self.proofs_of_misbehaviour_sent = 0

    def on_message(self, sender: str, message, now_ms: float) -> None:
        if isinstance(message, ClientReplyMessage) and message.speculative:
            observations = self._slot_observations.setdefault(
                (message.view, message.sequence), {})
            observations.setdefault(
                (message.batch_id, message.result_digest), set()).add(sender)
            if len(observations) > 1:
                # The conflict itself is the proof: report it immediately
                # rather than waiting for one of our requests to time out.
                self._maybe_send_proof_of_misbehaviour(now_ms)
        view_before = self.current_view
        super().on_message(sender, message, now_ms)
        if self.current_view > view_before:
            # Only current-view slots can ever yield POM evidence: drop
            # observations stranded in superseded views so the journal is
            # bounded by in-flight work, not the length of the run.
            for slot in [s for s in self._slot_observations
                         if s[0] < self.current_view]:
                del self._slot_observations[slot]

    def _complete(self, reply: ClientReplyMessage, pending, now_ms: float) -> None:
        # A completed slot needs no equivocation evidence any more.
        self._slot_observations.pop((reply.view, reply.sequence), None)
        super()._complete(reply, pending, now_ms)

    def _conflicting_slot_evidence(
            self, view: int) -> Optional[Tuple[Tuple[int, int, str, bytes], ...]]:
        """Two conflicting responses for one slot of *view*, if observed."""
        for (slot_view, sequence), observations in sorted(
                self._slot_observations.items()):
            if slot_view != view or len(observations) < 2:
                continue
            keys = sorted(observations)[:2]
            return tuple((slot_view, sequence, batch_id, result_digest)
                         for batch_id, result_digest in keys)
        return None

    def _maybe_send_proof_of_misbehaviour(self, now_ms: float) -> None:
        view = self.current_view
        if view in self._pom_views:
            return
        evidence = self._conflicting_slot_evidence(view)
        if evidence is None:
            return
        self._pom_views.add(view)
        self.proofs_of_misbehaviour_sent += 1
        self.broadcast(ZyzzyvaProofOfMisbehaviour(
            view=view, evidence=evidence, client_id=self.node_id,
        ))

    def on_request_timeout(self, pending: _PendingCommit, now_ms: float) -> None:
        self._maybe_send_proof_of_misbehaviour(now_ms)
        batch_id = pending.batch.batch_id
        # Most voters wins; on a tie, the higher view.  Evidence is never
        # discarded: a pre-view-change response set can stay the only
        # reachable 2f+1 when one of its responders has since crashed, and
        # replicas accept older-view certificates for slots that survived
        # the change — while evidence for a slot that did NOT survive is
        # overtaken on this ordering as soon as retransmission gets the
        # batch re-ordered and the new view's responses accumulate.
        best_key, best_voters = None, ()
        for key, voters in pending.replies.items():
            if (len(voters), key[1]) > (len(best_voters),
                                        best_key[1] if best_key else -1):
                best_key, best_voters = key, voters
        if best_key is not None and \
                len(best_voters) >= self.config.quorum_of_sequence(best_key[2]):
            if pending.cert_attempted == best_key:
                # The previous certificate round built from this same
                # evidence passed a full timeout without 2f+1 local
                # commits — either the certified slot was rolled back, or
                # an acknowledger is still catching up.  Alternate with a
                # retransmission: it gets a dead slot re-ordered (whose
                # fresh responses then overtake this evidence) and keeps
                # progress timers running on the replicas, while the
                # certificate stays retryable for the catching-up case.
                pending.cert_attempted = None
                super().on_request_timeout(pending, now_ms)
                return
            # Second phase: distribute the commit certificate.
            pending.cert_attempted = best_key
            _, view, sequence, result_digest = best_key
            self.commit_certificates_sent += 1
            pending.commit_reply = ClientReplyMessage(
                batch_id=batch_id, view=view, sequence=sequence,
                result_digest=result_digest, replica_id="",
            )
            self.broadcast(ZyzzyvaCommitCertificate(
                batch_id=batch_id, view=view, sequence=sequence,
                result_digest=result_digest, responders=tuple(sorted(best_voters)),
                client_id=self.node_id,
            ))
            self.set_timer(f"request:{batch_id}", self.timeout_ms, payload=batch_id)
        else:
            super().on_request_timeout(pending, now_ms)

    def on_other_message(self, sender: str, message, now_ms: float) -> None:
        if not isinstance(message, ZyzzyvaLocalCommit):
            return
        pending = self._pending.get(message.batch_id)
        if pending is None or pending.commit_reply is None:
            return
        # Transport-level sender, not the spoofable message.replica_id: one
        # Byzantine replica must not acknowledge a commit certificate 2f+1
        # times under forged identities.
        pending.commit_acks.add(sender)
        if len(pending.commit_acks) >= self.config.quorum_of_sequence(message.sequence):
            self._complete(pending.commit_reply, pending, now_ms)

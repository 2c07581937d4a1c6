"""Chained HotStuff baseline: rotating leaders, sequential consensus.

HotStuff linearises PBFT by splitting each phase into two through
threshold signatures and rotates the leader every round; chaining folds
the phases of consecutive rounds together so each round needs one
proposal broadcast and one (linear) vote phase.  A block proposed in
round ``i`` is executed once the chain reaches round ``i + 3`` (the
paper: "a replica executes the request for the i-th round once it
receives a threshold signature from the primary of the (i+3)-th round").

The crucial performance property the paper leans on is that rotating
leaders make consensus *sequential*: the leader of round ``i + 1`` cannot
propose before it has the quorum certificate for round ``i``, so requests
cannot be processed out-of-order and throughput is bounded by message
delay rather than bandwidth (Figures 9 and 11).

The leader of round ``r`` is the primary of view ``r``
(:meth:`~repro.protocols.replica_base.BatchingReplica.primary_for_view`):
HotStuff rotates over the active membership with the rotation every
protocol here shares, only once per round instead of once per view
change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Optional, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.crypto.hashing import digest, shared_digest
from repro.crypto.threshold import ThresholdError
from repro.protocols.base import Message, NodeConfig, ProtocolInfo
from repro.protocols.client_messages import ClientRequestMessage
from repro.protocols.replica_base import BatchingReplica
from repro.workload.transactions import RequestBatch


#: The digest binding a block's round, batch digest (``b"empty"`` without a
#: batch) and parent: ``hotstuff_block_digest(round, batch_digest, parent)``.
hotstuff_block_digest = partial(shared_digest, "hotstuff-block")


@dataclass
class QuorumCertificate:
    """A quorum certificate over one round's block."""

    round_number: int = -1
    block_digest: bytes = b""
    signature: object = None


@dataclass
class HotStuffProposal(Message):
    """The round leader's block proposal, justified by the previous QC."""

    round_number: int = 0
    batch: Optional[RequestBatch] = None
    block_digest: bytes = b""
    justify: Optional[QuorumCertificate] = None
    leader_id: str = ""


@dataclass
class HotStuffVote(Message):
    """A replica's vote (signature share) sent to the next round's leader."""

    round_number: int = 0
    block_digest: bytes = b""
    share: object = None
    replica_id: str = ""


@dataclass
class HotStuffFetchRequest(Message):
    """Chain sync: ask peers for a certified round's missing proposal.

    A replica that learns a round's signed quorum certificate without ever
    receiving the proposal it certifies (an omitting or equivocating
    leader) used to stall until checkpoint state transfer carried it past
    the gap.  The fetch-missing protocol recovers the block itself: any
    peer holding the proposal ships it back, and the requester verifies
    the content against the QC digest it already trusts.

    With an empty ``block_digest`` the request is a *query*: "did round
    ``round_number`` certify anything?"  A replica that settles a round
    blind — it never saw the round's proposal, so it cannot know whether
    a signed QC exists — asks the membership; peers holding the proposal
    *and* its signed certificate ship both, and the threshold signature
    makes the answer third-party verifiable.  Without the query, the one
    proposal carrying a round's QC being lost would strand the round
    forever (signed QCs appear in exactly one justify on the wire).
    """

    round_number: int = 0
    block_digest: bytes = b""
    replica_id: str = ""


@dataclass
class HotStuffFetchResponse(Message):
    """A stored proposal (and its signed QC, for queries) shipped to a
    replica that missed it."""

    proposal: Optional[HotStuffProposal] = None
    certificate: Optional[QuorumCertificate] = None


@dataclass(slots=True)
class _RoundState:
    """Everything this replica holds about one round: one record per round
    number in ``HotStuffReplica._rounds``, created by the round's first
    write and deleted whole once the round sinks below a stable checkpoint.
    """

    #: The round's first proposal from its leader, or the fetched one.
    proposal: Optional[HotStuffProposal] = None
    #: Whether this replica already voted in the round.
    voted: bool = False
    #: Vote shares by share index, collected by the next round's leader.
    votes: Dict[int, object] = field(default_factory=dict)
    qc_formed: bool = False
    #: The round's verified *signed* quorum certificate.  Only a round that
    #: has one may execute, and its ``block_digest`` is the block that does;
    #: pacemaker timeout QCs are unsigned, certify nothing and never land
    #: here.  Kept whole so a fetch *query* can be answered with evidence.
    certificate: Optional[QuorumCertificate] = None
    #: Digest the round's block was already fetched for (``b""`` = blind
    #: query, ``None`` = never): one fetch broadcast per gap, upgradeable
    #: from a blind query to a targeted fetch once the QC digest is known.
    fetch_asked: Optional[bytes] = None

    def open_tallies(self) -> Tuple[Dict[int, object], ...]:
        return () if self.qc_formed else (self.votes,)


#: What a probe reads for a round nothing was written for yet: paths that
#: only look (``self._rounds.get(r, _UNSEEN)``) leave no empty record behind.
_UNSEEN = _RoundState()


class HotStuffReplica(BatchingReplica):
    """A chained-HotStuff replica whose round ``r`` is led by the primary
    of view ``r`` (``primary_for_view(r)``)."""

    PROTOCOL_INFO = ProtocolInfo(
        name="HotStuff",
        phases=8,
        messages="O(8n)",
        resilience="f",
        requirements="Sequential Consensuses",
    )

    #: A round without a certified proposal is abandoned after this long.
    PACEMAKER_TIMEOUT_MS = 250.0

    MESSAGE_HANDLERS = {
        HotStuffProposal: "handle_proposal",
        HotStuffVote: "handle_vote",
        HotStuffFetchRequest: "handle_fetch_request",
        HotStuffFetchResponse: "handle_fetch_response",
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
        self.current_round = 0
        self.high_qc = QuorumCertificate(round_number=-1,
                                         block_digest=digest("hotstuff-genesis"))
        self._rounds: Dict[int, _RoundState] = {}
        self._pending_batches: Deque[RequestBatch] = deque()
        self._next_execute_sequence = 0
        #: Highest round already settled (executed or skipped) by
        #: :meth:`_commit_upto`; rounds are settled strictly in order.
        self._committed_round = -1
        #: Round below which the per-round records were pruned (everything
        #: below the stable checkpoint's round is durable and settled).
        self._pruned_below_round = -1
        self.rounds_started = 0
        self.pacemaker_timeouts = 0
        self.proposals_fetched = 0
        self.chain_resyncs = 0

    def _round(self, round_number: int) -> _RoundState:
        """The round's record, created on first use: for paths that write."""
        # get-then-insert: setdefault would construct a throwaway
        # _RoundState on every vote/proposal for an existing round.
        state = self._rounds.get(round_number)
        if state is None:
            state = self._rounds[round_number] = _RoundState()
        return state

    def _store_proposal(self, proposal: HotStuffProposal) -> _RoundState:
        """Put a proposal, live or fetched, on its round's record and stop
        queueing its batch here: another leader already proposed it."""
        state = self._round(proposal.round_number)
        state.proposal = proposal
        batch = proposal.batch
        if batch is not None:
            self._seen_batch_ids.add(batch.batch_id)
            if batch.reply_to:
                self._reply_targets.setdefault(batch.batch_id, batch.reply_to)
            self._pending_batches = deque(
                b for b in self._pending_batches if b.batch_id != batch.batch_id)
        return state

    def _learn_certificate(self, certificate: QuorumCertificate,
                           now_ms: float) -> None:
        """Record a verified signed QC that arrived from elsewhere, and
        resync if its round was already settled as skipped."""
        self._round(certificate.round_number).certificate = certificate
        self._check_late_certificate(certificate.round_number,
                                     certificate.block_digest, now_ms)

    # -------------------------------------------------------------- client path
    def handle_client_request(self, sender: str, message: ClientRequestMessage,
                              now_ms: float) -> None:
        """Every replica queues requests; the round leader proposes them."""
        batch = message.batch
        reply_to = message.reply_to or sender
        self._reply_targets[batch.batch_id] = reply_to
        self.charge(CryptoOp.VERIFY)
        earlier_reply = self._replied.get(batch.batch_id)
        if earlier_reply is not None:
            self.send(reply_to, earlier_reply)
            return
        # The base's dedup set: it ages out with the reply state, so a
        # duplicate that ``_replied`` can still answer is still recognised.
        if batch.batch_id not in self._seen_batch_ids:
            self._seen_batch_ids.add(batch.batch_id)
            self._pending_batches.append(batch)
        elif (message.retransmission
              and batch.batch_id not in self._replied
              and all(b.batch_id != batch.batch_id for b in self._pending_batches)):
            # The batch was consumed by a round that never got certified
            # (failed leader, equivocating proposer): a client retransmission
            # makes it proposable again.  A later double-proposal is benign —
            # execution dedupes on ``_replied``.
            self._pending_batches.append(batch)
        # If the chain is paused and it is our turn, kick it off.
        if self.primary_for_view(self.current_round) == self.node_id:
            self._maybe_lead_round(self.current_round, now_ms)
        self._arm_pacemaker(now_ms)

    # BatchingReplica's primary-driven proposal path is unused: leaders
    # propose from their pending queue when their round comes up.
    def create_proposal(self, sequence: int, batch: RequestBatch, now_ms: float) -> None:
        raise NotImplementedError("HotStuff leaders propose per round, not per batch")

    def maybe_propose(self, now_ms: float) -> None:  # overrides the base hook
        """No-op: proposing is driven by quorum certificates, not a queue."""

    # ---------------------------------------------------------------- proposing
    def _maybe_lead_round(self, round_number: int, now_ms: float) -> None:
        """Propose the block for *round_number* if this replica leads it."""
        if self.primary_for_view(round_number) != self.node_id:
            return
        if self._rounds.get(round_number, _UNSEEN).proposal is not None:
            return
        if round_number != self.high_qc.round_number + 1:
            return
        batch = self._next_batch_to_propose()
        if batch is None and not self._unexecuted_rounds_pending():
            return  # Nothing to order and nothing in the pipeline to flush.
        block_digest = hotstuff_block_digest(
            round_number,
            batch.digest() if batch is not None else b"empty",
            self.high_qc.block_digest)
        self.charge(CryptoOp.HASH)
        proposal = HotStuffProposal(
            round_number=round_number, batch=batch, block_digest=block_digest,
            justify=self.high_qc, leader_id=self.node_id,
            size_bytes=self.config.proposal_size_bytes(len(batch) if batch else 0),
        )
        self.rounds_started += 1
        self.broadcast(proposal, include_self=True)

    def _next_batch_to_propose(self) -> Optional[RequestBatch]:
        while self._pending_batches:
            batch = self._pending_batches.popleft()
            if batch.batch_id in self._replied:
                continue
            return batch
        return None

    def _unexecuted_rounds_pending(self) -> bool:
        """Are there proposed-but-unexecuted real blocks that need flushing?"""
        return any(
            state.proposal is not None
            and state.proposal.batch is not None
            and state.proposal.batch.batch_id not in self._replied
            for state in self._rounds.values()
        )

    # ---------------------------------------------------------------- messages
    def handle_proposal(self, sender: str, message: HotStuffProposal,
                        now_ms: float) -> None:
        round_number = message.round_number
        # Leadership is checked against the transport-level sender: the
        # ``leader_id`` field is a spoofable payload claim.
        if sender != self.primary_for_view(round_number):
            return
        if self._rounds.get(round_number, _UNSEEN).proposal is not None:
            return
        justify = message.justify
        if justify is None or round_number != justify.round_number + 1:
            return
        if justify.round_number >= 0:
            self.charge(CryptoOp.THRESHOLD_VERIFY)
            if justify.signature is not None:
                if not self.auth.threshold.verify(justify.signature,
                                                  justify.block_digest):
                    return
                # A verified signed QC certifies its round's block: record it
                # so the commit rule can tell certified rounds from rounds
                # the pacemaker skipped with an unsigned timeout QC.
                self._learn_certificate(justify, now_ms)
        # Fetched only now: the resync above can execute through a stable
        # checkpoint, which prunes round records.
        state = self._store_proposal(message)
        if justify.round_number > self.high_qc.round_number or (
                justify.round_number == self.high_qc.round_number
                and self.high_qc.signature is None
                and justify.signature is not None):
            # Same-round upgrade: a signed QC supersedes the unsigned
            # timeout QC the local pacemaker fabricated for that round.
            self.high_qc = justify
        self.current_round = max(self.current_round, round_number)
        # Vote: send a share over the block digest to the next round's leader.
        if not state.voted:
            state.voted = True
            self.charge(CryptoOp.THRESHOLD_SHARE)
            share = self.auth.threshold.sign_share(self.auth.threshold_index, message.block_digest)
            vote = HotStuffVote(
                round_number=round_number, block_digest=message.block_digest,
                share=share, replica_id=self.node_id,
            )
            next_leader = self.primary_for_view(round_number + 1)
            if next_leader == self.node_id:
                self.handle_vote(self.node_id, vote, now_ms)
            else:
                self.send(next_leader, vote)
        # Chained commit rule: the block three rounds back is now final.
        self._commit_upto(round_number - 3, now_ms)
        self._arm_pacemaker(now_ms)

    def handle_vote(self, sender: str, message: HotStuffVote, now_ms: float) -> None:
        round_number = message.round_number
        if self.primary_for_view(round_number + 1) != self.node_id:
            return
        state = self._round(round_number)
        if state.qc_formed or message.share is None:
            return
        # Share verification is deferred to aggregation (see PoeReplica).
        if not self.auth.threshold.verify_share(message.share, message.block_digest):
            return
        state.votes[message.share.index] = message.share
        if len(state.votes) < self._nf_quorum:
            return
        self.charge(CryptoOp.THRESHOLD_AGGREGATE)
        try:
            signature = self.auth.threshold.aggregate(state.votes.values())
        except ThresholdError:
            return
        state.qc_formed = True
        self.charge(CryptoOp.THRESHOLD_VERIFY)
        if not self.auth.threshold.verify(signature, message.block_digest):
            # The shares did not all sign the same block (an equivocating
            # leader split the voters): no QC exists for this round.  Leave
            # it to the pacemaker; proposing with a garbage QC would only be
            # rejected by every correct replica.
            return
        qc = QuorumCertificate(round_number=round_number,
                               block_digest=message.block_digest,
                               signature=signature)
        state.certificate = qc
        if qc.round_number > self.high_qc.round_number or (
                qc.round_number == self.high_qc.round_number
                and self.high_qc.signature is None):
            # The pacemaker beat the aggregation to this round: replace
            # its unsigned placeholder so the next proposal this replica
            # leads chains to the certified block, not a fictitious one.
            self.high_qc = qc
        self.current_round = max(self.current_round, round_number + 1)
        self._maybe_lead_round(round_number + 1, now_ms)

    # ---------------------------------------------------------------- execution
    def _commit_upto(self, round_number: int, now_ms: float) -> None:
        """Settle rounds in order up to *round_number*, executing the
        certified ones.

        A round executes only when a *signed* quorum certificate for its
        exact block is known (its ``certificate``) and the block's content
        is held locally.  Rounds without a signed QC by the time the chain is
        three rounds past them were skipped by the pacemaker (or poisoned by
        an equivocating leader) and settle without executing — their batches
        return via client retransmission.  A round whose QC is known but
        whose content this replica missed is a hard gap: the fetch-missing
        protocol asks the peers for the certified block (verified against
        the QC digest on arrival), with checkpoint-driven state transfer
        remaining the fallback when no peer still holds it.

        Settling a round as skipped is provisional, not final: if the one
        proposal carrying the round's QC arrives late (after the round was
        settled as skipped), :meth:`_check_late_certificate` rolls the
        chain back to just before that round, fetches the missing block and
        re-executes — unless the rollback would cross a stable checkpoint,
        in which case the divergence surfaces in the replica's checkpoint
        digests and the same-height state repair takes over.  A round
        settled *blind* (no proposal ever seen) also broadcasts a fetch
        query, because the replica cannot know whether a signed QC exists:
        peers answer with the proposal and the signed QC itself, and the
        verified answer funnels into the same late-certificate resync.
        """
        settle = self._committed_round + 1
        while settle <= round_number:
            state = self._rounds.get(settle, _UNSEEN)
            if state.certificate is None:
                # Settling without a signed QC is sound only if no signed
                # QC exists for the round *anywhere* — and this replica
                # cannot know that.  Holding the proposal does not help:
                # the QC is normally relayed in exactly one justify on the
                # wire, and if the next leader's pacemaker fired before
                # its vote aggregation completed, that justify carries an
                # unsigned timeout QC while the signed QC it aggregated
                # moments later exists only in its local state.  Query the
                # membership either way; a verified answer triggers the
                # late-certificate resync.
                self._request_missing_proposal(settle, b"")
                self._committed_round = settle
                settle += 1
                continue
            certified_digest = state.certificate.block_digest
            proposal = state.proposal
            if proposal is None or proposal.block_digest != certified_digest:
                # Certified content this replica never received: fetch it
                # from the peers and stall the settle walk until it lands.
                self._request_missing_proposal(settle, certified_digest)
                break
            self._committed_round = settle
            settle += 1
            if proposal.batch is None or proposal.batch.batch_id in self._replied:
                continue
            sequence = self._next_execute_sequence
            self._next_execute_sequence += 1
            self.commit_slot(sequence=sequence, view=proposal.round_number,
                             batch=proposal.batch, proof=proposal.justify,
                             now_ms=now_ms, speculative=False)

    # ------------------------------------------------------------- chain sync
    def _request_missing_proposal(self, round_number: int,
                                  block_digest: bytes) -> None:
        """Broadcast one fetch for a missing round (``b""`` = blind query).

        One broadcast per round, except that a blind query upgrades to a
        targeted fetch once the certified digest becomes known.
        """
        state = self._round(round_number)
        asked = state.fetch_asked
        if asked is not None and (asked == block_digest or asked != b""):
            return
        state.fetch_asked = block_digest
        self.broadcast(HotStuffFetchRequest(
            round_number=round_number, block_digest=block_digest,
            replica_id=self.node_id,
        ))

    def handle_fetch_request(self, sender: str, message: HotStuffFetchRequest,
                             now_ms: float) -> None:
        """Serve a stored proposal (with its signed QC, for queries)."""
        state = self._rounds.get(message.round_number, _UNSEEN)
        proposal = state.proposal
        if proposal is None:
            return
        if not message.block_digest:
            # Query: only answer with third-party-verifiable evidence that
            # the round certified this exact block.
            certificate = state.certificate
            if certificate is None \
                    or proposal.block_digest != certificate.block_digest:
                return
            self.send(sender, HotStuffFetchResponse(
                proposal=proposal, certificate=certificate,
                size_bytes=proposal.size_bytes))
            return
        if proposal.block_digest != message.block_digest:
            return
        self.send(sender, HotStuffFetchResponse(
            proposal=proposal, size_bytes=proposal.size_bytes))

    def handle_fetch_response(self, sender: str, message: HotStuffFetchResponse,
                              now_ms: float) -> None:
        """Adopt a fetched proposal after verifying it against the QC.

        The signed quorum certificate this replica already holds pins the
        certified block digest; the response's content is re-hashed
        (batch digest chained to the justify parent) and must reproduce
        exactly that digest, so a forged or tampered block cannot be
        slipped into the gap — not even by the peer that served it.
        """
        proposal = message.proposal
        if proposal is None:
            return
        round_number = proposal.round_number
        certificate = self._rounds.get(round_number, _UNSEEN).certificate
        if certificate is None and message.certificate is not None:
            # A query answer: the carried signed QC is the evidence this
            # replica lacked.  Verify the threshold signature before
            # trusting the digest it certifies.
            certificate = message.certificate
            if certificate.round_number != round_number:
                return
            if certificate.signature is None:
                return
            self.charge(CryptoOp.THRESHOLD_VERIFY)
            if not self.auth.threshold.verify(certificate.signature,
                                              certificate.block_digest):
                return
            self._learn_certificate(certificate, now_ms)
        if certificate is None or proposal.block_digest != certificate.block_digest:
            return
        certified_digest = certificate.block_digest
        justify = proposal.justify
        if justify is None:
            return
        content_digest = hotstuff_block_digest(
            round_number,
            proposal.batch.digest() if proposal.batch is not None else b"empty",
            justify.block_digest)
        self.charge(CryptoOp.HASH)
        if content_digest != certified_digest:
            return
        existing = self._rounds.get(round_number, _UNSEEN).proposal
        if existing is not None and existing.block_digest == certified_digest:
            return
        # The fetched justify may certify a round this replica never saw a
        # signed QC for (consecutive missed rounds): process it like a
        # live proposal's justify so the settle walk can recover it too.
        # Already-known digests skip the (modelled-expensive) re-verify.
        known = self._rounds.get(justify.round_number, _UNSEEN).certificate
        if justify.round_number >= 0 and justify.signature is not None \
                and (known is None
                     or known.block_digest != justify.block_digest):
            self.charge(CryptoOp.THRESHOLD_VERIFY)
            if self.auth.threshold.verify(justify.signature,
                                          justify.block_digest):
                self._learn_certificate(justify, now_ms)
        self._store_proposal(proposal)
        self.proposals_fetched += 1
        self._commit_upto(self.current_round - 3, now_ms)
        self._arm_pacemaker(now_ms)

    def _check_late_certificate(self, round_number: int, block_digest: bytes,
                                now_ms: float) -> None:
        """A signed QC arrived for a round already settled as skipped.

        The certified block is part of the canonical chain, so settling
        past it without executing forked this replica off the agreed
        history (the settled-as-skipped window).  Roll the local chain
        back to just before the round, re-open the settle walk and fetch
        the missing block; if the rollback would cross a stable checkpoint
        the fork is already durable locally and is left to the same-height
        state repair instead.
        """
        if round_number > self._committed_round:
            return
        if round_number < self._pruned_below_round:
            return
        proposal = self._rounds.get(round_number, _UNSEEN).proposal
        if proposal is not None and proposal.block_digest == block_digest \
                and (proposal.batch is None
                     or proposal.batch.batch_id in self._replied):
            return  # the round did execute; nothing was missed
        # The rollback floor is the stable checkpoint *and* any installed
        # checkpoint-sync block: a transferred snapshot has no undo
        # information and the slots beneath it are not locally
        # re-executable, so truncating across it would strand the store on
        # an unreachable base.  Divergence below either floor belongs to
        # the same-height state repair.
        floor = self.checkpoints.stable_sequence
        target_sequence = -1
        for block in reversed(self.blockchain.blocks()):
            if block.payload == "checkpoint-sync" and block.sequence > floor:
                floor = block.sequence
            if block.view < round_number:
                target_sequence = block.sequence
                break
        if target_sequence < floor:
            return
        self.rollback_speculation(target_sequence, now_ms)
        self.chain_resyncs += 1
        self._committed_round = round_number - 1
        self._next_execute_sequence = target_sequence + 1
        self._commit_upto(self.current_round - 3, now_ms)

    # ----------------------------------------------------------------- epochs
    def on_epoch_activated(self, entry, evicted, now_ms: float) -> None:
        """Purge evicted replicas' vote shares from rounds whose QC has not
        formed yet."""
        super().on_epoch_activated(entry, evicted, now_ms)
        self.purge_evicted(self._rounds.values(), evicted)

    # ------------------------------------------------------------- checkpoints
    def on_stable_checkpoint(self, sequence: int, now_ms: float) -> None:
        """Prune the round records below the stable checkpoint's round.

        Every round that produced a block at or below a stable checkpoint
        is durable system-wide and can never be rolled back, re-voted or
        fetched from this replica again, so ``_rounds`` is bounded by the
        checkpoint interval instead of the length of the run.
        """
        super().on_stable_checkpoint(sequence, now_ms)
        block = self.blockchain.block_at(sequence)
        if block is None:
            return
        stable_round = block.view
        if stable_round <= self._pruned_below_round:
            return
        self._pruned_below_round = stable_round
        rounds = self._rounds
        for round_number in [r for r in rounds if r < stable_round]:
            del rounds[round_number]

    # ------------------------------------------------------------ state transfer
    def transfer_view(self, sequence: int) -> int:
        # Ship the committed round of the block at the transferred sequence,
        # so the receiver can re-base its round watermark (the base class
        # ships ``self.view``, which HotStuff does not maintain).
        block = self.blockchain.block_at(sequence)
        return block.view if block is not None else self.view

    def handle_state_transfer_response(self, sender: str, message,
                                       now_ms: float) -> None:
        before = self.last_executed_sequence
        super().handle_state_transfer_response(sender, message, now_ms)
        if self.last_executed_sequence > before:
            # Re-base the local execution counter and the round watermark on
            # the transferred prefix; rounds at or below it are settled.
            self._next_execute_sequence = self.last_executed_sequence + 1
            self._committed_round = max(self._committed_round, message.view)
            self._commit_upto(self.current_round - 3, now_ms)

    # ---------------------------------------------------------------- pacemaker
    def _arm_pacemaker(self, now_ms: float) -> None:
        """(Re-)arm the round timer while there is work the chain should make."""
        if self._pending_batches or self._unexecuted_rounds_pending():
            self.set_timer("pacemaker", self.PACEMAKER_TIMEOUT_MS,
                           payload=self.current_round)

    def on_protocol_timer(self, name: str, payload, now_ms: float) -> None:
        if name != "pacemaker":
            return
        if not self._pending_batches and not self._unexecuted_rounds_pending():
            return
        # The expected leader did not produce a proposal: skip its round.
        stalled_round = self.high_qc.round_number + 1
        self.pacemaker_timeouts += 1
        self.current_round = max(self.current_round, stalled_round + 1)
        # Pretend the stalled round produced an empty block so the chain can
        # continue: advance the high QC without a block.  The next leader
        # proposes justified by the previous QC.
        self.high_qc = QuorumCertificate(
            round_number=stalled_round,
            block_digest=digest("hotstuff-timeout", stalled_round,
                                self.high_qc.block_digest),
            signature=None,
        )
        self._maybe_lead_round(stalled_round + 1, now_ms)
        self._arm_pacemaker(now_ms)

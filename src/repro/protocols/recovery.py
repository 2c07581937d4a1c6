"""The primary-backup ordering layer shared by PoE, PBFT, SBFT and Zyzzyva.

The paper's comparison (Section IV-A, Figures 1 and 9) holds only if the
leader-based protocols differ in their *phases* and in nothing else.
:class:`PrimaryBackupReplica` is everything around the phases, written
once: a primary orders batches into ``(view, sequence)`` slots, backups
act on the first proposal they see for a slot, a stable checkpoint prunes
what it supersedes, an epoch change purges evicted voters, and a faulty
primary is replaced through the view-change algorithm of Section II-C
(``f + 1`` requests make any replica join, the next primary combines a
quorum of them into a NEW-VIEW, replicas adopt the state it certifies,
a retry timer with exponential back-off moves past a chain of faulty
primaries).  HotStuff rotates leaders per round and has no such layer; it
sits directly on :class:`~repro.protocols.replica_base.BatchingReplica`.

The wire format of recovery is the layer's too.  :class:`LogEntry` is one
ordered slot, :class:`ViewChangeRequest` carries the sender's entries above
its stable checkpoint, :class:`NewView` carries a quorum of requests; the
layer routes the two messages to its own handlers, and keeps the log the
entries come from (``_log``: pruned at a stable checkpoint, popped on
rollback).  No protocol defines a recovery message or a log of its own.

What a protocol declares
    :meth:`new_slot`
        a fresh instance of its slot dataclass, for :meth:`_slot`.  The
        dataclass defines ``open_tallies()``: the vote sets or share dicts
        an evicted replica must still be purged from, and ``parked`` if
        its protocol calls :meth:`park_vote`.
    one write to ``_log``
        ``self._log[sequence] = LogEntry(...)`` at the point the slot is
        certified (PoE, SBFT), committed (PBFT) or speculatively executed
        (Zyzzyva); ``digest`` is whatever the protocol's proposal bound
        to the slot, ``proof`` what made it final there.
    :meth:`view_change_quorum`
        requests the next primary needs: ``2f + 1`` unless overridden
        (``nf`` for PoE).
    :meth:`view_change_entry_valid`
        is one entry of a received request well formed (its digest
        recomputes, its proof verifies).
    :meth:`adopt_new_view`
        state selection, composed from :meth:`rollback_target`,
        :meth:`evict_uncovered` and :meth:`commit_adopted`; it runs
        *before* the view advances and returns ``kmax``, the last sequence
        number of the adopted prefix.
    optionally :meth:`adopt_entry` / :meth:`build_view_change_request`
        when adopting one entry is more than logging it and handing it to
        ``commit_slot`` (SBFT fills its slot, Zyzzyva re-bases its
        history), or when a request reports evidence about the sender's
        stable point (Zyzzyva's ``checkpoint_digest`` and ``certificate``).

What a protocol must never re-implement
    the slot table and its key (:meth:`_slot`); the admission guards
    (:meth:`admit_proposal` — a handler only stores its digest in
    ``_accepted`` under the key it is handed, as ``create_proposal`` does
    for the primary); stable-checkpoint pruning of slots, accepted
    proposals and the log (:meth:`on_stable_checkpoint` — an override may
    only prune state of its own, after ``super()``); the evicted-voter
    purge (:meth:`on_epoch_activated`); the consecutive-run check on
    requests (PoE routes it through its pure, separately tested
    ``validate_view_change_request``); the join rule, the quorum count,
    the retry back-off and the view-entry epilogue.  Each is the one place
    its class of bug can live.

The vote handlers stay hand-written in the protocols: they *are* the
phases, and on the n² paths they read ``self._slots`` and the view
inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.ledger.execution import ExecutedBatch
from repro.protocols.base import Message, NodeConfig
from repro.protocols.replica_base import BatchingReplica
from repro.workload.transactions import RequestBatch


@dataclass(slots=True)  # not frozen: built per batch, so without a setattr call per field
class LogEntry:
    """One ordered slot, as the log holds it and a view-change request
    reports it: the paper's ``(CERTIFY(<h>, w, k), <T>_c)`` pair (Figure 5,
    Line 4).

    ``digest`` is what the protocol's proposal bound to the slot (PoE and
    SBFT: the proposal digest shares are signed over; PBFT: the
    PRE-PREPARE digest; Zyzzyva: the history digest).  ``proof`` is what
    made the slot final at the sender: a threshold certificate (PoE-TS,
    SBFT), the supporters (PoE-MAC) or the committers (PBFT) as the
    :class:`~repro.protocols.quorum.QuorumProof` their tally froze into,
    or the client commit certificate the sender acknowledged for it
    (Zyzzyva).
    """

    sequence: int
    view: int
    digest: bytes
    batch: RequestBatch
    proof: Any = None


@dataclass
class ViewChangeRequest(Message):
    """VC-REQUEST(v, E): a replica asking to replace the primary of *view*.

    ``checkpoint_digest`` and ``certificate`` are evidence about the
    sender's stable point, for protocols whose entries cannot be verified
    one by one (only Zyzzyva fills them: the quorum-vouched state digest
    at ``stable_checkpoint``, and the highest client commit certificate
    it acknowledged).
    """

    view: int = 0
    replica_id: str = ""
    stable_checkpoint: int = -1
    executed: Tuple[LogEntry, ...] = ()
    checkpoint_digest: bytes = b""
    certificate: Any = None


@dataclass
class NewView(Message):
    """NV-PROPOSE(v+1, m_1..m_q): the next primary's quorum of requests."""

    new_view: int = 0
    requests: Tuple[ViewChangeRequest, ...] = ()


class PrimaryBackupReplica(BatchingReplica):
    """A replica of a leader-based protocol; see the module docstring."""

    #: Consecutive failed view changes double the retry timer up to a factor
    #: of ``2 ** VC_BACKOFF_CAP`` over the base ``2 * request_timeout_ms``.
    VC_BACKOFF_CAP = 5

    #: Name of the retry timer armed by :meth:`initiate_view_change`.
    VIEW_CHANGE_TIMER = "view-change"

    MESSAGE_HANDLERS = {
        ViewChangeRequest: "handle_view_change_message",
        NewView: "handle_new_view_message",
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
        #: Per-slot consensus state, keyed ``(view << 32) | sequence``.
        self._slots: Dict[int, object] = {}
        #: ``(view, sequence) -> digest`` of the first proposal accepted.
        self._accepted: Dict[Tuple[int, int], bytes] = {}
        #: ``sequence -> entry`` of every slot final here above the stable
        #: checkpoint: what this replica's view-change requests report.
        self._log: Dict[int, LogEntry] = {}
        #: ``view being replaced -> {sender: its admissible request or None}``:
        #: the senders are the join rule's voters, the requests what a
        #: NEW-VIEW is built from; :meth:`_prune_view_change_state` drops it.
        self._vc_votes: Dict[int, Dict[str, Optional[ViewChangeRequest]]] = {}
        self._entered_views: Set[int] = {0}
        self._vc_failed_attempts = 0
        #: The retry delay :meth:`initiate_view_change` last armed, cleared
        #: with ``_vc_failed_attempts``: what a timing attack rides.
        self.vc_retry_ms = 0.0
        self.view_changes_completed = 0

    # ------------------------------------------------------------------ slots
    def new_slot(self):
        """A fresh instance of the protocol's slot dataclass."""
        raise NotImplementedError

    def _slot(self, view: int, sequence: int):
        # get-then-insert instead of setdefault, which would build a
        # throwaway slot (and its vote sets) on every hit.  Keys are packed
        # ints: hashing a small int is cheaper than hashing a fresh tuple.
        key = (view << 32) | sequence
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = self.new_slot()
        return slot

    def park_vote(self, slot, tally, sender: str, digest: bytes) -> None:
        """A vote counts only for the digest it names, whenever it arrives:
        one that does not name *slot*'s proposal is dropped, or, before the
        proposal lands, held (the first per sender and tally)."""
        parked = slot.parked or []
        if slot.batch is None and not any(
                held is tally and voter == sender for held, voter, _ in parked):
            slot.parked = parked + [(tally, sender, digest)]

    def count_parked(self, slot, digest: bytes) -> None:
        """*slot*'s proposal landed with *digest*: count the held votes that
        name it, before the slot's first quorum check; drop the rest."""
        for tally, sender, named in slot.parked:
            if named == digest:
                tally.add(sender)
        slot.parked = None

    # -------------------------------------------------------------- admission
    def admit_proposal(self, sender: str,
                       message: Message) -> Optional[Tuple[int, int]]:
        """May this backup act on the primary's proposal *message*?

        A proposal for a view not entered yet is deferred (it can overtake
        the NEW-VIEW on the wire); one arriving during a view change, for
        another view, from anyone but the primary, or for a slot that
        already accepted a proposal in this view is dropped.  Both return
        ``None``.  An admitted proposal returns its ``(view, sequence)``
        key: the caller charges for and computes the proposal's digest and
        stores it under that key in ``_accepted``, which is what makes the
        proposal the first of its slot.
        """
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
            return None
        if self.view_change_in_progress:
            return None
        view = self.view
        if message.view != view or sender != (  # primary_id, from its memo
                self._primary if self._primary_view == view else self.primary_id):
            return None
        key = (view, message.sequence)
        if key in self._accepted:
            return None
        batch = message.batch
        if batch.reply_to:
            self._reply_targets.setdefault(batch.batch_id, batch.reply_to)
        return key

    # ------------------------------------------------------------ protocol hooks
    def view_change_quorum(self) -> int:
        """Valid requests the next primary needs before proposing a NEW-VIEW.

        Reads the epoch-refreshed cache rather than the boot
        configuration: after a reconfiguration activates, view-change
        quorums are counted against the epoch the view belongs to.
        """
        return self._2f_plus_1

    def build_view_change_request(self, view: int) -> ViewChangeRequest:
        """This replica's VIEW-CHANGE request for replacing *view*: every
        logged entry it executed above its stable checkpoint."""
        log = self._log
        stable = self.checkpoints.stable_sequence
        executed = tuple(
            log[seq] for seq in sorted(log)
            if stable < seq <= self.last_executed_sequence
        )
        return ViewChangeRequest(
            view=view,
            replica_id=self.node_id,
            stable_checkpoint=stable,
            executed=executed,
            size_bytes=self.config.proposal_size_bytes(
                sum(len(entry.batch) for entry in executed)
            ),
        )

    def validate_view_change_request_message(self, request: ViewChangeRequest,
                                             view: int) -> bool:
        """Admission check for one received VIEW-CHANGE request: it targets
        *view* and carries a strictly consecutive run of entries starting
        right after the sender's stable checkpoint, each passing
        :meth:`view_change_entry_valid`."""
        if request.view != view:
            return False
        expected_sequence = request.stable_checkpoint + 1
        for entry in request.executed:
            if entry.sequence != expected_sequence:
                return False
            expected_sequence += 1
            if not self.view_change_entry_valid(entry):
                return False
        return True

    def view_change_entry_valid(self, entry: LogEntry) -> bool:
        """Is one executed entry of a received request well formed?"""
        return True

    def accept_new_view(self, proposal: NewView,
                        admissible: Tuple[ViewChangeRequest, ...]) -> bool:
        """Receiver-side acceptance rule for a NEW-VIEW message.

        *admissible* is the subset of the proposal's requests that passed
        :meth:`validate_view_change_request_message` — computed once and
        shared with :meth:`adopt_new_view`, so protocols do not re-verify
        (and re-charge) per-slot certificates a second time.
        """
        return len(admissible) >= self.view_change_quorum()

    def adopt_new_view(self, proposal: NewView,
                       requests: Tuple[ViewChangeRequest, ...], now_ms: float) -> int:
        """Adopt the state a NEW-VIEW certifies; return the adopted ``kmax``.

        *requests* holds only the admissible view-change requests — a
        Byzantine leader may pad the proposal with forged extras, and
        their entries must never reach prefix selection.  Runs while
        ``self.view`` is still the old view, so protocol code can
        distinguish old-view bookkeeping from the view being entered.
        """
        raise NotImplementedError

    def on_view_entered(self, view: int, now_ms: float) -> None:
        """Hook invoked right after the view advanced (timers, role rotation)."""

    # ------------------------------------------------------ adoption helpers
    def rollback_target(self, prefix: Dict[int, LogEntry], kmax: int) -> int:
        """Where execution must roll back to before adopting *prefix*.

        ``kmax`` when this replica executed nothing the prefix contradicts;
        otherwise the slot before the first one it executed differently —
        a forged or equivocated history may have put another batch there,
        and keeping it would fork the ledgers.  Never below the stable
        checkpoint: divergence under it is durable locally and belongs to
        the checkpoint layer's state-digest repair.
        """
        for sequence in sorted(prefix):
            if sequence > self.last_executed_sequence:
                break
            mine = self.executor.executed(sequence)
            if mine is not None and (mine.batch_digest
                                     != prefix[sequence].batch.digest()):
                return max(sequence - 1, self.checkpoints.stable_sequence)
        return kmax

    def evict_uncovered(self, prefix: Dict[int, LogEntry], kmax: int) -> None:
        """Drop pending slots the adopted prefix does not vouch for.

        Run *before* :meth:`commit_adopted`: once the prefix fills the gap
        in front of a stale pending slot, in-order execution would drain
        the stale slot right behind it and diverge from the cluster.  Slots
        the prefix covers are re-adopted from its entries.
        """
        for sequence in [s for s in self._committed if s > kmax or s in prefix]:
            del self._committed[sequence]

    def commit_adopted(self, prefix: Dict[int, LogEntry], now_ms: float) -> None:
        """:meth:`adopt_entry` every adopted entry not executed yet, in order."""
        for sequence in sorted(prefix):
            if sequence > self.last_executed_sequence:
                self.adopt_entry(prefix[sequence], now_ms)

    def adopt_entry(self, entry: LogEntry, now_ms: float) -> None:
        """Log one adopted entry and hand it to ``commit_slot``."""
        self._log[entry.sequence] = entry
        self.commit_slot(sequence=entry.sequence, view=entry.view, batch=entry.batch,
                         proof=entry.proof, now_ms=now_ms)

    def on_rolled_back(self, record: ExecutedBatch) -> None:
        self._log.pop(record.sequence, None)

    # ---------------------------------------------------------------- triggers
    def on_progress_timeout(self, batch_id: str, now_ms: float) -> None:
        """A forwarded request was not executed in time: suspect the primary."""
        self.initiate_view_change(now_ms)

    def initiate_view_change(self, now_ms: float) -> None:
        """Halt the normal case and broadcast a VIEW-CHANGE request."""
        if self.view_change_in_progress:
            return
        self.view_change_in_progress = True
        request = self.build_view_change_request(self.view)
        self.charge(CryptoOp.SIGN)
        self.broadcast(request)
        self.record_view_change_vote(self.view, self.node_id, request, now_ms)
        # Exponential back-off: if the next primary is also faulty, move on.
        # The delay doubles per consecutive failed view change (capped) so a
        # run of faulty primaries does not retry at a flat cadence.
        self.vc_retry_ms = delay = self.config.request_timeout_ms * 2 * (
            2 ** min(self._vc_failed_attempts, self.VC_BACKOFF_CAP))
        self.set_timer(self.VIEW_CHANGE_TIMER, delay, payload=self.view + 1)

    # ------------------------------------------------------------ vote counting
    def handle_view_change_message(self, sender: str, message: ViewChangeRequest,
                                   now_ms: float) -> None:
        self.charge(CryptoOp.VERIFY)
        if message.view < self.view:
            return
        # Transport-level sender, not the spoofable message.replica_id: one
        # Byzantine replica must not count as f + 1 view-change voters.
        self.record_view_change_vote(message.view, sender, message, now_ms)

    def record_view_change_vote(self, view: int, replica_id: str,
                                request: ViewChangeRequest, now_ms: float) -> None:
        votes = self._vc_votes.setdefault(view, {})
        if self.validate_view_change_request_message(request, view):
            votes[replica_id] = request
        else:  # still a voter, and an earlier admissible request stays
            votes.setdefault(replica_id, None)
        # Join rule: f + 1 view-change requests prove a non-faulty replica
        # detected a failure (paper, Figure 5, Line 8).
        if (not self.view_change_in_progress and view == self.view
                and len(votes) >= self._f_plus_1):
            self.initiate_view_change(now_ms)
        self._maybe_propose_new_view(view, now_ms)

    def _maybe_propose_new_view(self, view: int, now_ms: float) -> None:
        """Next primary: broadcast NEW-VIEW once a quorum of requests arrived."""
        new_view = view + 1
        if self.primary_for_view(new_view) != self.node_id:
            return
        if new_view in self._entered_views:
            return
        requests = {sender: request
                    for sender, request in self._vc_votes.get(view, {}).items()
                    if request is not None}
        quorum = self.view_change_quorum()
        if len(requests) < quorum:
            return
        chosen = tuple(requests[r] for r in sorted(requests)[:quorum])
        proposal = NewView(new_view=new_view, requests=chosen)
        self.charge(CryptoOp.SIGN)
        self.broadcast(proposal)
        # The chosen requests were validated at vote admission.
        self._enter_new_view(proposal, chosen, now_ms)

    def handle_new_view_message(self, sender: str, message: NewView,
                                now_ms: float) -> None:
        if message.new_view <= self.view or message.new_view in self._entered_views:
            return
        if self.primary_for_view(message.new_view) != sender:
            return
        self.charge(CryptoOp.VERIFY, max(1, len(message.requests)))
        # One admissible request per claimed replica: the quorum rule and
        # every f+1 threshold downstream (certificate corroboration,
        # checkpoint-digest agreement, support counting) assume *distinct*
        # requests, so a Byzantine new primary must not be able to stuff
        # the proposal with copies of one forged request.
        admissible_list = []
        claimed_ids = set()
        for request in message.requests:
            claimed = request.replica_id
            if claimed in claimed_ids:
                continue
            if self.validate_view_change_request_message(
                    request, message.new_view - 1):
                claimed_ids.add(claimed)
                admissible_list.append(request)
        admissible = tuple(admissible_list)
        if not self.accept_new_view(message, admissible):
            # An invalid new-view proposal is treated as a failure of the
            # new primary: move on to the next view.
            self.initiate_view_change(now_ms)
            return
        self._enter_new_view(message, admissible, now_ms)

    # ------------------------------------------------------------- view entry
    def _prune_view_change_state(self) -> None:
        """Drop vote/dedup state for views the replica moved past.

        Votes (and the requests they carry) are keyed by the view being
        *replaced*; once this replica runs a later view, no quorum for an
        older one can still form that it would act on.  Without the prune,
        every completed or abandoned view change leaks its request pool
        for the rest of the run (flushed out by the soak recipe).
        """
        view = self.view
        for stale in [v for v in self._vc_votes if v < view]:
            del self._vc_votes[stale]
        # NEW-VIEW dedup for views <= self.view is already handled by the
        # `new_view <= self.view` guard, so only future entries matter.
        self._entered_views = {v for v in self._entered_views if v >= view}

    def _enter_new_view(self, proposal: NewView,
                        requests: Tuple[ViewChangeRequest, ...], now_ms: float) -> None:
        kmax = self.adopt_new_view(proposal, requests, now_ms)
        self.view = proposal.new_view
        self._entered_views.add(proposal.new_view)
        self.view_change_in_progress = False
        self.view_changes_completed += 1
        self._vc_failed_attempts = 0
        self.vc_retry_ms = 0.0
        self._prune_view_change_state()
        self.cancel_timer(self.VIEW_CHANGE_TIMER)
        self.next_sequence = max(self.next_sequence, kmax + 1)
        if self.is_primary():
            self.next_sequence = kmax + 1
            self.maybe_propose(now_ms)
        self.on_view_entered(proposal.new_view, now_ms)
        # Replicas that were dark when the checkpoint votes went out (the
        # very replicas whose silence forced this view change) get the
        # transfer baseline re-established along with the new view.
        self.readvertise_stable_checkpoint()
        self.refresh_pending_requests(now_ms)
        self.replay_deferred(now_ms)

    def on_transfer_view_adopted(self, view: int, now_ms: float) -> None:
        """A state transfer advanced the view: align the recovery state.

        The transferred checkpoint proves the system entered *view*, so a
        pending retry timer for an older target must not fire a stale
        view change, and the view counts as entered for NEW-VIEW dedup.
        """
        self._entered_views.add(view)
        self.cancel_timer(self.VIEW_CHANGE_TIMER)

    def on_stable_checkpoint(self, sequence: int, now_ms: float) -> None:
        """Prune what the stable checkpoint at *sequence* supersedes.

        Accepted proposals and log entries go at or below it.
        The slot table keeps the boundary slot itself for one more
        interval: ``2f + 1`` checkpoint votes can land while a phase that
        runs *after* execution is still collecting for that slot (SBFT's
        executor gathering state shares for its execute-ack), and deleting
        the tally under it leaves the batch to the client's retransmission
        timer.  A finished slot kept that long only swallows late votes.
        """
        super().on_stable_checkpoint(sequence, now_ms)
        log = self._log
        for stale in [s for s in log if s <= sequence]:
            del log[stale]
        slots = self._slots
        for key in [k for k in slots if (k & 0xFFFFFFFF) < sequence]:
            del slots[key]
        accepted = self._accepted
        for key in [k for k in accepted if k[1] <= sequence]:
            del accepted[key]

    def on_epoch_activated(self, entry, evicted, now_ms: float) -> None:
        """An epoch activated mid-recovery: no quorum may mix epochs.

        Pending view-change votes and requests from replicas the new
        epoch evicted are purged — a view change straddling the boundary
        completes with the new epoch's quorum counted over the new
        epoch's membership only, never with a stale evicted vote topping
        up the count — and so are their votes and shares in every slot
        tally that is still open, and the votes they parked.
        """
        super().on_epoch_activated(entry, evicted, now_ms)
        if not evicted:
            return
        for votes in self._vc_votes.values():
            for rid in evicted:
                votes.pop(rid, None)
        self.purge_evicted(self._slots.values(), evicted)
        for slot in self._slots.values():
            if getattr(slot, "parked", None):
                slot.parked = [vote for vote in slot.parked if vote[1] not in evicted]

    # ------------------------------------------------------------------ timers
    def handle_view_change_timer(self, name: str, payload, now_ms: float) -> bool:
        """Process the retry timer; returns ``True`` when *name* was ours."""
        if name != self.VIEW_CHANGE_TIMER:
            return False
        # The new primary did not produce a valid NEW-VIEW in time.
        target_view = payload if isinstance(payload, int) else self.view + 1
        if target_view > self.view and self.view_change_in_progress:
            self.view_change_in_progress = False
            if not self._progress_timers \
                    and not self.has_unserved_forwarded_requests():
                # Stand down instead of escalating: everything this
                # replica suspected the primary over has since been served
                # (executed locally, or learned executed through a state
                # transfer), so there is no failure left to prove.  A lone
                # suspecter that keeps escalating drifts its view away
                # from the quorum and wedges itself out of the protocol;
                # if the primary really is faulty, client retransmissions
                # re-arm the progress timers and re-open the case.
                self._vc_failed_attempts = 0
                self.vc_retry_ms = 0.0
                return True
            self.view = target_view
            self._entered_views.add(target_view)
            self._vc_failed_attempts += 1
            self._prune_view_change_state()
            self.initiate_view_change(now_ms)
        return True

    def on_protocol_timer(self, name: str, payload, now_ms: float) -> None:
        self.handle_view_change_timer(name, payload, now_ms)

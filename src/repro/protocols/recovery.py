"""Shared view-change recovery subsystem for primary-backup protocols.

Every primary-backup protocol in this repository recovers from a faulty
primary the same way (paper, Section II-C): replicas that suspect the
primary broadcast a VIEW-CHANGE request, any replica joins once ``f + 1``
requests prove a non-faulty replica detected the failure, the primary of
the next view combines a quorum of requests into a NEW-VIEW message, and
replicas adopt the state it certifies — executing what they missed and
rolling back speculation it does not cover.  A retry timer with
exponential back-off moves past a chain of faulty primaries.

Until this module existed the machinery lived twice (PoE in
``repro.core.replica``, PBFT in ``repro.protocols.pbft``) and the two
baselines that *needed* it most — SBFT and Zyzzyva, whose matrix cells
were documented as expected-stall/expected-unsafe — had none.
:class:`ViewChangeRecovery` is the extraction: a mixin over
:class:`~repro.protocols.replica_base.BatchingReplica` that owns the
generic vote bookkeeping, the join rule, the new-view quorum and the retry
back-off, parameterised by a small set of protocol hooks (the rollback
itself, with its audit trail, is ``BatchingReplica.rollback_speculation``):

``view_change_quorum``
    how many valid requests the next primary needs (``nf`` for PoE,
    ``2f + 1`` for PBFT/SBFT/Zyzzyva);
``VIEW_CHANGE_REQUEST`` / ``VIEW_CHANGE_LOG`` / ``validate_view_change_request_message``
    the protocol's request class, the per-sequence entry log its requests
    carry (certified entries for PoE/SBFT, committed entries for PBFT;
    Zyzzyva overrides ``build_view_change_request`` to add the highest
    commit certificate to its speculative history) and the admission
    check;
``make_new_view`` / ``validate_new_view``
    the NEW-VIEW envelope and the receiver-side re-validation;
``adopt_new_view``
    the protocol-specific state selection — it runs *before* the view
    advances and returns ``kmax``, the last sequence number of the
    adopted prefix.

The mixin performs the shared epilogue (advance the view, reset the
back-off streak, re-base ``next_sequence``, re-propose pending client
requests, replay deferred new-view-era messages) so a protocol only
writes the part of recovery that is actually protocol-specific.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.crypto.cost import CryptoOp
from repro.protocols.base import Message


class ViewChangeRecovery:
    """Mixin implementing the protocol-agnostic view-change state machine.

    Use by listing it *before* ``BatchingReplica`` in the base-class list
    and calling :meth:`init_view_change` at the end of ``__init__``.  Map
    the protocol's VIEW-CHANGE and NEW-VIEW message types to
    ``handle_view_change_message`` / ``handle_new_view_message`` in
    ``MESSAGE_HANDLERS``.
    """

    #: Consecutive failed view changes double the retry timer up to a factor
    #: of ``2 ** VC_BACKOFF_CAP`` over the base ``2 * request_timeout_ms``.
    VC_BACKOFF_CAP = 5

    #: Name of the retry timer armed by :meth:`initiate_view_change`.
    VIEW_CHANGE_TIMER = "view-change"

    #: The protocol's VIEW-CHANGE message class.
    VIEW_CHANGE_REQUEST: type = None

    #: Name of the ``sequence -> entry`` log VIEW-CHANGE requests are built
    #: from; entries at or below a stable checkpoint are pruned from it.
    VIEW_CHANGE_LOG: str = ""

    def init_view_change(self) -> None:
        """Initialise the recovery state; call once from ``__init__``."""
        self._vc_votes: Dict[int, Set[str]] = {}
        self._vc_requests: Dict[int, Dict[str, Message]] = {}
        self._entered_views: Set[int] = {0}
        self._vc_failed_attempts = 0
        self.view_changes_completed = 0

    # ------------------------------------------------------------ protocol hooks
    def view_change_quorum(self) -> int:
        """Valid requests the next primary needs before proposing a NEW-VIEW.

        Reads the epoch-refreshed ``f + 1`` cache rather than the boot
        configuration: after a reconfiguration activates, view-change
        quorums are counted against the epoch the view belongs to.
        """
        return 2 * self._f_plus_1 - 1

    def build_view_change_request(self, view: int) -> Message:
        """This replica's VIEW-CHANGE request for replacing *view*: every
        logged entry it executed above its stable checkpoint."""
        log = getattr(self, self.VIEW_CHANGE_LOG)
        stable = self.checkpoints.stable_sequence
        executed = tuple(
            log[seq] for seq in sorted(log)
            if stable < seq <= self.last_executed_sequence
        )
        return self.VIEW_CHANGE_REQUEST(
            view=view,
            replica_id=self.node_id,
            stable_checkpoint=stable,
            executed=executed,
            size_bytes=self.config.proposal_size_bytes(
                sum(len(entry.batch) for entry in executed)
            ),
        )

    def validate_view_change_request_message(self, request: Message,
                                             view: int) -> bool:
        """Admission check for one received VIEW-CHANGE request."""
        return True

    def make_new_view(self, new_view: int, requests: Tuple[Message, ...]) -> Message:
        """Build the NEW-VIEW message from a quorum of *requests*."""
        raise NotImplementedError

    def accept_new_view(self, proposal: Message,
                        admissible: Tuple[Message, ...]) -> bool:
        """Receiver-side acceptance rule for a NEW-VIEW message.

        *admissible* is the subset of the proposal's requests that passed
        :meth:`validate_view_change_request_message` — computed once and
        shared with :meth:`adopt_new_view`, so protocols do not re-verify
        (and re-charge) per-slot certificates a second time.
        """
        return len(admissible) >= self.view_change_quorum()

    def adopt_new_view(self, proposal: Message,
                       requests: Tuple[Message, ...], now_ms: float) -> int:
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
        delay = self.config.request_timeout_ms * 2 * (
            2 ** min(self._vc_failed_attempts, self.VC_BACKOFF_CAP))
        self.set_timer(self.VIEW_CHANGE_TIMER, delay, payload=self.view + 1)

    # ------------------------------------------------------------ vote counting
    def handle_view_change_message(self, sender: str, message: Message,
                                   now_ms: float) -> None:
        self.charge(CryptoOp.VERIFY)
        if message.view < self.view:
            return
        # Transport-level sender, not the spoofable message.replica_id: one
        # Byzantine replica must not count as f + 1 view-change voters.
        self.record_view_change_vote(message.view, sender, message, now_ms)

    def record_view_change_vote(self, view: int, replica_id: str,
                                request: Message, now_ms: float) -> None:
        votes = self._vc_votes.setdefault(view, set())
        votes.add(replica_id)
        requests = self._vc_requests.setdefault(view, {})
        if self.validate_view_change_request_message(request, view):
            requests[replica_id] = request
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
        requests = self._vc_requests.get(view, {})
        quorum = self.view_change_quorum()
        if len(requests) < quorum:
            return
        chosen = tuple(requests[r] for r in sorted(requests)[:quorum])
        proposal = self.make_new_view(new_view, chosen)
        self.charge(CryptoOp.SIGN)
        self.broadcast(proposal)
        # The chosen requests were validated at vote admission.
        self._enter_new_view(proposal, chosen, now_ms)

    def handle_new_view_message(self, sender: str, message: Message,
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
            claimed = getattr(request, "replica_id", None)
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
        """Drop vote/request/dedup state for views the replica moved past.

        Votes and requests are keyed by the view being *replaced*; once
        this replica runs a later view, no quorum for an older one can
        still form that it would act on.  Without the prune, every
        completed or abandoned view change leaks its request pool for the
        rest of the run (flushed out by the soak recipe).
        """
        view = self.view
        for stale in [v for v in self._vc_votes if v < view]:
            del self._vc_votes[stale]
        for stale in [v for v in self._vc_requests if v < view]:
            del self._vc_requests[stale]
        # NEW-VIEW dedup for views <= self.view is already handled by the
        # `new_view <= self.view` guard, so only future entries matter.
        self._entered_views = {v for v in self._entered_views if v >= view}

    def _enter_new_view(self, proposal: Message,
                        requests: Tuple[Message, ...], now_ms: float) -> None:
        kmax = self.adopt_new_view(proposal, requests, now_ms)
        self.view = proposal.new_view
        self._entered_views.add(proposal.new_view)
        self.view_change_in_progress = False
        self.view_changes_completed += 1
        self._vc_failed_attempts = 0
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
        """Entries the stable checkpoint covers never ride in a request again."""
        super().on_stable_checkpoint(sequence, now_ms)
        log = getattr(self, self.VIEW_CHANGE_LOG)
        for stale in [s for s in log if s <= sequence]:
            del log[stale]

    def on_epoch_activated(self, entry, evicted, now_ms: float) -> None:
        """An epoch activated mid-recovery: no quorum may mix epochs.

        Pending view-change votes and requests from replicas the new
        epoch evicted are purged — a view change straddling the boundary
        completes with the new epoch's quorum counted over the new
        epoch's membership only, never with a stale evicted vote topping
        up the count.
        """
        super().on_epoch_activated(entry, evicted, now_ms)
        if not evicted:
            return
        for votes in self._vc_votes.values():
            for rid in evicted:
                votes.discard(rid)
        for requests in self._vc_requests.values():
            for rid in evicted:
                requests.pop(rid, None)

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
                return True
            self.view = target_view
            self._entered_views.add(target_view)
            self._vc_failed_attempts += 1
            self._prune_view_change_state()
            self.initiate_view_change(now_ms)
        return True

    def on_protocol_timer(self, name: str, payload, now_ms: float) -> None:
        self.handle_view_change_timer(name, payload, now_ms)

"""Deterministic Byzantine behaviours for the simulated network.

The paper's safety argument (Section II-C, Example 3) is about what a
*malicious* primary can do, not merely a crashed one: it can equivocate
(send conflicting proposals to disjoint halves of the replicas), keep
replicas in the dark, replay or delay messages, and ship stale or garbage
certificates.  The fault schedule in :mod:`repro.net.faults` only covers
omission faults; this module adds active misbehaviour.

A :class:`ByzantineBehavior` is attached to one replica through
:meth:`repro.net.network.SimNetwork.set_byzantine`.  The replica keeps
running its *honest* protocol state machine — Byzantine action happens at
the network boundary, where the behaviour intercepts every outgoing
fan-out and may tamper with, duplicate, delay, drop or fabricate
messages.  Two properties are load-bearing:

* **Transport senders cannot be forged.**  Fabricated messages are still
  transmitted as the Byzantine node, so a protocol that binds vote
  identity to the transport-level sender is immune to identity spoofing
  while one that trusts a ``replica_id`` field in the payload is not
  (this is exactly the regression the safety auditor guards).
* **Determinism.**  Behaviours draw randomness only from a seeded
  :class:`random.Random` bound at attach time, so Byzantine runs are
  byte-identical across same-seed executions (pinned by
  ``tests/test_determinism.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.messages import PoeCertify, PoePropose, PoeSupport
from repro.core.view_change import proposal_digest as poe_proposal_digest
from repro.crypto.hashing import digest
from repro.ledger.execution import modelled_result_digest
from repro.protocols.base import Message
from repro.protocols.checkpoint import CheckpointMessage, StateTransferResponse
from repro.protocols.hotstuff import HotStuffProposal
from repro.protocols.pbft import PbftCommit, PbftPrePrepare, PbftPrepare, PbftReplica
from repro.protocols.recovery import LogEntry, ViewChangeRequest
from repro.protocols.sbft import SbftPrePrepare, SbftReplica
from repro.protocols.zyzzyva import (
    ZyzzyvaCommitCertificate,
    ZyzzyvaOrderRequest,
    ZyzzyvaProofOfMisbehaviour,
    ZyzzyvaReplica,
)
from repro.workload.transactions import RequestBatch, Transaction


@dataclass(slots=True)
class Delivery:
    """One message scheduled for transmission to one receiver."""

    receiver: str
    message: Message
    delay_ms: float = 0.0


class ByzantineBehavior:
    """Base class: transforms the fan-outs a Byzantine node transmits.

    Subclasses override :meth:`transform` (and optionally :meth:`on_bind`).
    The identity transform makes the node behave honestly.

    *Replica-level* behaviours additionally override :meth:`install`,
    which receives the replica object itself at cluster build time: unlike
    the network-boundary transforms, an installed behaviour can corrupt
    the replica's *state machine* (execute a wrong batch, journal a forged
    history) — the class of misbehaviour the speculative-consensus
    correctness literature dissects and the wire-level repertoire cannot
    reach.  Installed behaviours must stay deterministic: derive anything
    random from ``self.rng``, never from global randomness.
    """

    def __init__(self) -> None:
        self.node_id: str = ""
        self.replica_ids: List[str] = []
        self.rng: Random = Random(0)
        self.network = None

    def bind(self, node_id: str, replica_ids: Sequence[str], seed: object) -> None:
        """Attach the behaviour to *node_id* in a deployment (idempotent)."""
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self.rng = Random(f"byzantine:{node_id}:{seed}")
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses needing derived state (groups, targets...)."""

    def attach_network(self, network) -> None:
        """Hook giving the behaviour a handle on the live network fabric.

        Called by :meth:`SimNetwork.set_byzantine` right after
        :meth:`bind`.  Adaptive behaviours use it to mount reactive
        attacks (crash/partition the *current* primary) that static fault
        schedules cannot express.  The default just stores the handle.
        """
        self.network = network

    def install(self, replica) -> None:
        """Hook for replica-level behaviours: corrupt the state machine.

        Called once by the cluster builder with the Byzantine node's
        replica object, after :meth:`bind`.  The default does nothing —
        network-boundary behaviours never touch the replica.
        """

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        """Rewrite one outgoing fan-out (a unicast is a one-element list)."""
        return deliveries


class EquivocatingPrimary(ByzantineBehavior):
    """A primary that proposes conflicting batches to disjoint halves.

    The honest half (``group_a``, ``f`` replicas) receives the primary's
    real proposals; the dark half (``group_b``, ``nf - 1`` replicas, so
    that together with the primary it can reach an ``nf`` quorum) receives
    a *forged* batch under the same (view, sequence) slot.  Forged batches
    carry fresh batch ids, modelling requests the primary fabricated
    itself — it cannot forge client signatures, so tampering an existing
    client batch in place is not an available attack.

    With ``spoof_votes`` the primary additionally fabricates the vote
    messages of ``group_b`` (PoE MAC SUPPORTs, PBFT PREPARE/COMMITs) and
    sends them to ``group_a``, claiming forged ``replica_id`` values.  If
    a protocol counts those claimed identities, both halves reach a
    quorum on *conflicting* batches at the same sequence number — a
    safety violation the auditor reports as a divergent prefix.  With
    vote identity correctly bound to the transport sender the forged
    votes all collapse onto the primary and the honest half can never
    complete its quorum.
    """

    #: Message types that carry a proposal (per-protocol equivocation points).
    PROPOSAL_TYPES = (PoePropose, PbftPrePrepare, SbftPrePrepare,
                      ZyzzyvaOrderRequest, HotStuffProposal)

    def __init__(self, spoof_votes: bool = True) -> None:
        super().__init__()
        self.spoof_votes = spoof_votes
        self.group_a: Set[str] = set()
        self.group_b: Set[str] = set()
        self._forged: Dict[Tuple[int, int], RequestBatch] = {}
        #: (view, sequence) -> (real PBFT digest, forged PBFT digest), used
        #: to keep the primary's own PREPARE/COMMIT votes consistent with
        #: whichever proposal each half received.
        self._pbft_digests: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
        #: (view, sequence) -> forged Zyzzyva history digest: the dark half
        #: must see a *coherent* alternative history chain, or the forgery
        #: is trivially detectable from one message.
        self._forged_history: Dict[Tuple[int, int], bytes] = {}
        #: (view, sequence) -> the *real* Zyzzyva history digest observed on
        #: the wire.  A windowed equivocator (``CheckpointEquivocator``)
        #: sends the dark half honest orderings between windows, so a forged
        #: slot must chain from the real history of its predecessor — not
        #: from a forged entry that was never sent.
        self._real_history: Dict[Tuple[int, int], bytes] = {}
        self._spoofed_slots: Set[Tuple[type, int, int]] = set()

    def on_bind(self) -> None:
        others = [r for r in self.replica_ids if r != self.node_id]
        n = len(self.replica_ids)
        f = (n - 1) // 3
        nf = n - f
        # group_b must reach nf together with the primary itself.
        split = max(0, min(len(others), nf - 1))
        self.group_b = set(others[len(others) - split:])
        self.group_a = set(others[: len(others) - split])

    # ------------------------------------------------------------- forgery
    def _forged_batch(self, view: int, sequence: int, real: RequestBatch) -> RequestBatch:
        key = (view, sequence)
        forged = self._forged.get(key)
        if forged is None:
            transactions = tuple(
                Transaction(txn_id=f"byz:{view}:{sequence}:{i}",
                            client_id=self.node_id, operations=(),
                            created_at_ms=real.created_at_ms)
                for i in range(len(real.transactions))
            )
            forged = RequestBatch(
                batch_id=f"byz:{self.node_id}:{view}:{sequence}",
                transactions=transactions,
                created_at_ms=real.created_at_ms,
                reply_to=real.reply_to,
                logical_size=real.logical_size,
            )
            self._forged[key] = forged
        return forged

    def _pbft_digest_pair(self, view: int, sequence: int,
                          real_batch: RequestBatch) -> Tuple[bytes, bytes]:
        key = (view, sequence)
        pair = self._pbft_digests.get(key)
        if pair is None:
            forged = self._forged_batch(view, sequence, real_batch)
            pair = (digest("pbft", view, sequence, real_batch.digest()),
                    digest("pbft", view, sequence, forged.digest()))
            self._pbft_digests[key] = pair
        return pair

    def _equivocate(self, message: Message) -> Optional[Message]:
        """Build the conflicting variant of a proposal for ``group_b``."""
        if isinstance(message, HotStuffProposal):
            # HotStuff is the only proposal whose digest chains to a parent
            # block; the forged block must recompute it or receivers reject.
            if message.batch is None:
                return None
            forged = self._forged_batch(0, message.round_number, message.batch)
            justify = message.justify
            parent = justify.block_digest if justify is not None else b"genesis"
            block_digest = digest("hotstuff-block", message.round_number,
                                  forged.digest(), parent)
            return dataclasses.replace(message, batch=forged,
                                       block_digest=block_digest)
        if isinstance(message, ZyzzyvaOrderRequest):
            # Zyzzyva orderings chain a history digest; the forged ordering
            # recomputes the chain over the forged batches so the dark half
            # accepts (and echoes) a self-consistent alternative history.
            forged = self._forged_batch(message.view, message.sequence, message.batch)
            key = (message.view, message.sequence)
            previous = self._forged_history.get((message.view, message.sequence - 1))
            if previous is None:
                previous = self._real_history.get(
                    (message.view, message.sequence - 1),
                    digest("zyzzyva-history", "genesis"))
            forged_history = digest("zyzzyva-history", previous,
                                    message.sequence, forged.digest())
            self._forged_history[key] = forged_history
            return dataclasses.replace(message, batch=forged,
                                       history_digest=forged_history)
        if isinstance(message, (PoePropose, PbftPrePrepare, SbftPrePrepare)):
            forged = self._forged_batch(message.view, message.sequence, message.batch)
            if isinstance(message, PbftPrePrepare):
                # Cache the digest pair so the primary's own PREPARE/COMMIT
                # votes can be kept consistent with each half's proposal.
                self._pbft_digest_pair(message.view, message.sequence, message.batch)
            return dataclasses.replace(message, batch=forged)
        return None

    def _spoofed_votes(self, message: Message) -> List[Delivery]:
        """Fabricate group_b's votes for the *real* proposal, addressed to
        group_a under forged identities."""
        votes: List[Delivery] = []
        slot_key = (type(message), getattr(message, "view", 0),
                    getattr(message, "sequence", getattr(message, "round_number", 0)))
        if slot_key in self._spoofed_slots:
            return votes
        self._spoofed_slots.add(slot_key)
        if isinstance(message, PoePropose):
            real_digest = poe_proposal_digest(message.sequence, message.view,
                                              message.batch.digest())
            for forged_id in sorted(self.group_b):
                support = PoeSupport(view=message.view, sequence=message.sequence,
                                     proposal_digest=real_digest,
                                     replica_id=forged_id)
                for receiver in sorted(self.group_a):
                    votes.append(Delivery(receiver, support))
        elif isinstance(message, PbftPrePrepare):
            real_digest, _ = self._pbft_digest_pair(message.view, message.sequence,
                                                    message.batch)
            for forged_id in sorted(self.group_b):
                prepare = PbftPrepare(view=message.view, sequence=message.sequence,
                                      batch_digest=real_digest, replica_id=forged_id)
                commit = PbftCommit(view=message.view, sequence=message.sequence,
                                    batch_digest=real_digest, replica_id=forged_id)
                for receiver in sorted(self.group_a):
                    votes.append(Delivery(receiver, prepare))
                    votes.append(Delivery(receiver, commit))
        return votes

    def _consistent_vote(self, message: Message, receiver: str) -> Message:
        """Keep the primary's own PBFT votes consistent per half."""
        if receiver in self.group_b and isinstance(message, (PbftPrepare, PbftCommit)):
            digests = self._pbft_digests.get((message.view, message.sequence))
            if digests is not None and message.batch_digest == digests[0]:
                return dataclasses.replace(message, batch_digest=digests[1])
        return message

    def _equivocation_active(self, message: Message) -> bool:
        """Whether *this* proposal is equivocated (hook for windowed
        variants such as :class:`CheckpointEquivocator`)."""
        return True

    # ------------------------------------------------------------ transform
    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out: List[Delivery] = []
        spoofed: List[Delivery] = []
        for delivery in deliveries:
            message = delivery.message
            if isinstance(message, self.PROPOSAL_TYPES):
                if isinstance(message, ZyzzyvaOrderRequest):
                    self._real_history.setdefault(
                        (message.view, message.sequence), message.history_digest)
                if self._equivocation_active(message):
                    if delivery.receiver in self.group_b:
                        forged = self._equivocate(message)
                        if forged is not None:
                            out.append(Delivery(delivery.receiver, forged,
                                                delivery.delay_ms))
                            continue
                    elif self.spoof_votes:
                        spoofed.extend(self._spoofed_votes(message))
            out.append(Delivery(delivery.receiver,
                                self._consistent_vote(message, delivery.receiver),
                                delivery.delay_ms))
        out.extend(spoofed)
        return out


class AdaptiveBehavior(ByzantineBehavior):
    """Base for behaviours that *react* to live protocol state.

    Static behaviours fix their strategy at t = 0; the reactive strategies
    the speculative-consensus correctness literature dissects (target the
    current primary, misbehave only near recovery boundaries) need to
    observe the system as it runs.  An adaptive behaviour reads that state
    from two handles it already gets for free: the replica object passed
    to :meth:`install` (live view number, checkpoint state — the replica
    keeps running its honest state machine, so its view tracks the
    cluster's) and the network fabric from :meth:`attach_network` (to
    mount crash/partition attacks mid-run).

    Determinism is preserved because every decision is a function of
    virtual time and the replica's own deterministic state; ``self.rng``
    remains the only randomness source.
    """

    def __init__(self) -> None:
        super().__init__()
        self.replica = None

    def install(self, replica) -> None:
        self.replica = replica

    def observed_view(self) -> int:
        """The view the behaviour's own (honest) replica is currently in."""
        return getattr(self.replica, "view", 0) if self.replica is not None else 0

    def observed_primary(self) -> str:
        """Who the behaviour's replica believes is primary right now."""
        if self.replica is None:
            return ""
        return self.replica.config.primary_of_view(self.observed_view())


class PrimaryTargeter(AdaptiveBehavior):
    """Attacks whoever is primary *now*, re-targeting after view changes.

    A static schedule can only crash the primary of view 0; this adaptive
    attacker follows the leadership as it moves — each time its own
    replica's view advances past an attacked primary, the *new* primary
    becomes the target.  Two modes:

    * ``partition`` (default): sever all replica links to the current
      primary for ``window_ms``, then heal.  The isolated primary keeps
      serving clients into a void; the backups' progress timers fire and
      drive a view change.  Healed primaries rejoin via checkpoints.
    * ``crash``: crash the primary outright (permanent).  The attack
      budget must then stay within ``f`` or the attacker trades its own
      liveness away with everyone else's.

    ``max_targets`` bounds the campaign so targeted cells terminate: after
    the budget is spent the behaviour goes silent and the last elected
    primary makes progress.
    """

    #: No attack before this much virtual time has passed.
    INITIAL_DELAY_MS = 10.0

    def __init__(self, mode: str = "partition", window_ms: float = 60.0,
                 max_targets: int = 2) -> None:
        super().__init__()
        if mode not in ("partition", "crash"):
            raise ValueError(f"unknown PrimaryTargeter mode {mode!r}")
        self.mode = mode
        self.window_ms = window_ms
        self.max_targets = max_targets
        self.attacked: List[str] = []

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        self._maybe_attack(now_ms)
        return deliveries

    def _maybe_attack(self, now_ms: float) -> None:
        if self.network is None or len(self.attacked) >= self.max_targets:
            return
        if now_ms < self.INITIAL_DELAY_MS:
            return
        primary = self.observed_primary()
        if not primary or primary == self.node_id or primary in self.attacked:
            return
        self.attacked.append(primary)
        if self.mode == "crash":
            self.network.crash(primary, at_ms=now_ms)
        else:
            others = [r for r in self.replica_ids if r != primary]
            self.network.faults.add_partition(
                [primary], others, at_ms=now_ms,
                until_ms=now_ms + self.window_ms)


class CheckpointEquivocator(EquivocatingPrimary, AdaptiveBehavior):
    """Equivocates only within a window of checkpoint boundaries.

    An always-on equivocator is loud: every slot disagrees, so the first
    vote round already exposes it.  This variant behaves honestly for most
    slots and forks only the last ``window`` slots before each checkpoint
    boundary — exactly where a divergent batch would be laundered into a
    stable checkpoint if the checkpoint vote did not require ``f + 1``
    *matching* digests.  The boundary position is read live from the
    replica's own configuration, so the attack tracks whatever interval
    the deployment runs with.

    Zyzzyva note: between windows the dark half accepts the *real*
    orderings, so forged slots chain from the real predecessor history
    (see ``EquivocatingPrimary._real_history``) — each forged message
    stays locally coherent and only the vote round catches the fork.
    """

    def __init__(self, spoof_votes: bool = False, window: int = 2) -> None:
        super().__init__(spoof_votes=spoof_votes)
        self.window = max(1, window)

    def _equivocation_active(self, message: Message) -> bool:
        replica = self.replica
        interval = replica.config.checkpoint_interval if replica is not None else 0
        if interval <= 0:
            return True
        sequence = getattr(message, "sequence", None)
        if sequence is None:
            sequence = getattr(message, "round_number", 0)
        # Distance (in slots) from this sequence to its checkpoint
        # boundary; boundaries sit at (sequence + 1) % interval == 0.
        distance = interval - 1 - (sequence % interval)
        return distance < self.window


class TimeoutStaller(AdaptiveBehavior):
    """Withholds its view-change vote until just before the retry deadline.

    The recovery protocol retries an unfinished view change after an
    exponential backoff.  A replica that simply never votes is eventually
    routed around; this one *rides the schedule*: it joins each view
    change it is needed for, but delays its VIEW-CHANGE broadcast so it
    lands ``lead_ms`` before the honest replicas' retry deadline — the
    maximum stall that still lets the view change complete, repeated for
    ``max_stalls`` views before the budget forces honesty.  Nothing it
    does is provably faulty (the messages are well-formed and honest),
    which is what makes the timing attack a pure liveness probe: the
    auditor must find every cell safe, just slower.

    HotStuff rotates leaders on a pacemaker instead of running this
    recovery protocol, so the behaviour is a no-op there.
    """

    def __init__(self, lead_ms: float = 10.0, max_stalls: int = 2) -> None:
        super().__init__()
        self.lead_ms = lead_ms
        self.max_stalls = max_stalls
        self.stalls = 0
        self._stalled_views: Set[int] = set()

    def _stall_delay(self) -> float:
        replica = self.replica
        backoff = replica.config.request_timeout_ms * 2 * (
            2 ** min(replica._vc_failed_attempts, replica.VC_BACKOFF_CAP))
        return max(0.0, backoff - self.lead_ms)

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        if self.replica is None or not deliveries:
            return deliveries
        message = deliveries[0].message
        if not isinstance(message, ViewChangeRequest):
            return deliveries
        if message.view in self._stalled_views or self.stalls >= self.max_stalls:
            return deliveries
        self._stalled_views.add(message.view)
        self.stalls += 1
        extra = self._stall_delay()
        if extra <= 0.0:
            return deliveries
        return [Delivery(d.receiver, d.message, d.delay_ms + extra)
                for d in deliveries]


# ---------------------------------------------------------------------------
# The colluding tier: up to ``f`` conspirators sharing one playbook.


@dataclass
class ColludingPlaybook:
    """Shared strategy state for a cabal of up to ``f`` conspirators.

    Independent Byzantine replicas each fight alone; the reconfiguration
    attack surface (epoch-activation windows, membership churn) rewards
    *coordination* — equivocate only while the cabal holds the primary
    seat, park a poisoned vote until the activation boundary.  The
    playbook is the cabal's out-of-band channel: one shared object the
    cluster builder links into every conspirator of a deployment, so a
    behaviour can ask "does one of us hold the seat right now?" without
    any in-band (auditable) traffic.  It holds only replica ids, so
    determinism is inherited from the deterministic protocol state the
    conspirators observe.
    """

    members: List[str] = field(default_factory=list)

    def enroll(self, node_id: str) -> None:
        if node_id and node_id not in self.members:
            self.members.append(node_id)

    def is_conspirator(self, replica_id: str) -> bool:
        return replica_id in self.members


class ColludingBehavior(AdaptiveBehavior):
    """Base for conspirators: adaptive behaviours linked to a playbook.

    The cluster builder recognises the ``wants_playbook`` marker and
    assigns one shared :class:`ColludingPlaybook` to every conspirator
    (after :meth:`bind`, so enrolment sees the real ``node_id``).
    """

    wants_playbook = True

    def __init__(self) -> None:
        super().__init__()
        self._playbook: Optional[ColludingPlaybook] = None

    def join(self, playbook: ColludingPlaybook) -> None:
        """Share *playbook* with the other conspirators."""
        self._playbook = playbook
        if self.node_id:
            playbook.enroll(self.node_id)

    def observed_primary(self) -> str:
        # Epoch-aware: after a reconfiguration the primary rotation runs
        # over the active epoch's membership, not the boot membership.
        replica = self.replica
        if replica is not None and hasattr(replica, "primary_for_view"):
            return replica.primary_for_view(self.observed_view())
        return super().observed_primary()

    def cabal_holds_seat(self) -> bool:
        """Whether the primary this conspirator observes is a conspirator."""
        playbook = self._playbook
        return (playbook is not None
                and playbook.is_conspirator(self.observed_primary()))


class ColludingEquivocator(EquivocatingPrimary, ColludingBehavior):
    """Equivocates only while the cabal holds the primary seat.

    A lone always-on equivocator keeps forking slots even after a view
    change strips it of the seat, so its forged traffic is pure noise
    that unmasks it.  The playbook rule is tighter: fork a slot only
    while the primary this conspirator's own replica observes is a
    cabal member (usually itself), and only for the first ``MAX_SLOTS``
    forged slots — after the budget the cabal goes permanently covert
    and the cell terminates with honest progress.  A slot already forged
    stays forked for its retransmissions; flipping back mid-slot would
    hand the dark half a digest mismatch that exposes the attack in one
    message.
    """

    MAX_SLOTS = 6

    def __init__(self, spoof_votes: bool = False) -> None:
        super().__init__(spoof_votes=spoof_votes)

    def _slot_key(self, message: Message) -> Tuple[int, int]:
        if isinstance(message, HotStuffProposal):
            return (0, message.round_number)
        return (getattr(message, "view", 0), getattr(message, "sequence", 0))

    def _equivocation_active(self, message: Message) -> bool:
        if self._slot_key(message) in self._forged:
            return True
        if len(self._forged) >= self.MAX_SLOTS:
            return False
        return self.cabal_holds_seat()


class ColludingVoteParker(ColludingBehavior):
    """Parks its checkpoint votes while the cabal holds the primary seat.

    Checkpoint votes are the only commitment a backup makes about
    *stable* state, and epochs activate exactly at checkpoint boundaries
    — so a conspirator that withholds its votes while a fellow
    conspirator drives consensus maximises ambiguity about which
    boundary stabilised.  Parked votes are released in arrival order
    when (a) the replica's own epoch machinery arms a pending activation
    — the epoch-activation window, where a stale boundary vote is most
    likely to be miscounted against the wrong membership — (b) the cabal
    loses the seat (staying covert), or (c) ``MAX_PARK_MS`` passes,
    bounding the stall so every cell terminates.

    With ``poison=True`` each release also fabricates a corrupted
    duplicate (garbage state digest) of the released vote.  Per-digest
    vote buckets mean the poison lands in a bucket of its own and must
    change nothing — a probe for the auditor's quorum-at-the-time
    re-validation, not a liveness attack.
    """

    MAX_PARK_MS = 120.0
    MAX_PARKED = 12

    def __init__(self, poison: bool = False) -> None:
        super().__init__()
        self.poison = poison
        self.released = 0
        self._parked: List[Tuple[float, Delivery]] = []

    def _release_due(self, now_ms: float) -> bool:
        if not self._parked:
            return False
        if getattr(self.replica, "_pending_epochs", None):
            return True  # the epoch-activation window is open
        if not self.cabal_holds_seat():
            return True
        return now_ms - self._parked[0][0] >= self.MAX_PARK_MS

    def _poisoned(self, message: CheckpointMessage) -> CheckpointMessage:
        return dataclasses.replace(
            message,
            state_digest=digest("colluding-poison", self.node_id,
                                message.sequence))

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out: List[Delivery] = []
        if self._release_due(now_ms):
            for _, delivery in self._parked:
                out.append(delivery)
                if self.poison and isinstance(delivery.message, CheckpointMessage):
                    out.append(Delivery(delivery.receiver,
                                        self._poisoned(delivery.message),
                                        delivery.delay_ms))
            self.released += len(self._parked)
            self._parked.clear()
        parking = (self.cabal_holds_seat()
                   and len(self._parked) < self.MAX_PARKED)
        for delivery in deliveries:
            if parking and isinstance(delivery.message, CheckpointMessage):
                self._parked.append((now_ms, delivery))
            else:
                out.append(delivery)
        return out


class ColludingReconfigAbuser(ColludingBehavior):
    """Proposes a membership change that would strand the honest quorum.

    At ``at_ms`` the conspirator fabricates a
    :class:`~repro.protocols.epoch.ReconfigRecord` removing ``f + 1``
    honest (non-cabal) members of the epoch its own replica currently
    sits in — a change that leaves fewer than ``2 f_old + 1`` old
    members surviving, so an activated version would let the cabal
    outvote the honest remainder.  The record is injected as an ordinary
    retransmitted client request to every member, so the honest primary
    orders it through the normal batch path like any reconfiguration;
    every honest replica then refuses it at execution (the
    quorum-continuity rule of ``reconfig_record_valid``) and journals
    the refusal, which the epoch-aware auditor cross-checks.  The abuse
    is a safety probe only: the run must stay live, and any *legal*
    records in the same run must still activate.
    """

    def __init__(self, at_ms: float = 20.0) -> None:
        super().__init__()
        self.at_ms = at_ms
        self.sent_records = 0

    def _unsafe_record(self, now_ms: float):
        from repro.protocols.epoch import make_reconfig_record

        replica = self.replica
        if replica is None:
            return None, ()
        epoch = getattr(replica, "epoch", 0)
        members = list(replica.config.membership(epoch))
        cabal = (set(self._playbook.members) if self._playbook is not None
                 else {self.node_id})
        honest = [rid for rid in members if rid not in cabal]
        f_old = (len(members) - 1) // 3
        victims = honest[: f_old + 1]
        if not victims:
            return None, ()
        record = make_reconfig_record(new_epoch=epoch + 1, remove=victims,
                                      created_at_ms=now_ms)
        return record, tuple(members)

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        if self.sent_records or now_ms < self.at_ms:
            return deliveries
        record, members = self._unsafe_record(now_ms)
        if record is None:
            return deliveries
        from repro.protocols.client_messages import ClientRequestMessage

        self.sent_records += 1
        request = ClientRequestMessage(batch=record,
                                       reply_to=f"byz:{self.node_id}",
                                       retransmission=True)
        out = list(deliveries)
        for receiver in members:
            out.append(Delivery(receiver, request))
        return out


class MessageDelayer(ByzantineBehavior):
    """Delays every outgoing message by a (deterministically jittered) lag.

    Models a slow-but-correct Byzantine replica trying to push the system
    into timeout-driven paths without ever being provably faulty.
    """

    def __init__(self, delay_ms: float = 40.0, jitter_ms: float = 0.0) -> None:
        super().__init__()
        self.delay_ms = delay_ms
        self.jitter_ms = jitter_ms

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out = []
        for delivery in deliveries:
            extra = self.delay_ms
            if self.jitter_ms > 0:
                extra += self.rng.random() * self.jitter_ms
            out.append(Delivery(delivery.receiver, delivery.message,
                                delivery.delay_ms + extra))
        return out


class MessageReplayer(ByzantineBehavior):
    """Replays previously sent messages alongside the live traffic.

    Every ``REPLAY_EVERY``-th fan-out additionally re-sends one message
    drawn deterministically from a bounded history.  Honest protocols must
    treat duplicates idempotently (vote sets, seen-batch sets), so replay
    alone should never violate safety — the auditor verifies that.
    """

    REPLAY_EVERY = 4
    REPLAY_DELAY_MS = 5.0
    HISTORY = 64

    def __init__(self) -> None:
        super().__init__()
        self._sent: List[Delivery] = []
        self._fanouts = 0

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out = list(deliveries)
        self._fanouts += 1
        if self._sent and self._fanouts % self.REPLAY_EVERY == 0:
            victim = self._sent[self.rng.randrange(len(self._sent))]
            out.append(Delivery(victim.receiver, victim.message,
                                self.REPLAY_DELAY_MS))
        for delivery in deliveries:
            self._sent.append(delivery)
        if len(self._sent) > self.HISTORY:
            del self._sent[: len(self._sent) - self.HISTORY]
        return out


class StaleCertifier(ByzantineBehavior):
    """A PoE primary that certifies selectively, with stale/garbage proofs.

    For every :class:`PoeCertify`, one deterministic *victim* replica
    receives the real certificate while everyone else gets either the
    certificate of a previous slot (stale) or none at all (garbage),
    alternating per slot.  Correct replicas verify the threshold signature
    against the slot digest and reject the bad proofs, so consensus stalls
    and a view change replaces the primary — but the victim view-commits
    and speculatively executes alone.  This is the nastiest certificate
    attack in the repertoire: the view change must either adopt the
    victim's certified slots or cleanly supersede its pending speculation
    (the regression that bug-fixed ``_enter_new_view``'s stale-slot
    eviction order).
    """

    def __init__(self) -> None:
        super().__init__()
        self.victim: str = ""
        self._previous_certificate = None
        self._stale_for_slot = None
        self._tampered_slots: Set[Tuple[int, int]] = set()

    def on_bind(self) -> None:
        others = sorted(r for r in self.replica_ids if r != self.node_id)
        self.victim = others[self.rng.randrange(len(others))] if others else ""

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out: List[Delivery] = []
        for delivery in deliveries:
            message = delivery.message
            if isinstance(message, PoeCertify) and delivery.receiver != self.victim:
                slot = (message.view, message.sequence)
                if slot not in self._tampered_slots:
                    self._tampered_slots.add(slot)
                    self._previous_certificate, stale = (
                        message.certificate, self._previous_certificate)
                    self._stale_for_slot = (stale if len(self._tampered_slots) % 2
                                            else None)
                message = dataclasses.replace(message,
                                              certificate=self._stale_for_slot)
            out.append(Delivery(delivery.receiver, message, delivery.delay_ms))
        return out


def _forged_vc_batch(owner: str, sequence: int) -> RequestBatch:
    """A deterministic fabricated batch for a forged view-change history."""
    return RequestBatch(
        batch_id=f"byzvc:{owner}:{sequence}",
        transactions=(Transaction(txn_id=f"byzvc:{owner}:{sequence}:0",
                                  client_id=owner, operations=(),
                                  created_at_ms=0.0),),
        created_at_ms=0.0,
    )


class ForgedHistoryReplica(ByzantineBehavior):
    """A replica that forges view-change histories it never held.

    This is the corner "On the Correctness of Speculative Consensus"
    dissects for PoE-style speculation: a Byzantine *replica* (not the
    primary) answers a view change with a fabricated history — claiming a
    stable checkpoint of ``-1`` and a consecutive run of forged batches
    from slot 0 — below the durable anchor the honest requests prove.
    Before per-slot commit certificates and the certified-or-``f+1``
    support rule, reconciliation resolved sub-anchor slots by bare
    support plurality, so a single forged request could hand a *lagging*
    honest replica fabricated batches for slots the quorum had already
    settled differently: a divergent prefix the auditor flags.

    The behaviour is replica-level: :meth:`install` keeps a reference to
    the replica, so the forgery tracks its live view and checkpoint state,
    and — for Zyzzyva — fabricates the proof of misbehaviour that starts
    the view change in the first place (replicas accept a structurally
    conflicting POM from any sender; a forged one is the documented
    spurious-view-change liveness nuisance).

    With ``forge_certificates`` the forged entries additionally carry
    fabricated commit certificates naming real replicas: these pass the
    structural checks but collide with what up-to-date honest replicas
    know about the slots (at most one genuine certificate can exist per
    slot), so certificate-carrying admission rejects the whole request.
    """

    #: Longest fabricated run, in slots.
    DEPTH = 64

    def __init__(self, forge_certificates: bool = False,
                 pom_at_ms: float = 40.0) -> None:
        super().__init__()
        self.forge_certificates = forge_certificates
        self.pom_at_ms = pom_at_ms
        self.replica = None
        self._pom_sent = False

    def install(self, replica) -> None:
        self.replica = replica

    # ------------------------------------------------------------- forgeries
    def _forged_commit_certificate(self, sequence: int,
                                   batch: RequestBatch) -> ZyzzyvaCommitCertificate:
        responders = tuple(sorted(self.replica_ids)[: max(
            1, 2 * ((len(self.replica_ids) - 1) // 3) + 1)])
        return ZyzzyvaCommitCertificate(
            batch_id=batch.batch_id, view=0, sequence=sequence,
            result_digest=modelled_result_digest(sequence, batch),
            responders=responders, client_id=f"byz:{self.node_id}",
        )

    def _forge_request(self, message: ViewChangeRequest) -> ViewChangeRequest:
        """*message* with a fabricated run from slot 0 in place of its history.

        Each forged entry binds its batch to its slot the way the replica's
        protocol does (Zyzzyva's history chain, PBFT's PRE-PREPARE digest,
        PoE's proposal digest), so it passes the digest recomputation on
        admission and it is selection that has to outvote it.  An SBFT
        entry needs a threshold commit proof no lone replica can fabricate:
        SBFT requests go out as they are.
        """
        replica = self.replica
        if isinstance(replica, SbftReplica):
            return message
        top = min(self.DEPTH,
                  max(message.stable_checkpoint + len(message.executed), 0))
        entries = []
        history = digest("zyzzyva-history", "genesis")
        for sequence in range(top + 1):
            batch = _forged_vc_batch(self.node_id, sequence)
            view, proof = message.view, None
            if isinstance(replica, ZyzzyvaReplica):
                history = slot_digest = digest("zyzzyva-history", history,
                                               sequence, batch.digest())
                if self.forge_certificates:
                    proof = self._forged_commit_certificate(sequence, batch)
            elif isinstance(replica, PbftReplica):
                view, proof = 0, ()
                slot_digest = digest("pbft", 0, sequence, batch.digest())
            else:
                slot_digest = poe_proposal_digest(sequence, view, batch.digest())
            entries.append(LogEntry(sequence, view, slot_digest, batch, proof))
        return dataclasses.replace(
            message, stable_checkpoint=-1, checkpoint_digest=b"",
            certificate=None, executed=tuple(entries))

    def _fabricated_pom(self) -> Optional[ZyzzyvaProofOfMisbehaviour]:
        replica = self.replica
        if not isinstance(replica, ZyzzyvaReplica):
            return None  # only Zyzzyva replicas have a POM to forge
        if replica.checkpoints.stable_sequence < 0:
            # The forgery targets slots *below* the durable anchor; firing
            # the view change before any checkpoint stabilised would leave
            # nothing below the anchor to rewrite.
            return None
        view = replica.view
        return ZyzzyvaProofOfMisbehaviour(
            view=view,
            evidence=((view, 0, f"byzvc:{self.node_id}:a", b"\x01"),
                      (view, 0, f"byzvc:{self.node_id}:b", b"\x02")),
            client_id=f"byz:{self.node_id}",
        )

    # ------------------------------------------------------------- transform
    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out: List[Delivery] = []
        for delivery in deliveries:
            message = delivery.message
            if isinstance(message, ViewChangeRequest):
                message = self._forge_request(message)
            out.append(Delivery(delivery.receiver, message, delivery.delay_ms))
        if not self._pom_sent and now_ms >= self.pom_at_ms:
            pom = self._fabricated_pom()
            if pom is not None:
                self._pom_sent = True
                # Including itself makes the forger join the view change
                # it provoked immediately, so its forged request is on the
                # wire in the same window as the honest requests.
                for receiver in sorted(self.replica_ids):
                    out.append(Delivery(receiver, pom))
        return out


class LyingCheckpointer(ByzantineBehavior):
    """A replica that serves corrupted checkpoint/state-transfer state.

    Two attacks in one behaviour:

    * every :class:`StateTransferResponse` this replica serves is
      *poisoned* — garbage state digest and head hash, emptied snapshot —
      modelling a checkpointer that answers a lagging replica's transfer
      request with fabricated state;
    * alongside each of its own checkpoint broadcasts it pushes an
      **unsolicited** fabricated response to every peer, claiming a
      checkpoint ``LIE_AHEAD`` slots in the future: a receiver that
      installs unvalidated transfers fast-forwards onto a state the
      system never reached and silently skips the real slots in between
      (the auditor's ``unvouched-state-transfer`` check pins this down).

    With state-transfer responses validated against ``f + 1`` matching
    checkpoint votes, both poisons are rejected (or parked forever) and
    the victim re-requests from the honest membership.
    """

    LIE_AHEAD = 10

    def __init__(self) -> None:
        super().__init__()
        self._poisoned_sequences: Set[int] = set()

    def _poison(self, message: StateTransferResponse) -> StateTransferResponse:
        return dataclasses.replace(
            message,
            state_digest=digest("byz-checkpoint", self.node_id, message.sequence),
            head_hash=digest("byz-head", self.node_id, message.sequence),
            table_snapshot=None,
        )

    def _fabricated_response(self, sequence: int) -> StateTransferResponse:
        return StateTransferResponse(
            sequence=sequence, view=0,
            state_digest=digest("byz-checkpoint", self.node_id, sequence),
            head_hash=digest("byz-head", self.node_id, sequence),
            table_snapshot=None,
        )

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        out: List[Delivery] = []
        fabricated: List[Delivery] = []
        for delivery in deliveries:
            message = delivery.message
            if isinstance(message, StateTransferResponse):
                message = self._poison(message)
            elif isinstance(message, CheckpointMessage):
                claimed = message.sequence + self.LIE_AHEAD
                if claimed not in self._poisoned_sequences:
                    self._poisoned_sequences.add(claimed)
                    for receiver in sorted(r for r in self.replica_ids
                                           if r != self.node_id):
                        fabricated.append(Delivery(
                            receiver, self._fabricated_response(claimed)))
            out.append(Delivery(delivery.receiver, message, delivery.delay_ms))
        out.extend(fabricated)
        return out


class WrongExecutionReplica(ByzantineBehavior):
    """A replica that executes a divergent batch at one consensus slot.

    The replica's network behaviour stays honest; :meth:`install` wraps
    its ``commit_slot`` so that exactly one slot (``TARGET_SLOT``) commits
    a fabricated batch in place of the agreed one.  From then on its
    ledger, replies and checkpoint digests diverge while its *height*
    matches the quorum — the case the checkpoint layer historically could
    not repair, because state transfer only triggered for replicas that
    were behind.  With same-height divergence detection the replica spots
    the stable checkpoint contradicting its own journaled digest, excises
    the divergent suffix and resyncs onto the quorum state.
    """

    TARGET_SLOT = 2

    def __init__(self) -> None:
        super().__init__()
        self.forged_executions = 0

    def install(self, replica) -> None:
        behavior = self
        original = replica.commit_slot

        def wrong_commit_slot(sequence, view, batch, proof=None, now_ms=0.0,
                              speculative=False):
            if (sequence == behavior.TARGET_SLOT and batch is not None
                    and behavior.forged_executions == 0
                    and sequence > replica.last_executed_sequence):
                behavior.forged_executions += 1
                transactions = tuple(
                    Transaction(txn_id=f"byzexec:{behavior.node_id}:{i}",
                                client_id=behavior.node_id, operations=(),
                                created_at_ms=batch.created_at_ms)
                    for i in range(len(batch.transactions))
                )
                batch = RequestBatch(
                    batch_id=f"byzexec:{behavior.node_id}:{sequence}",
                    transactions=transactions,
                    created_at_ms=batch.created_at_ms,
                    reply_to=batch.reply_to,
                    logical_size=batch.logical_size,
                )
            return original(sequence=sequence, view=view, batch=batch,
                            proof=proof, now_ms=now_ms, speculative=speculative)

        replica.commit_slot = wrong_commit_slot


class EquivocatingCoordinator(ByzantineBehavior):
    """A cross-shard 2PC coordinator equivocating commit/abort per shard.

    Runs the honest coordinator state machine, but at the network boundary
    rewrites the COMMIT decide record addressed to the highest touched
    shard of every cross-shard transaction into an (uncertified) ABORT —
    the textbook split-decision attack: sibling shards are told to commit
    while one shard is told to abort.  The forged abort carries no
    certificate (the coordinator only ever gathered *prepared*
    attestations, which justify commit, not abort), so shard replicas that
    validate decide certificates reject it and the client pool's recovery
    path re-drives the transaction to the decision the certificates
    actually support.  Remove the validation and the forgery lands —
    which is exactly what the auditor's cross-shard atomicity check exists
    to flag (see the revert demo in ``tests/test_sharding.py``).
    """

    def __init__(self) -> None:
        super().__init__()
        self.forged_aborts = 0

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        from repro.protocols.client_messages import ClientRequestMessage
        from repro.workload.xshard import ABORT, COMMIT, make_control_batch

        out: List[Delivery] = []
        for delivery in deliveries:
            message = delivery.message
            if isinstance(message, ClientRequestMessage):
                batch = message.batch
                if (batch is not None and batch.control_phase == COMMIT
                        and len(batch.shards) > 1
                        and batch.shard == max(batch.shards)):
                    self.forged_aborts += 1
                    forged = make_control_batch(
                        txn=batch.txn, phase=ABORT, shard=batch.shard,
                        shards=batch.shards, cert=(),
                        reply_to=batch.reply_to,
                        created_at_ms=batch.created_at_ms,
                        logical_size=batch.logical_size,
                    )
                    out.append(Delivery(
                        delivery.receiver,
                        dataclasses.replace(message, batch=forged),
                        delivery.delay_ms,
                    ))
                    continue
            out.append(delivery)
        return out


class StallingCoordinator(ByzantineBehavior):
    """A 2PC coordinator that prepares every shard, then goes silent.

    Prepare records go out honestly — every touched shard locks the
    transaction — but all decide records are dropped at the network
    boundary, leaving the transaction prepared-everywhere with no
    decision.  Liveness then rests entirely on the client pool's
    presumed-abort recovery: probe the shards, observe
    prepared-everywhere, and drive the commit itself with the probe
    replies as the certificate.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stalled_decides = 0

    def transform(self, deliveries: List[Delivery], now_ms: float) -> List[Delivery]:
        from repro.protocols.client_messages import ClientRequestMessage
        from repro.workload.xshard import DECIDE_PHASES

        out: List[Delivery] = []
        for delivery in deliveries:
            message = delivery.message
            if isinstance(message, ClientRequestMessage):
                batch = message.batch
                if batch is not None and batch.control_phase in DECIDE_PHASES:
                    self.stalled_decides += 1
                    continue
            out.append(delivery)
        return out


#: Registry used by the declarative :class:`ByzantineSpec` in cluster
#: configurations (string keys keep configs picklable and seed-stable).
BEHAVIORS: Dict[str, Callable[..., ByzantineBehavior]] = {
    "equivocate": lambda **kw: EquivocatingPrimary(spoof_votes=False, **kw),
    "equivocate-spoof": lambda **kw: EquivocatingPrimary(spoof_votes=True, **kw),
    "delay": MessageDelayer,
    "replay": MessageReplayer,
    "stale-certify": StaleCertifier,
    "forge-history": ForgedHistoryReplica,
    "lying-checkpoint": LyingCheckpointer,
    "wrong-exec": WrongExecutionReplica,
    # The adaptive tier: behaviours reacting to live protocol state.
    "adaptive-primary": PrimaryTargeter,
    "checkpoint-equivocate": CheckpointEquivocator,
    "timeout-stall": TimeoutStaller,
    # The colluding tier: up to f conspirators coordinating via a playbook.
    "colluding-equivocate": ColludingEquivocator,
    "colluding-parker": ColludingVoteParker,
    "colluding-reconfig-abuse": ColludingReconfigAbuser,
    # Cross-shard 2PC coordinator behaviours (sharded clusters only).
    "equivocate-coordinator": EquivocatingCoordinator,
    "stall-coordinator": StallingCoordinator,
}


def make_behavior(name: str, **options) -> ByzantineBehavior:
    """Instantiate a registered behaviour by name."""
    try:
        factory = BEHAVIORS[name]
    except KeyError:
        raise KeyError(f"unknown byzantine behavior {name!r}; "
                       f"known: {sorted(BEHAVIORS)}") from None
    return factory(**options)


@dataclass
class ByzantineSpec:
    """Declarative description of one Byzantine replica in a cluster.

    Attributes:
        behavior: key into :data:`BEHAVIORS`.
        replica_index: index of the misbehaving replica (0 = the primary
            of view 0).
        options: keyword arguments forwarded to the behaviour factory.
    """

    behavior: str = "equivocate-spoof"
    replica_index: int = 0
    options: Dict[str, object] = field(default_factory=dict)

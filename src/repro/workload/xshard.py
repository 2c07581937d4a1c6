"""Cross-shard transaction primitives: control batches, certificates, 2PC state.

Multi-group deployments partition the keyspace across independent
consensus groups (:func:`repro.workload.transactions.shard_of_key`).  A
transaction touching one shard rides the normal request path; one touching
several commits atomically through two-phase commit *over consensus*:

* **prepare** — the coordinator asks every touched shard to
  consensus-commit a lock/intent record.  Executing it transitions the
  transaction to ``prepared`` on that shard (or reports ``refused`` if a
  presumed-abort probe got there first).
* **decide** — once every shard is prepared the coordinator
  consensus-commits a ``commit`` record per shard (or an ``abort`` record
  if any shard refused).  The decide record carries a **certificate**:
  per touched shard, f+1 distinct replica attestations of the state that
  justifies the decision.  Replicas validate the certificate before
  applying the decision (:func:`decide_record_valid`) — this is the check
  that stops a Byzantine coordinator from committing a transaction on one
  shard while aborting it on a sibling.
* **probe** (presumed abort) — a participant that times out waiting for a
  decision asks each touched shard for the transaction's status; an
  unprepared shard marks it ``refused``, which permanently blocks a late
  prepare, so the prober can always drive the transaction to a terminal
  state with a valid certificate.

Everything here is pure data + deterministic state transitions — no
network, no simulator — so the same code serves the coordinator, the
recovering client pool, the per-replica :class:`ShardTxnManager` and the
safety auditor's independent re-validation.  The round itself — reply
counting, the commit/abort rule, certificate assembly, control-request
construction and routing — is :class:`TwoPhaseDriver`, which both the
coordinator and the client pool mix in: whoever currently owns a
transaction runs the same code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.hashing import shared_digest
from repro.protocols.base import Message
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.protocols.quorum import VoteSet
from repro.workload.transactions import (
    RequestBatch,
    Transaction,
    make_synthetic_batch,
)

# -- control batches -------------------------------------------------------------

#: 2PC phases carried by control batches.
PREPARE = "prepare"
PROBE = "probe"
COMMIT = "commit"
ABORT = "abort"

DECIDE_PHASES = (COMMIT, ABORT)

#: Outcomes a replica can report for executing a control record.  The
#: reply encodes the outcome in its result digest, so clients decode it by
#: candidate matching and quorums only form over *identical* outcomes.
OUTCOMES = ("prepared", "refused", "committed", "aborted", "rejected")

#: One certificate claim: (shard, outcome, attesting replica ids).  Plain
#: tuples keep control batches hashable and cheaply comparable.
ShardClaim = Tuple[int, str, Tuple[str, ...]]

#: What one shard attested in a round: (outcome, attesting replica ids).
ShardVote = Tuple[str, Tuple[str, ...]]


@dataclass(frozen=True)
class ControlBatch(RequestBatch):
    """A 2PC control record ordered through a shard's consensus.

    Rides the ordinary client-request path (it *is* a request batch), but
    carries no directly-executable transactions: ``transactions`` stays
    empty so the executor never applies anything before the per-replica
    :class:`ShardTxnManager` has validated the record.  Commit records
    carry the shard's slice of the transaction in ``payload_txns``; the
    manager applies it only after certificate validation.

    ``logical_size`` defaults to 1 so throughput accounting counts the
    control record as one unit of work.
    """

    control_phase: str = ""
    txn: str = ""
    shard: int = -1
    shards: Tuple[int, ...] = ()
    cert: Tuple[ShardClaim, ...] = ()
    payload_txns: Tuple[Transaction, ...] = ()


def control_batch_id(txn: str, phase: str, shard: int) -> str:
    """Canonical id of the control record for (txn, phase, shard).

    Canonical ids are what make recovery idempotent: a recovering client
    pool re-issuing the coordinator's commit record produces the *same*
    batch id, so shard replicas deduplicate it and resend the cached
    reply instead of double-deciding.
    """
    return f"{txn}|{phase}|s{shard}"


def make_control_batch(txn: str, phase: str, shard: int,
                       shards: Sequence[int],
                       cert: Sequence[ShardClaim] = (),
                       payload_txns: Sequence[Transaction] = (),
                       reply_to: str = "",
                       created_at_ms: float = 0.0,
                       logical_size: int = 1) -> ControlBatch:
    return ControlBatch(
        batch_id=control_batch_id(txn, phase, shard),
        transactions=(),
        created_at_ms=created_at_ms,
        reply_to=reply_to,
        logical_size=logical_size,
        control_phase=phase,
        txn=txn,
        shard=shard,
        shards=tuple(shards),
        cert=tuple(cert),
        payload_txns=tuple(payload_txns),
    )


def control_result_digest(txn: str, phase: str, shard: int, outcome: str) -> bytes:
    """Result digest replicas report for a control record execution.

    Deterministic in (txn, phase, shard, outcome) alone, so every honest
    replica of a shard produces the same digest for the same decision and
    clients can decode the outcome by matching against the candidates.
    """
    return shared_digest("xshard", txn, phase, shard, outcome)


def decode_outcome(result_digest: bytes, txn: str, phase: str,
                   shard: int) -> Optional[str]:
    """Which outcome *result_digest* encodes, or ``None`` if none match."""
    for outcome in OUTCOMES:
        if control_result_digest(txn, phase, shard, outcome) == result_digest:
            return outcome
    return None


def parse_control_batch_id(batch_id: str) -> Optional[Tuple[str, str, int]]:
    """Invert :func:`control_batch_id`; ``None`` for ordinary batch ids."""
    if "|" not in batch_id:
        return None
    txn, _, rest = batch_id.rpartition("|s")
    if not rest.isdigit():
        return None
    txn, _, phase = txn.rpartition("|")
    if phase not in (PREPARE, PROBE, COMMIT, ABORT):
        return None
    return txn, phase, int(rest)


# -- shard layout ----------------------------------------------------------------

@dataclass(frozen=True)
class ShardLayout:
    """Static membership and quorum rules of a sharded deployment.

    Attributes:
        members: per-shard ordered replica ids.
        reply_quorums: per-shard number of matching replies that complete
            a request for a client (the shard protocol's client quorum).
        broadcast_requests: per-shard flag for rotating-leader protocols
            whose clients must broadcast requests rather than target the
            primary (HotStuff).
    """

    members: Tuple[Tuple[str, ...], ...]
    reply_quorums: Tuple[int, ...]
    broadcast_requests: Tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_member_sets",
                           tuple(frozenset(ids) for ids in self.members))
        object.__setattr__(self, "_index_maps", tuple(
            {rid: index for index, rid in enumerate(ids)}
            for ids in self.members))

    @property
    def num_shards(self) -> int:
        return len(self.members)

    def replicas(self, shard: int) -> Tuple[str, ...]:
        return self.members[shard]

    def f(self, shard: int) -> int:
        return (len(self.members[shard]) - 1) // 3

    def reply_quorum(self, shard: int) -> int:
        return self.reply_quorums[shard]

    def cert_quorum(self, shard: int) -> int:
        """Attestations needed for a certificate claim: f+1 (one honest)."""
        return self.f(shard) + 1

    def index_map(self, shard: int) -> Dict[str, int]:
        return self._index_maps[shard]

    def primary(self, shard: int, view: int) -> str:
        ids = self.members[shard]
        return ids[view % len(ids)]

    def wants_broadcast(self, shard: int) -> bool:
        if not self.broadcast_requests:
            return False
        return self.broadcast_requests[shard]

    def claim_quorate(self, claim: ShardClaim) -> bool:
        """Does *claim* carry f+1 distinct attestations by shard members?"""
        shard, _, voters = claim
        if not 0 <= shard < self.num_shards:
            return False
        members = self._member_sets[shard]
        distinct = {voter for voter in voters if voter in members}
        return len(distinct) >= self.cert_quorum(shard)


def decide_record_valid(batch: ControlBatch, layout: ShardLayout) -> bool:
    """Validate a decide record's certificate against the shard layout.

    This is the coordinator-equivocation fix: a commit record must carry,
    for **every** touched shard, f+1 distinct attestations that the shard
    prepared (or already committed) the transaction; an abort record must
    carry f+1 attestations that **some** touched shard refused (or already
    aborted) it.  A coordinator that merely *claims* a different decision
    to different shards cannot fabricate either certificate — it would
    need f+1 replicas of a shard to attest a state the shard never
    reached.  The safety auditor re-runs this exact check over every
    decide certificate the replicas accepted.
    """
    if batch.control_phase == COMMIT:
        needed = set(batch.shards)
        for claim in batch.cert:
            shard, outcome, _ = claim
            if outcome in ("prepared", "committed") and layout.claim_quorate(claim):
                needed.discard(shard)
        return not needed
    if batch.control_phase == ABORT:
        for claim in batch.cert:
            shard, outcome, _ = claim
            if (shard in batch.shards and outcome in ("refused", "aborted")
                    and layout.claim_quorate(claim)):
                return True
        return False
    return False


# -- per-replica 2PC state machine ------------------------------------------------

class ShardTxnManager:
    """Per-replica cross-shard transaction state, driven by consensus order.

    Installed on every replica of a sharded cluster (``replica.control_layer``).
    :meth:`execute_control` runs in place of normal batch execution when a
    committed slot carries a :class:`ControlBatch`: it applies the 2PC
    state transition the record asks for, appends the slot to the ledger
    through the ordinary executor (so chain integrity, checkpoints and
    rollback keep working), and stamps the reply digest with the outcome.

    Transitions are deterministic functions of (consensus order, record
    contents, prior status), so all honest replicas of a shard agree on
    every transaction's status — that per-shard agreement is what makes
    the certificates in decide records meaningful.
    """

    def __init__(self, shard: int, layout: ShardLayout) -> None:
        self.shard = shard
        self.layout = layout
        #: txn -> "prepared" | "refused" | "committed" | "aborted"
        self.status: Dict[str, str] = {}
        #: txn -> (phase, touched shards, certificate) for every decide
        #: record this replica accepted — the journal the safety auditor
        #: re-validates.
        self.accepted_decides: Dict[
            str, Tuple[str, Tuple[int, ...], Tuple[ShardClaim, ...]]] = {}
        #: Decide records whose certificate failed validation (audit trail;
        #: non-empty under a Byzantine coordinator).
        self.rejected_decides: List[str] = []

    def execute_control(self, replica, slot, now_ms: float):
        """Execute the control record in *slot*; returns the ExecutedBatch."""
        batch: ControlBatch = slot.batch
        phase = batch.control_phase
        txn = batch.txn
        status = self.status.get(txn)
        apply_payload = False
        if phase == PREPARE:
            if status in ("refused", "aborted"):
                outcome = "refused"
            elif status == "committed":
                outcome = "committed"
            else:
                if status is None:
                    self.status[txn] = "prepared"
                outcome = "prepared"
        elif phase == PROBE:
            if status is None:
                # Presumed abort: an unprepared transaction that is being
                # probed must never prepare later, or the prober's abort
                # could race a fresh prepare-then-commit.
                self.status[txn] = "refused"
                outcome = "refused"
            else:
                outcome = status
        elif phase in DECIDE_PHASES:
            target = "committed" if phase == COMMIT else "aborted"
            if status in ("committed", "aborted"):
                # Terminal already: the record that got us here applied any
                # payload, so a duplicate decide only re-reports the outcome.
                outcome = status
            elif decide_record_valid(batch, self.layout):
                self.status[txn] = target
                self.accepted_decides[txn] = (phase, batch.shards, batch.cert)
                outcome = target
                apply_payload = phase == COMMIT
            else:
                self.rejected_decides.append(batch.batch_id)
                outcome = "rejected"
        else:
            outcome = "rejected"
        record = replica.executor.execute(
            sequence=slot.sequence, view=slot.view, batch=batch, proof=slot.proof,
        )
        if (apply_payload and batch.payload_txns
                and replica.config.execute_operations):
            # The committed transaction's writes for this shard: applied
            # only now — after certificate validation — and journaled into
            # the slot's undo log so view-change rollbacks revert them.
            replica.executor.apply_payload(record, batch.payload_txns)
        record.result_digest = control_result_digest(
            txn, phase, batch.shard, outcome)
        return record


# -- sharded workload plans -------------------------------------------------------

@dataclass(frozen=True)
class SingleShardBatch:
    """A request batch routed wholesale to one shard."""

    shard: int
    batch: RequestBatch


@dataclass(frozen=True)
class CrossShardPlan:
    """One cross-shard transaction, ready for 2PC.

    Attributes:
        txn: globally unique transaction id.
        shards: sorted touched shards (at least two).
        slices: per-shard transaction slices (empty for cost-modelled
            workloads; each slice's keys all route to its shard).
        logical_size: transactions this plan represents for throughput
            accounting.
    """

    txn: str
    shards: Tuple[int, ...]
    slices: Tuple[Tuple[int, Tuple[Transaction, ...]], ...] = ()
    logical_size: int = 1

    def slice_for(self, shard: int) -> Tuple[Transaction, ...]:
        for owner, txns in self.slices:
            if owner == shard:
                return txns
        return ()


@dataclass(slots=True)
class CoordSubmit(Message):
    """Client pool -> coordinator: run 2PC for this cross-shard plan."""

    plan: Optional[CrossShardPlan] = None
    reply_to: str = ""


@dataclass(slots=True)
class CoordAck(Message):
    """Client pool -> coordinator: *txn* is decided everywhere; stop retrying."""

    txn: str = ""


# -- the 2PC round ----------------------------------------------------------------

def decide_round(shards: Sequence[int], phase_results: Dict[int, ShardVote],
                 decided_claims: Dict[int, ShardVote],
                 ) -> Tuple[str, Tuple[ShardClaim, ...]]:
    """The one commit/abort rule, with the certificate that justifies it.

    Any *committed* shard forces commit (a valid commit certificate once
    existed, so every shard prepared); otherwise any refusal or abort
    forces abort (presumed abort); otherwise every shard stands prepared
    and the transaction commits.  A shard that already reached a terminal
    decide quorum attests through its decide voters (*decided_claims*);
    the others through this round's votes (*phase_results*).
    """
    outcomes = [phase_results[shard][0] for shard in shards if shard in phase_results]
    outcomes.extend(vote[0] for vote in decided_claims.values())
    if any(o == "committed" for o in outcomes):
        decision = COMMIT
    elif any(o in ("refused", "aborted") for o in outcomes):
        decision = ABORT
    else:
        decision = COMMIT
    claims = []
    for shard in shards:
        vote = phase_results.get(shard) or decided_claims.get(shard)
        if vote is not None:
            claims.append((shard,) + vote)
    return decision, tuple(claims)


@dataclass(slots=True)
class TwoPhaseRound:
    """One cross-shard transaction as its current driver sees it.

    ``mode`` is the phase whose votes are being collected (``PREPARE`` or
    ``PROBE``), or ``"decide"`` once a certified decision is being written
    to every shard; a driver may add modes of its own.
    """

    plan: CrossShardPlan
    submitted_at_ms: float
    mode: str = PREPARE
    votes: Dict[Tuple, VoteSet] = field(default_factory=dict)
    phase_results: Dict[int, ShardVote] = field(default_factory=dict)
    #: shard -> vote for shards that reached a terminal decide quorum;
    #: recovery certificates for the remaining shards are built from these
    #: claims plus fresh probe results.
    decided_claims: Dict[int, ShardVote] = field(default_factory=dict)
    decision: str = ""
    cert: Tuple[ShardClaim, ...] = ()
    retransmissions: int = 0

    @property
    def phase(self) -> str:
        """The phase whose control records are out: the vote being
        collected, or the decision once there is one."""
        return self.decision if self.mode == "decide" else self.mode


class TwoPhaseDriver:
    """The 2PC round, mixed into whichever client node drives a transaction.

    The coordinator and the client pool (its fallback once it suspects the
    coordinator) are both ordinary clients of every shard; this mixin is
    everything they do identically.  It goes in front of a
    :class:`~repro.protocols.base.ClientNode` base and uses its ``send``,
    ``config`` and ``node_id``.
    """

    def __init__(self, node_id: str, config, layout: ShardLayout, **kwargs) -> None:
        super().__init__(node_id, config, **kwargs)
        self.layout = layout
        self._views = [0] * layout.num_shards

    def route(self, shard: int, message: ClientRequestMessage,
              retransmission: bool) -> None:
        """Send to the shard primary, or every shard member on retransmit.

        Retransmission broadcasts are what let shard backups notice a dead
        primary and drive a view change — same mechanism as the
        single-group client pool, scoped to the shard's members.
        """
        if retransmission or self.layout.wants_broadcast(shard):
            for rid in self.layout.replicas(shard):
                self.send(rid, message)
        else:
            self.send(self.layout.primary(shard, self._views[shard]), message)

    def count_reply(self, tally: Dict[Tuple, VoteSet], sender: str,
                    message: ClientReplyMessage, shard: int) -> Optional[VoteSet]:
        """Count *sender*'s reply; the voter set once it is a reply quorum.

        Reply identity is the transport-level sender, and quorums only form
        over identical replies (same view, sequence and result digest).
        """
        key = message.matching_key()
        voters = tally.get(key)
        if voters is None:
            voters = tally[key] = VoteSet(self.layout.index_map(shard))
        voters.add(sender)
        if message.view > self._views[shard]:
            self._views[shard] = message.view
        if voters.count < self.layout.reply_quorum(shard):
            return None
        return voters

    def count_control_reply(self, round: TwoPhaseRound, sender: str,
                            message: ClientReplyMessage, phase: str,
                            shard: int) -> Optional[Tuple[str, VoteSet]]:
        """Count a control-record reply; (outcome, voters) at a quorum."""
        voters = self.count_reply(round.votes, sender, message, shard)
        if voters is None:
            return None
        outcome = decode_outcome(message.result_digest, round.plan.txn, phase, shard)
        if outcome is None:
            return None
        return outcome, voters

    def record_vote(self, round: TwoPhaseRound, shard: int, outcome: str,
                    voters: VoteSet) -> bool:
        """Record *shard*'s quorum-backed vote for the running phase.

        Returns ``True`` when that was the last shard outstanding: the
        round then holds its decision and certificate (``mode`` is
        ``"decide"``) and the caller writes the decide records.
        """
        if shard in round.phase_results:
            return False
        round.phase_results[shard] = (outcome, tuple(sorted(voters)))
        shards = round.plan.shards
        if not all(s in round.phase_results or s in round.decided_claims
                   for s in shards):
            return False
        round.decision, round.cert = decide_round(
            shards, round.phase_results, round.decided_claims)
        round.mode = "decide"
        return True

    def send_phase(self, round: TwoPhaseRound, now_ms: float,
                   reply_to: str, retransmission: bool) -> None:
        """Send the round's current phase to every shard still owing an answer.

        A vote phase (PREPARE, PROBE) skips shards that already voted in
        this round or are terminally decided; a decide phase carries the
        round's certificate (and, for COMMIT, the shard's slice of the
        transaction) and skips only the decided shards.  Replicas answer
        *reply_to*.
        """
        plan = round.plan
        phase = round.phase
        decide = phase in DECIDE_PHASES
        for shard in plan.shards:
            if shard in round.decided_claims or (
                    not decide and shard in round.phase_results):
                continue
            batch = make_control_batch(
                plan.txn, phase, shard, plan.shards,
                cert=round.cert if decide else (),
                payload_txns=plan.slice_for(shard) if phase == COMMIT else (),
                reply_to=reply_to, created_at_ms=now_ms)
            self.route(shard, ClientRequestMessage(
                batch=batch,
                reply_to=reply_to,
                retransmission=retransmission,
                size_bytes=self.config.proposal_size_bytes(1),
            ), retransmission)


#: Factory signature: (request_index, now_ms) -> SingleShardBatch | CrossShardPlan.
ShardedBatchSource = Callable[[int, float], Union[SingleShardBatch, CrossShardPlan]]


def synthetic_sharded_source(pool_id: str, num_shards: int, batch_size: int,
                             cross_shard_fraction: float,
                             seed: int = 1) -> ShardedBatchSource:
    """Cost-modelled sharded workload with a tunable cross-shard ratio.

    Single-shard requests are synthetic batches (no transaction objects)
    round-robined by a seeded RNG; a ``cross_shard_fraction`` draw instead
    emits a two-shard plan.  Deterministic in (pool_id, seed, index).
    """
    rng = random.Random(f"sharded:{pool_id}:{seed}")

    def factory(index: int, now_ms: float) -> Union[SingleShardBatch, CrossShardPlan]:
        if num_shards > 1 and rng.random() < cross_shard_fraction:
            first = rng.randrange(num_shards)
            second = rng.randrange(num_shards - 1)
            if second >= first:
                second += 1
            shards = tuple(sorted((first, second)))
            return CrossShardPlan(
                txn=f"{pool_id}:x:{index}", shards=shards,
                logical_size=batch_size,
            )
        shard = rng.randrange(num_shards)
        batch = make_synthetic_batch(
            batch_id=f"{pool_id}:batch:{index}", client_id=pool_id,
            size=batch_size, created_at_ms=now_ms,
        )
        return SingleShardBatch(shard=shard, batch=batch)

    return factory


def ycsb_sharded_source(workload, num_shards: int, batch_size: int,
                        cross_shard_fraction: float,
                        seed: int = 1) -> ShardedBatchSource:
    """Real-payload sharded workload over a :class:`~repro.workload.ycsb.YcsbWorkload`.

    Single-shard requests are YCSB batches whose every key routes to one
    shard; cross-shard plans carry per-shard transaction slices generated
    by :meth:`~repro.workload.ycsb.YcsbWorkload.next_cross_shard_operations`.
    """
    pool_id = workload.client_id
    rng = random.Random(f"sharded:{pool_id}:{seed}")

    def factory(index: int, now_ms: float) -> Union[SingleShardBatch, CrossShardPlan]:
        if num_shards > 1 and rng.random() < cross_shard_fraction:
            first = rng.randrange(num_shards)
            second = rng.randrange(num_shards - 1)
            if second >= first:
                second += 1
            shards = tuple(sorted((first, second)))
            slices = workload.next_cross_shard_operations(
                list(shards), num_shards, created_at_ms=now_ms)
            return CrossShardPlan(
                txn=f"{pool_id}:x:{index}", shards=shards,
                slices=tuple((shard, (slices[shard],)) for shard in shards),
                logical_size=len(shards),
            )
        shard = rng.randrange(num_shards)
        batch = workload.next_batch_for_shard(
            shard, num_shards, batch_size, created_at_ms=now_ms)
        return SingleShardBatch(shard=shard, batch=batch)

    return factory

"""Periodic checkpointing shared by PoE, PBFT and SBFT.

The paper relies on a "standard periodic checkpoint protocol" to bound the
size of view-change messages and to bring replicas that were kept in the
dark up to date (Section II-D).  Every ``checkpoint_interval`` executed
slots a replica broadcasts a digest of its state; once it has ``2f + 1``
matching digests for a sequence number the checkpoint is *stable*: undo
logs below it can be pruned and view-change messages only need to describe
what happened after it.

Two records, one key each.  Per ``(sequence, digest)``, one vote tally in
:class:`CheckpointTracker`, which answers both rules asked of it — stable
at ``2f + 1`` voters, vouched at ``f + 1`` voters other than the replica
itself — and which the tracker deletes once its sequence is stable.  Per
boundary sequence, one :class:`BoundaryState`, written and pruned by
``BatchingReplica._journal_boundary_state``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.protocols.base import Message
from repro.protocols.quorum import VoteSet


def prune_to_last(journal: Dict[int, object], keep: int) -> None:
    """Drop the oldest entries of a sequence-keyed journal beyond *keep*.

    The checkpoint machinery keeps several bounded journals (stable
    digests, boundary states, verified transfer digests); this is the one
    retention policy they all share.
    """
    if len(journal) > keep:
        for stale in sorted(journal)[: len(journal) - keep]:
            del journal[stale]


@dataclass(slots=True)
class CheckpointMessage(Message):
    """A replica vouching for its state after executing *sequence*."""

    sequence: int = 0
    state_digest: bytes = b""
    replica_id: str = ""


@dataclass
class StateTransferRequest(Message):
    """A lagging replica asking an up-to-date peer for checkpointed state."""

    sequence: int = 0
    replica_id: str = ""


@dataclass
class StateTransferResponse(Message):
    """Checkpointed state shipped to a lagging replica.

    The table snapshot is only populated when replicas really apply
    transactions; cost-modelled deployments transfer the digest alone.
    ``head_hash`` is the source chain's block hash at *sequence*: it is
    committed to by ``state_digest`` (which the receiver validates against
    checkpoint votes), and adopting it keeps the receiver on the canonical
    hash chain after the sync.

    ``executed_batch_ids`` carries the sender's (batch id, sequence)
    execution records within the transferred prefix.  A receiver that
    jumps over slots it never executed cannot otherwise know which batch
    ids those slots consumed — and a new primary that fills its log gap
    by state transfer would re-propose (and re-execute) exactly those
    batches when clients retransmit them.  The list is advisory dedup
    information, not quorum-vouched state: it is merged only after the
    response's digest validates, entries beyond the vouched prefix are
    ignored, and the worst a lying sender achieves is making its one
    receiver decline to re-propose a batch — which client retransmission
    and primary rotation already recover from.
    """

    sequence: int = 0
    view: int = 0
    state_digest: bytes = b""
    table_snapshot: Optional[dict] = None
    head_hash: bytes = b""
    executed_batch_ids: Tuple[Tuple[str, int], ...] = ()
    #: Wire form of the sender's epoch log (``EpochEntry.as_wire`` tuples)
    #: up to the transferred sequence.  A joiner bootstrapping into a
    #: reconfigured deployment adopts the committed epochs it skipped over
    #: from here — validated against the shared registered schedule, so a
    #: lying sender cannot smuggle an epoch consensus never committed.
    epoch_log: Tuple[Tuple, ...] = ()


@dataclass(slots=True)
class BoundaryState:
    """A replica's own state at a boundary it executed through or installed.

    Its digest is held against the quorum's stable one (a mismatch means
    *this* replica executed a wrong batch), and all three fields are what
    a state transfer ships: the state *at* the shipped sequence, not the
    live one.  ``snapshot`` is set only when operations are really applied.
    """

    state_digest: bytes
    head_hash: bytes
    snapshot: Optional[dict] = None


class CheckpointTracker:
    """Collects checkpoint votes and reports stable checkpoints.

    Votes are aggregated in first-seen bitsets keyed by replica index
    (:class:`~repro.protocols.quorum.VoteSet`) when an *index_map* is
    supplied; voters outside the map still count through the overflow
    path, preserving plain-set semantics.
    """

    #: Stable digests retained for state-transfer validation; older entries
    #: are pruned so the journal stays bounded by recent history, not the
    #: length of the run.
    STABLE_DIGEST_HISTORY = 32

    def __init__(self, quorum: int,
                 index_map: Optional[Mapping[str, int]] = None) -> None:
        self.quorum = quorum
        #: Optional per-sequence quorum override for reconfigured
        #: deployments: called with the sequence number and returns the
        #: ``2 f + 1`` of the epoch that sequence belongs to, so a vote
        #: for an old-epoch boundary is still held to the old epoch's
        #: quorum after the membership resizes.  ``None`` (the fixed-
        #: membership default) keeps the single attribute read.
        self.quorum_fn = None
        self.stable_sequence = -1
        self._index_map = index_map
        self._votes: Dict[Tuple[int, bytes], VoteSet] = {}
        #: Sequence -> state digest for checkpoints that reached stability.
        #: A stable digest is quorum-vouched ground truth: state-transfer
        #: responses and a replica's own state are validated against it.
        self.stable_digests: Dict[int, bytes] = {}

    def discard_voter(self, replica_id: str) -> None:
        """Purge an evicted replica's votes from uncertified quorums."""
        for voters in self._votes.values():
            voters.discard(replica_id)

    def record_vote(self, sequence: int, state_digest: bytes,
                    replica_id: str) -> Optional[VoteSet]:
        """Record one vote and return the tally it joined (``None`` for a
        vote at or below the stable checkpoint, which is ignored).  The vote
        made *sequence* stable iff ``stable_sequence`` equals it afterwards.
        """
        if sequence <= self.stable_sequence:
            return None
        key = (sequence, state_digest)
        voters = self._votes.get(key)
        if voters is None:
            voters = self._votes[key] = VoteSet(self._index_map)
        voters.add(replica_id)
        quorum_fn = self.quorum_fn
        quorum = self.quorum if quorum_fn is None else quorum_fn(sequence)
        if voters.count >= quorum:
            self.stable_sequence = sequence
            self.stable_digests[sequence] = state_digest
            self._garbage_collect()
        return voters

    def _garbage_collect(self) -> None:
        for key in [k for k in self._votes if k[0] <= self.stable_sequence]:
            del self._votes[key]
        prune_to_last(self.stable_digests, self.STABLE_DIGEST_HISTORY)

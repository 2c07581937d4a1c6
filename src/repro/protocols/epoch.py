"""Consensus-committed membership reconfiguration (epochs).

A deployment starts in epoch 0 with the membership listed in its
:class:`~repro.protocols.base.NodeConfig`.  A :class:`ReconfigRecord` —
add never-before-seen replicas, remove replicas, and thereby resize ``n``
and ``f`` — is ordered through the normal batch path like any other
consensus slot, so every honest replica agrees on *where* in the sequence
the membership changes.  The record does not take effect at its commit
sequence: it activates at the next checkpoint boundary at or after it
(:func:`activation_boundary`), so the epoch switch coincides with a
stable-state anchor and every honest replica flips quorum arithmetic at
the same sequence number.

Safety hinges on two rules this module owns:

* **Admissibility** (:func:`reconfig_record_valid`): a record must chain
  directly onto the latest known epoch, keep ``n >= 4``, and keep enough
  continuity — at least ``2 f_old + 1`` members of the old epoch survive
  into the new one — that the surviving honest replicas of the old epoch
  can always certify the hand-off.  A Byzantine proposer *can* get an
  unsafe record ordered; every honest replica refuses it at execution
  (it commits as a no-op and is journaled), and the auditor re-validates
  every activated epoch from genesis, so a replica that activated an
  inadmissible epoch is flagged.
* **Quorum at the time** (:func:`epoch_transition_valid` plus the
  auditor's checkpoint-vote re-validation): votes for a sequence number
  are only countable against the membership of the epoch that sequence
  belongs to — an evicted replica's vote must never certify a commit
  after its removal epoch activates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.workload.transactions import RequestBatch

#: ``RequestBatch.control_phase`` marker for reconfiguration records.
RECONFIG_PHASE = "reconfig"

#: Smallest membership any epoch may shrink to (n >= 3f + 1 with f >= 1).
MIN_MEMBERSHIP = 4


@dataclass(frozen=True)
class ReconfigRecord(RequestBatch):
    """A membership change ordered through the normal batch path.

    Carries no transactions — the payload *is* the membership delta.  The
    ``batch_id`` commits to the full content (epoch number, adds and
    removes, in order), so an equivocating primary proposing two
    different deltas under one id is visible as a digest mismatch like
    any other equivocation.
    """

    new_epoch: int = 0
    add: Tuple[str, ...] = ()
    remove: Tuple[str, ...] = ()

    control_phase = RECONFIG_PHASE


def make_reconfig_record(new_epoch: int, add: Sequence[str] = (),
                         remove: Sequence[str] = (),
                         created_at_ms: float = 0.0) -> ReconfigRecord:
    """Build a content-committing reconfiguration record."""
    add = tuple(add)
    remove = tuple(remove)
    batch_id = f"reconfig:{new_epoch}:+{','.join(add)}:-{','.join(remove)}"
    return ReconfigRecord(batch_id=batch_id, transactions=(),
                          created_at_ms=created_at_ms, logical_size=1,
                          new_epoch=new_epoch, add=add, remove=remove)


def activation_boundary(sequence: int, checkpoint_interval: int) -> int:
    """The checkpoint boundary at or after *sequence* where an epoch activates.

    Boundaries are the sequences ``b`` with ``(b + 1) % interval == 0``
    (the same rule ``try_execute`` checkpoints by).  A record committed *at* a
    boundary activates at that boundary: the boundary's own checkpoint
    votes still count under the old epoch, and every sequence after it
    belongs to the new one.
    """
    if checkpoint_interval <= 0:
        return sequence
    return sequence + (checkpoint_interval - 1 - (sequence % checkpoint_interval))


def apply_reconfig(membership: Sequence[str], add: Iterable[str],
                   remove: Iterable[str]) -> Tuple[str, ...]:
    """The new membership: old order with removals dropped, adds appended.

    Keeping the surviving members' relative order (and appending joiners)
    preserves primary-rotation continuity across the epoch switch.
    """
    removed = set(remove)
    kept = [rid for rid in membership if rid not in removed]
    kept.extend(add)
    return tuple(kept)


def reconfig_record_valid(record: ReconfigRecord, current_epoch: int,
                          membership: Sequence[str]) -> Tuple[bool, str]:
    """Is *record* admissible on top of (*current_epoch*, *membership*)?

    Returns ``(ok, reason)`` — *reason* names the violated rule when the
    record must be refused.  The quorum-continuity rule is the one a
    colluding proposer attacks: a change that drops honest replicas below
    quorum (fewer than ``2 f_old + 1`` old members surviving) could strand
    the hand-off, so it is refused outright.
    """
    if record.new_epoch != current_epoch + 1:
        return False, (f"epoch must chain: expected {current_epoch + 1}, "
                       f"got {record.new_epoch}")
    members = set(membership)
    adds = set(record.add)
    removes = set(record.remove)
    if len(adds) != len(record.add) or len(removes) != len(record.remove):
        return False, "duplicate ids in add/remove"
    if adds & removes:
        return False, "add and remove overlap"
    if adds & members:
        return False, "added replica already a member"
    if not removes <= members:
        return False, "removed replica not a member"
    new_members = apply_reconfig(membership, record.add, record.remove)
    if len(new_members) < MIN_MEMBERSHIP:
        return False, (f"new membership {len(new_members)} below minimum "
                       f"{MIN_MEMBERSHIP}")
    f_old = (len(membership) - 1) // 3
    survivors = len(members - removes)
    if survivors < 2 * f_old + 1:
        return False, (f"quorum continuity broken: {survivors} survivors of "
                       f"epoch {current_epoch}, need {2 * f_old + 1}")
    return True, ""


@dataclass(frozen=True)
class EpochEntry:
    """One activated (or pending) epoch in a replica's epoch log.

    ``committed_at`` is the sequence the reconfiguration record executed
    at (``-1`` for genesis); ``activation_sequence`` is the checkpoint
    boundary at which the epoch's quorum arithmetic takes effect — every
    sequence strictly greater belongs to this epoch.
    """

    epoch: int
    activation_sequence: int
    members: Tuple[str, ...]
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    committed_at: int = -1

    def as_wire(self) -> Tuple:
        """Plain-tuple form for state-transfer payloads."""
        return (self.epoch, self.activation_sequence, self.members,
                self.added, self.removed, self.committed_at)

    @classmethod
    def from_wire(cls, wire: Sequence) -> "EpochEntry":
        epoch, activation, members, added, removed, committed = wire
        return cls(epoch=int(epoch), activation_sequence=int(activation),
                   members=tuple(members), added=tuple(added),
                   removed=tuple(removed), committed_at=int(committed))


def genesis_entry(membership: Sequence[str]) -> EpochEntry:
    """Epoch 0: the boot membership, active from the first sequence."""
    return EpochEntry(epoch=0, activation_sequence=-1,
                      members=tuple(membership))


def epoch_transition_valid(prev: EpochEntry, entry: EpochEntry) -> Tuple[bool, str]:
    """Re-validate one epoch-log transition (auditor-side, from genesis).

    Mirrors :func:`reconfig_record_valid` but checks an *activated* entry:
    the epoch chain, the membership delta arithmetic, the minimum size,
    the quorum-continuity rule, and that activation happened at or after
    the record's commit sequence.
    """
    if entry.epoch != prev.epoch + 1:
        return False, f"epoch chain broken: {prev.epoch} -> {entry.epoch}"
    record = ReconfigRecord(batch_id="", transactions=(), logical_size=1,
                            new_epoch=entry.epoch, add=entry.added,
                            remove=entry.removed)
    ok, reason = reconfig_record_valid(record, prev.epoch, prev.members)
    if not ok:
        return False, reason
    expected = apply_reconfig(prev.members, entry.added, entry.removed)
    if tuple(entry.members) != expected:
        return False, "membership does not match the declared delta"
    if entry.activation_sequence < entry.committed_at:
        return False, (f"activated at {entry.activation_sequence} before "
                       f"commit at {entry.committed_at}")
    if entry.activation_sequence <= prev.activation_sequence:
        return False, "activation sequences must increase"
    return True, ""


def validate_epoch_log(log: Sequence[EpochEntry]) -> List[str]:
    """All transition violations in *log*, genesis first (empty == valid)."""
    problems: List[str] = []
    if not log:
        return ["empty epoch log"]
    first = log[0]
    if first.epoch != 0:
        problems.append(f"log must start at epoch 0, starts at {first.epoch}")
        return problems
    for prev, entry in zip(log, log[1:]):
        ok, reason = epoch_transition_valid(prev, entry)
        if not ok:
            problems.append(f"epoch {entry.epoch}: {reason}")
    return problems

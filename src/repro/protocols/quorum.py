"""Aggregated quorum counting keyed by replica index.

At large ``n`` the MAC-mode protocols deliver O(n²) vote messages per
consensus slot (PoE SUPPORT, PBFT PREPARE/COMMIT, checkpoint votes), and
every delivery used to pay a ``set.add`` on the voter's identifier string
plus a ``len()`` against the quorum.  A :class:`VoteSet` replaces that
with a first-seen *bitset* keyed by replica index — one dict lookup to
resolve the transport-level sender to its index, then pure integer
arithmetic — plus an explicit running count so the quorum check is an
attribute read.

Identity semantics are unchanged and deliberately conservative: voters
are added by their **transport-level sender id** (the rule PR 2 made
load-bearing), duplicates never double-count, and identifiers that do not
resolve to a replica index (spoofed ids replayed by tests, clients,
future reconfiguration members) fall back to an overflow set so nothing
is silently dropped.

A tally that reaches its quorum becomes the slot's proof through
:meth:`VoteSet.freeze`: a :class:`QuorumProof` holds the tally's index map
(shared, not copied), its mask and its overflow ids (a ``frozenset``, only
when there are any), so a ledger block, which keeps its proof for good,
retains a constant number of bytes whatever ``n`` is, where a
``frozenset`` of voter ids grew with it.  Both types read their voters
through one base: same ids, same membership order, same ``len`` and
``in``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Set


class _Voters:
    """The read side of a voter bitset: ``len``, ``in``, iteration."""

    __slots__ = ("_index", "mask", "count", "extra")

    def __len__(self) -> int:
        return self.count

    def __contains__(self, voter: str) -> bool:
        index = self._index.get(voter)
        if index is None:
            return self.extra is not None and voter in self.extra
        return bool(self.mask & (1 << index))

    def __iter__(self) -> Iterator[str]:
        """Yield voter ids: indexed voters in index order, then overflow
        ids sorted (a tally and its snapshot hold them in different sets)."""
        mask = self.mask
        if mask:
            for voter, index in self._index.items():
                if mask & (1 << index):
                    yield voter
        if self.extra:
            yield from sorted(self.extra)

    def __bool__(self) -> bool:
        return self.count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({sorted(self)!r})"


class QuorumProof(_Voters):
    """The immutable voter snapshot a completed tally leaves as its proof.

    Equal (and hashing alike) exactly when the voter sets are equal; it
    pickles.  The index map is the tally's, shared: the map only ever
    grows (joiners are appended), so the voters a snapshot names never
    change.
    """

    __slots__ = ()

    def __new__(cls, index_map: Mapping[str, int], mask: int, count: int,
                extra: Optional[FrozenSet[str]]) -> "QuorumProof":
        proof = object.__new__(cls)
        object.__setattr__(proof, "_index", index_map)
        object.__setattr__(proof, "mask", mask)
        object.__setattr__(proof, "count", count)
        object.__setattr__(proof, "extra", extra)
        return proof

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("a quorum proof is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return QuorumProof, (self._index, self.mask, self.count, self.extra)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuorumProof):
            return NotImplemented
        return frozenset(self) == frozenset(other)

    def __hash__(self) -> int:
        return hash(frozenset(self))


class VoteSet(_Voters):
    """First-seen voter bitset with an O(1) distinct-voter count.

    Args:
        index_map: mapping from voter id to a dense replica index.  Voters
            absent from the map are tracked in an overflow set (plain
            ``set`` semantics); pass an empty mapping to get a drop-in
            replacement for ``Set[str]``.
    """

    __slots__ = ()

    def __init__(self, index_map: Optional[Mapping[str, int]] = None) -> None:
        self._index = index_map if index_map is not None else {}
        self.mask = 0
        self.count = 0
        self.extra: Optional[Set[str]] = None

    def add(self, voter: str) -> bool:
        """Record *voter*; returns ``True`` iff it was not seen before."""
        index = self._index.get(voter)
        if index is None:
            extra = self.extra
            if extra is None:
                self.extra = {voter}
            elif voter in extra:
                return False
            else:
                extra.add(voter)
            self.count += 1
            return True
        bit = 1 << index
        if self.mask & bit:
            return False
        self.mask |= bit
        self.count += 1
        return True

    def discard(self, voter: str) -> bool:
        """Forget *voter* if present; returns ``True`` iff it was recorded.

        Used when an epoch activates: votes an evicted replica parked on
        not-yet-certified quorums must never count toward a commit in the
        epoch that removed it.
        """
        index = self._index.get(voter)
        if index is None:
            extra = self.extra
            if extra is None or voter not in extra:
                return False
            extra.discard(voter)
            self.count -= 1
            return True
        bit = 1 << index
        if not self.mask & bit:
            return False
        self.mask &= ~bit
        self.count -= 1
        return True

    def freeze(self) -> QuorumProof:
        """This tally's voters as an immutable :class:`QuorumProof`; later
        ``add``/``discard`` calls do not reach it."""
        extra = self.extra
        return QuorumProof(self._index, self.mask, self.count,
                           frozenset(extra) if extra else None)


def build_index_map(replica_ids) -> Dict[str, int]:
    """Dense ``voter id -> index`` map in membership order."""
    return {replica_id: index for index, replica_id in enumerate(replica_ids)}

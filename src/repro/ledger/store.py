"""In-memory key-value table with undo support.

This is the execution substrate: each replica holds an identical copy of
the YCSB table (the paper initialises every replica with the same half a
million records) and applies transactions deterministically, so all
non-faulty replicas produce identical results.  A batch is applied in one
call, which returns its result digests and the undo entries
:class:`~repro.ledger.execution.SpeculativeExecutor` uses to roll back
speculation during a view-change.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import digest, shared_digest
from repro.workload.transactions import OpType, Transaction


def result_digest(txn_id: str, reads: Tuple[Tuple[str, Optional[str]], ...],
                  writes_applied: int) -> bytes:
    """Digest of one executed transaction's result.

    *reads* holds the key/value pairs its read operations observed
    (``None`` for an absent key) and *writes_applied* counts its writes.
    Every replica asks for the same values, so the digest is shared.
    """
    # ``reads`` goes in as the tuple it is: hashable, so memoisable.
    return shared_digest("result", txn_id, reads, writes_applied)


#: Previous state of one key, captured before a write: ``(key, previous
#: value, whether the key existed)``.  A plain tuple, so a write allocates
#: no object with a constructor frame.
UndoEntry = Tuple[str, Optional[str], bool]


class KeyValueStore:
    """Deterministic in-memory key-value table."""

    def __init__(self, initial: Optional[Dict[str, str]] = None) -> None:
        self._table: Dict[str, str] = dict(initial or {})
        self.applied_transactions = 0

    # -- basic access -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: str) -> Optional[str]:
        return self._table.get(key)

    def put(self, key: str, value: str) -> None:
        self._table[key] = value

    def snapshot_digest(self) -> bytes:
        """Digest of the full table (used by checkpoint messages)."""
        return digest("store", sorted(self._table.items()))

    def snapshot(self) -> Dict[str, str]:
        """A copy of the full table (used by checkpoint state transfer)."""
        return dict(self._table)

    def replace_all(self, table: Dict[str, str]) -> None:
        """Replace the table contents (installing a transferred checkpoint)."""
        self._table = dict(table)

    # -- transaction execution ----------------------------------------------------
    def apply(self, transactions: Iterable[Transaction]
              ) -> Tuple[Tuple[bytes, ...], List[UndoEntry]]:
        """Apply *transactions* in order.

        Returns each transaction's :func:`result_digest` and the undo
        entries of every write, in the order they were applied.
        """
        table = self._table
        get = table.get
        read = OpType.READ
        digests: List[bytes] = []
        undo: List[UndoEntry] = []
        for transaction in transactions:
            reads: List[Tuple[str, Optional[str]]] = []
            writes = 0
            for op in transaction.operations:
                key = op.key
                if op.op_type is read:
                    reads.append((key, get(key)))
                else:
                    previous = get(key)
                    undo.append((key, previous, previous is not None or key in table))
                    table[key] = op.value if op.value is not None else ""
                    writes += 1
            digests.append(result_digest(transaction.txn_id, tuple(reads), writes))
        self.applied_transactions += len(digests)
        return tuple(digests), undo

    def revert(self, undo_entries: Sequence[UndoEntry]) -> None:
        """Revert previously applied writes (most recent first)."""
        table = self._table
        for key, previous, existed in reversed(undo_entries):
            if existed:
                table[key] = previous or ""
            else:
                table.pop(key, None)

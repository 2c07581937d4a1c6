"""In-memory key-value table with undo support.

This is the execution substrate: each replica holds an identical copy of
the YCSB table (the paper initialises every replica with the same half a
million records) and applies transactions deterministically, so all
non-faulty replicas produce identical results.  Every applied transaction
records undo entries, which :class:`~repro.ledger.execution.SpeculativeExecutor`
uses to roll back speculation during a view-change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import digest, shared_digest
from repro.workload.transactions import OpType, Transaction


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Deterministic result of executing one transaction.

    Attributes:
        txn_id: the executed transaction's identifier.
        reads: key/value pairs observed by read operations.
        writes_applied: number of write operations applied.
    """

    txn_id: str
    reads: Tuple[Tuple[str, Optional[str]], ...] = ()
    writes_applied: int = 0

    def digest(self) -> bytes:
        # ``reads`` goes in as the tuple it is: hashable, so memoisable.
        return shared_digest("result", self.txn_id, self.reads,
                             self.writes_applied)


@dataclass(slots=True)
class UndoEntry:
    """Previous value of one key, captured before a write."""

    key: str
    previous_value: Optional[str]
    existed: bool


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
    def apply(self, transaction: Transaction) -> Tuple[ExecutionResult, List[UndoEntry]]:
        """Apply *transaction* and return its result plus undo entries."""
        table = self._table
        read, write = OpType.READ, OpType.WRITE
        reads: List[Tuple[str, Optional[str]]] = []
        undo: List[UndoEntry] = []
        for op in transaction.operations:
            op_type, key = op.op_type, op.key
            if op_type is read:
                reads.append((key, table.get(key)))
            elif op_type is write:
                previous = table.get(key)
                undo.append(UndoEntry(
                    key, previous, previous is not None or key in table))
                table[key] = op.value if op.value is not None else ""
        self.applied_transactions += 1
        # One undo entry per write applied.
        return ExecutionResult(transaction.txn_id, tuple(reads), len(undo)), undo

    def revert(self, undo_entries: List[UndoEntry]) -> None:
        """Revert previously applied writes (most recent first)."""
        for entry in reversed(undo_entries):
            if entry.existed:
                self._table[entry.key] = entry.previous_value or ""
            else:
                self._table.pop(entry.key, None)

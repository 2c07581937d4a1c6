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


@dataclass(frozen=True)
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


@dataclass
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
        reads: List[Tuple[str, Optional[str]]] = []
        undo: List[UndoEntry] = []
        writes = 0
        for op in transaction.operations:
            if op.op_type is OpType.READ:
                reads.append((op.key, self._table.get(op.key)))
            elif op.op_type is OpType.WRITE:
                undo.append(
                    UndoEntry(
                        key=op.key,
                        previous_value=self._table.get(op.key),
                        existed=op.key in self._table,
                    )
                )
                self._table[op.key] = op.value if op.value is not None else ""
                writes += 1
        self.applied_transactions += 1
        result = ExecutionResult(
            txn_id=transaction.txn_id, reads=tuple(reads), writes_applied=writes
        )
        return result, undo

    def revert(self, undo_entries: List[UndoEntry]) -> None:
        """Revert previously applied writes (most recent first)."""
        for entry in reversed(undo_entries):
            if entry.existed:
                self._table[entry.key] = entry.previous_value or ""
            else:
                self._table.pop(entry.key, None)

"""In-memory key-value table with undo support.

This is the execution substrate: each replica holds an identical copy of
the YCSB table (the paper initialises every replica with the same half a
million records) and applies transactions deterministically, so all
non-faulty replicas produce identical results.  A batch is applied in one
call, which returns each transaction's outcome and the undo entries
:class:`~repro.ledger.execution.SpeculativeExecutor` uses to roll back
speculation during a view-change.  The store hashes nothing: an outcome
is the plain values its :func:`result_digest` covers.  The replicas of a
deployment execute through one
:class:`~repro.ledger.execution.ExecutionMemo`, so only the first replica
to execute a batch on a given table applies it and hashes its results;
the others take its final writes in one :meth:`KeyValueStore.overwrite`.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import encode_head, encode_str
from repro.workload.transactions import OpType, Transaction

#: One executed transaction's outcome: ``(txn_id, reads, writes applied)``,
#: where *reads* are the key/value pairs its reads observed (``None`` for
#: an absent key).  Built from ``str``, ``None`` and ``int`` only, so equal
#: outcomes encode to equal bytes and a batch's outcomes can key a memo.
Reads = Tuple[Tuple[str, Optional[str]], ...]
Outcome = Tuple[str, Reads, int]

#: ``digest("result", txn_id, reads, writes)``'s bytes up to the transaction
#: id, and the head of one ``(key, value)`` pair (a read, or a table row).
_RESULT_HEAD = encode_head(4) + encode_str("result")
_PAIR_HEAD = encode_head(2)


def result_digest(txn_id: str, reads: Reads, writes_applied: int) -> bytes:
    """Digest of one executed transaction's result.

    *reads* holds the key/value pairs its read operations observed
    (``None`` for an absent key) and *writes_applied* counts its writes.
    Equal to ``digest("result", txn_id, reads, writes_applied)`` byte for
    byte, written as a fixed shape in ``digest``'s ``str`` (``S``), tuple
    (``T``), ``None`` (``N``) and ``int`` (``I``) encodings.  It runs once
    per transaction per process, on a batch-memo miss, so it stays off the
    shared memo.
    """
    raw = txn_id.encode("utf-8")
    parts = [_RESULT_HEAD, b"S", len(raw).to_bytes(8, "big"), raw,
             b"T", len(reads).to_bytes(8, "big")]
    for key, value in reads:
        raw = key.encode("utf-8")
        parts += (_PAIR_HEAD, b"S", len(raw).to_bytes(8, "big"), raw)
        if value is None:
            parts.append(b"N")
        else:
            raw = value.encode("utf-8")
            parts += (b"S", len(raw).to_bytes(8, "big"), raw)
    raw = b"%d" % writes_applied
    parts += (b"I", len(raw).to_bytes(8, "big"), raw)
    return sha256(b"".join(parts)).digest()


#: ``digest("store", sorted(table.items()))``'s bytes up to the pair count.
_TABLE_HEAD = encode_head(2) + encode_str("store") + b"T"


def table_digest(table: Dict[str, str]) -> bytes:
    """Digest of a whole table: what a checkpoint's state digest covers.

    Equal to ``digest("store", sorted(table.items()))`` byte for byte,
    written as a fixed shape in ``digest``'s ``str`` (``S``) and tuple
    (``T``) encodings.  Keys are distinct, so sorting the keys orders the
    pairs as sorting the pairs does.
    """
    parts = [_TABLE_HEAD, len(table).to_bytes(8, "big")]
    for key in sorted(table):
        raw_key, raw_value = key.encode("utf-8"), table[key].encode("utf-8")
        parts += (_PAIR_HEAD, b"S", len(raw_key).to_bytes(8, "big"), raw_key,
                  b"S", len(raw_value).to_bytes(8, "big"), raw_value)
    return sha256(b"".join(parts)).digest()


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
    def get(self, key: str) -> Optional[str]:
        return self._table.get(key)

    def snapshot_digest(self) -> bytes:
        """Digest of the full table (used by checkpoint messages)."""
        return table_digest(self._table)

    def snapshot(self) -> Dict[str, str]:
        """A copy of the full table (used by checkpoint state transfer)."""
        return dict(self._table)

    def replace_all(self, table: Dict[str, str]) -> None:
        """Replace the table contents (installing a transferred checkpoint)."""
        self._table = dict(table)

    # -- transaction execution ----------------------------------------------------
    def apply(self, transactions: Iterable[Transaction]
              ) -> Tuple[Tuple[Outcome, ...], List[UndoEntry]]:
        """Apply *transactions* in order.

        Returns each transaction's :data:`Outcome` and the undo entries of
        every write, in the order they were applied.
        """
        table = self._table
        get = table.get
        read = OpType.READ
        outcomes: List[Outcome] = []
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
            outcomes.append((transaction.txn_id, tuple(reads), writes))
        self.applied_transactions += len(outcomes)
        return tuple(outcomes), undo

    def written(self, undo_entries: Sequence[UndoEntry]) -> Dict[str, str]:
        """The current value of every key *undo_entries* logged a write to:
        what applying the batch that logged them left in the table."""
        table = self._table
        return {key: table[key] for key, _, _ in undo_entries}

    def overwrite(self, writes: Dict[str, str], transactions: int) -> None:
        """Leave the table as applying a batch of *transactions* whose
        :meth:`written` values are *writes* did, on an equal table."""
        self._table.update(writes)
        self.applied_transactions += transactions

    def revert(self, undo_entries: Sequence[UndoEntry]) -> None:
        """Revert previously applied writes (most recent first)."""
        table = self._table
        for key, previous, existed in reversed(undo_entries):
            if existed:
                table[key] = previous or ""
            else:
                table.pop(key, None)

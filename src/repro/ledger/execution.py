"""Speculative execution journal: execute, record, roll back.

PoE replicas execute a batch as soon as it is view-committed — before the
system as a whole is guaranteed to keep it (paper, ingredient I1).  The
:class:`SpeculativeExecutor` therefore keeps, per executed sequence
number, the undo entries and the ledger block it created, so a
view-change can call :meth:`rollback_to` and restore the exact state as
of any earlier sequence number (ingredient I2, "safe rollbacks").

A really executed batch's result digest is ``digest("results", (result
digest of each transaction, ...))``.  Every replica executes the batch,
and on equal tables every replica would apply the same writes and read
the same values, so the replicas of a deployment share one
:class:`ExecutionMemo`: the first to execute a batch on a table applies
it and hashes its results, and the others take its final writes, undo
log and result digest.  The memo is keyed on the table's version and the
batch's digest, never on the replica or the sequence, so a replica whose
table diverged executes for itself and gets the digest of what it really
read.  Every other change of a table — a revert, an installed transferred
table, a committed cross-shard transaction's writes — restores the version
it undoes or takes another one, so equal versions mean equal tables; no
module outside the ledger sees a version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import digest, digest_fields_and_blobs, shared_digest
from repro.ledger.blockchain import Blockchain
from repro.ledger.store import KeyValueStore, Outcome, UndoEntry, result_digest
from repro.workload.transactions import RequestBatch, Transaction


def batch_result_digest(outcomes: Sequence[Outcome]) -> bytes:
    """The result digest of a batch whose transactions had *outcomes*:
    the fold of each transaction's :func:`result_digest`, written as the
    fixed shape ``digest("results", [result digests])``."""
    return digest_fields_and_blobs(
        ("results",), list(starmap(result_digest, outcomes)))


#: What executing one batch on one table left: ``(final value of each key
#: it wrote, undo log, result digest, version of the table it left, the
#: sequence it first executed at)``.  A plain tuple, so an entry allocates
#: no object with a constructor frame.
Transition = Tuple[Dict[str, str], Tuple[UndoEntry, ...], bytes, int, int]


class ExecutionMemo(dict):
    """Each batch executed once per table, for every store that holds it.

    Tables are named by *versions* this memo issues: 0 is the initial
    table every store of a deployment starts from, and a store takes a
    fresh version whenever its table changes in a way no entry describes
    (a miss, an installed transferred table).  An entry, keyed on
    ``(version, batch digest)``, is the :data:`Transition` executing the
    batch on that table made, so a store at that version that executes
    that batch takes it with one ``dict.update`` of its own table and
    shares the undo log and result digest.  Equal versions mean equal
    tables by construction: a store whose table diverged is at another
    version and executes for itself.

    Bounded by the checkpoint window, like the undo logs it shares: a
    stable checkpoint at ``s`` lets go of every entry first executed at
    or below ``s`` (:meth:`forget_through`), which no rollback asks for
    again; a replica still behind ``s`` executes those batches for
    itself.  The memo is the entries' dict itself, so building one
    runs no Python frame and an executor that never applies a write pays
    nothing for its own.
    """

    #: The last version issued, and the lookups served and missed; class
    #: defaults until the first of each.
    issued = 0
    hits = 0
    misses = 0

    def fresh(self) -> int:
        """A version no entry leads to, for a table no entry describes."""
        self.issued += 1
        return self.issued

    def execute(self, store: KeyValueStore, version: int, key: bytes,
                sequence: int, transactions: Sequence[Transaction]
                ) -> Tuple[int, Tuple[UndoEntry, ...], bytes]:
        """Execute *transactions*, whose digest is *key*, as *sequence* on
        *store*, whose table is at *version*.

        Returns the version of the table it leaves, the undo log and the
        result digest.  A miss applies the transactions and folds their
        results; a hit overwrites the keys the entry's first execution
        wrote.
        """
        entry = self.get((version, key))
        if entry is not None:
            writes, undo, result, after, _ = entry
            store.overwrite(writes, len(transactions))
            self.hits += 1
            return after, undo, result
        outcomes, applied = store.apply(transactions)
        undo = tuple(applied)
        result = batch_result_digest(outcomes)
        after = self.fresh()
        self[version, key] = (store.written(undo), undo, result, after, sequence)
        self.misses += 1
        return after, undo, result

    def forget_through(self, sequence: int) -> None:
        """Let go of the entries first executed at or below *sequence*,
        oldest first; one a rollback had re-executed is entered behind
        later ones and goes at a later checkpoint."""
        stale = []
        for key, entry in self.items():
            if entry[4] > sequence:
                break
            stale.append(key)
        for key in stale:
            del self[key]


def modelled_result_digest(sequence: int, batch: RequestBatch) -> bytes:
    """The deterministic result digest of cost-modelled execution.

    Exposed so protocol code (e.g. Zyzzyva's commit-certificate admission
    check) can re-derive what executing *batch* at *sequence* must have
    produced when operations are not really applied.
    """
    return shared_digest("results-modelled", sequence, batch.digest())


@dataclass(slots=True)
class ExecutedBatch:
    """Record of one speculatively executed batch.

    A record holds what a later step reads: the batch's identity (id,
    digest, control phase — what a view change or a commit certificate is
    compared with, at any depth), the digest the replies carried and,
    while the slot can still be rolled back, the batch itself and the undo
    log.  ``prune_before`` empties the undo log (every pruned record shares
    the one empty tuple) and lets go of an ordinary batch once a
    checkpoint at or above the sequence is stable, so a record below it
    does not keep a hundred transactions alive.  The
    per-transaction results are not in it either: each is folded into
    ``result_digest`` as the batch executes and nothing reads it again.

    Attributes:
        sequence: consensus sequence number ``k``.
        view: view in which the batch was certified.
        batch: the executed batch; ``None`` once pruned (control batches
            are kept).
        result_digest: digest of the results, included in INFORM messages.
        undo: undo entries needed to revert this batch.
        batch_id, batch_digest, control_phase: the batch's, kept for good.
    """

    sequence: int
    view: int
    batch: Optional[RequestBatch]
    result_digest: bytes
    undo: Sequence[UndoEntry] = field(default_factory=list)
    batch_id: str = ""
    batch_digest: bytes = b""
    control_phase: str = ""


class SpeculativeExecutor:
    """Executes batches in sequence order and supports rollback.

    Args:
        store: the replica's key-value table.
        blockchain: the replica's ledger (one block appended per batch).
        apply_operations: if ``False``, transactions are not really applied
            (their execution is cost-modelled by the simulator); results
            are then deterministic digests of the batch alone, which keeps
            replicas mutually consistent.

    Transactions really applied go through :attr:`memo`, the executor's
    own until :meth:`share` hands it the one its deployment's replicas
    share.
    """

    def __init__(self, store: KeyValueStore, blockchain: Blockchain,
                 apply_operations: bool = True) -> None:
        self.store = store
        self.blockchain = blockchain
        self.apply_operations = apply_operations
        self._executed: Dict[int, ExecutedBatch] = {}
        self.last_executed_sequence = -1
        #: Every record at or below this sequence has an empty undo log:
        #: ``prune_before`` resumes above it, so it visits each record
        #: once over a whole run.  Never above ``last_executed_sequence``
        #: (no rollback goes below it), and lowered when a resync removes
        #: records at or below it, so a batch executed later is never
        #: skipped.
        self._pruned_through = -1
        self.memo = ExecutionMemo()
        #: The memo's version of the store's table, and the version each
        #: revertible record executed on (what reverting it restores).
        self._version = 0
        self._versions_before: Dict[int, int] = {}

    def share(self, memo: ExecutionMemo) -> None:
        """Execute through *memo*, which every replica of the deployment
        shares.  Only while the table is still the initial one they all
        start from: version 0 of any memo.

        Raises:
            ValueError: if the table already left the initial version.
        """
        if self._version:
            raise ValueError("a memo is shared before the table changes")
        self.memo = memo

    # -- inspection --------------------------------------------------------------
    def executed(self, sequence: int) -> Optional[ExecutedBatch]:
        return self._executed.get(sequence)

    def state_digest(self) -> bytes:
        """Digest summarising store state and ledger head (checkpoints)."""
        return digest("state", self.last_executed_sequence,
                      self.blockchain.head.block_hash,
                      self.store.snapshot_digest() if self.apply_operations else b"")

    # -- execution ----------------------------------------------------------------
    def execute(self, sequence: int, view: int, batch: RequestBatch,
                proof: object = None) -> ExecutedBatch:
        """Execute *batch* as consensus slot *sequence*.

        Raises:
            ValueError: if *sequence* is not the next sequence in order
                (callers must respect the paper's in-order execution rule).
        """
        if sequence != self.last_executed_sequence + 1:
            raise ValueError(
                f"out-of-order execution: expected {self.last_executed_sequence + 1}, "
                f"got {sequence}"
            )
        batch_digest = batch.digest()
        if self.apply_operations:
            before = self._version
            self._version, undo, result_digest = self.memo.execute(
                self.store, before, batch_digest, sequence, batch.transactions)
            self._versions_before[sequence] = before
        else:
            undo = []
            result_digest = modelled_result_digest(sequence, batch)
        block = self.blockchain.append(
            sequence=sequence, batch_digest=batch_digest, view=view, proof=proof,
            payload=batch.batch_id,
        )
        record = ExecutedBatch(
            sequence=sequence, view=view, batch=batch,
            result_digest=result_digest, undo=undo, batch_id=batch.batch_id,
            batch_digest=batch_digest, control_phase=batch.control_phase,
        )
        self._executed[sequence] = record
        self.last_executed_sequence = sequence
        return record

    def apply_payload(self, record: ExecutedBatch,
                      transactions: Sequence[Transaction]) -> None:
        """Apply *transactions* on top of *record*, the batch just executed
        (a committed cross-shard transaction's writes on this shard).

        They go through the memo like a batch, keyed on their digests, and
        are journaled into a copy of the record's undo log — never into
        the tuple the memo shares — so rolling the record back reverts
        them too.
        """
        key = digest_fields_and_blobs(
            ("payload",), [transaction.digest() for transaction in transactions])
        self._version, undo, _ = self.memo.execute(
            self.store, self._version, key, record.sequence, transactions)
        record.undo = (*record.undo, *undo)

    # -- state transfer ------------------------------------------------------------
    def fast_forward(self, sequence: int, view: int, state_digest: bytes,
                     table_snapshot: Optional[Dict[str, str]] = None,
                     head_hash: Optional[bytes] = None) -> bool:
        """Install a transferred checkpoint, skipping missed sequences.

        Used when a replica fell behind (e.g. it was kept in the dark by a
        malicious primary) and the checkpoint protocol proves that the
        system as a whole progressed to *sequence*.  Returns ``False`` if
        the checkpoint does not advance this replica's state.
        """
        if sequence <= self.last_executed_sequence:
            return False
        if self.apply_operations and table_snapshot is not None:
            # A table no memo entry describes takes a new version.
            self.store.replace_all(table_snapshot)
            self._version = self.memo.fresh()
        self.blockchain.append_checkpoint(sequence, state_digest, view,
                                          adopted_hash=head_hash)
        for stale in [s for s in self._executed if s > sequence]:
            # Anything recorded above the checkpoint was speculative and is
            # superseded by the transferred state.
            del self._executed[stale]
        # Below a transfer no revert restores a known table.
        self._versions_before.clear()
        self.last_executed_sequence = sequence
        return True

    def resync(self, sequence: int, view: int, state_digest: bytes,
               table_snapshot: Optional[Dict[str, str]] = None,
               divergent_from: int = 0,
               head_hash: Optional[bytes] = None) -> None:
        """Replace a divergent executed suffix with a transferred checkpoint.

        :meth:`fast_forward` only helps a replica that is *behind*; a
        replica that executed a **wrong** batch sits at the same height as
        the stable checkpoint it disagrees with, so repair must excise the
        divergent suffix (everything from *divergent_from* upward — blocks,
        journal entries and, when operations are applied, table state) and
        install the quorum-vouched checkpoint in its place.  The divergent
        blocks are removed rather than merely superseded: the ledger must
        not retain an executed batch the system never agreed on.
        """
        for stale in [s for s in self._executed if s >= divergent_from]:
            del self._executed[stale]
        self._versions_before.clear()
        self._pruned_through = min(self._pruned_through, divergent_from - 1)
        self.blockchain.truncate_after(divergent_from - 1)
        if self.apply_operations and table_snapshot is not None:
            # A table no memo entry describes takes a new version.
            self.store.replace_all(table_snapshot)
            self._version = self.memo.fresh()
        self.blockchain.append_checkpoint(sequence, state_digest, view,
                                          adopted_hash=head_hash)
        self.last_executed_sequence = sequence

    # -- rollback -----------------------------------------------------------------
    def rollback_to(self, sequence: int) -> List[ExecutedBatch]:
        """Revert every batch executed after *sequence*.

        Returns the reverted batches, most recently executed first, and
        truncates the ledger accordingly.  ``rollback_to(-1)`` reverts
        everything.  Each revert restores the version its record executed
        on, or a fresh one if a transferred table was installed since.

        Raises:
            ValueError: if *sequence* is below a stable checkpoint this
                executor pruned: those records' undo logs are gone.
        """
        if sequence < self._pruned_through:
            raise ValueError(
                f"cannot roll back to {sequence}: the undo logs through "
                f"{self._pruned_through} were pruned")
        reverted: List[ExecutedBatch] = []
        for seq in sorted(self._executed, reverse=True):
            if seq <= sequence:
                break
            record = self._executed.pop(seq)
            if self.apply_operations:
                self.store.revert(record.undo)
                before = self._versions_before.pop(seq, None)
                self._version = (self.memo.fresh() if before is None
                                 else before)
            reverted.append(record)
        self.blockchain.truncate_after(sequence)
        self.last_executed_sequence = min(self.last_executed_sequence, sequence)
        return reverted

    # -- checkpointing --------------------------------------------------------------
    def prune_before(self, sequence: int) -> None:
        """Forget undo information for batches at or below *sequence*.

        Called once a checkpoint is stable: those batches can no longer be
        rolled back (they are durable system-wide), so their undo logs are
        garbage-collected — this is what keeps view-change messages small —
        and with them the transactions of every ordinary batch: below a
        checkpoint a record is only ever asked for its identity.
        """
        through = min(sequence, self.last_executed_sequence)
        versions_before = self._versions_before
        for seq in range(self._pruned_through + 1, through + 1):
            record = self._executed.get(seq)
            if record is not None:
                record.undo = ()
                versions_before.pop(seq, None)
                if not record.control_phase:
                    record.batch = None
        self._pruned_through = max(self._pruned_through, through)
        if self.apply_operations:
            self.memo.forget_through(through)

"""Speculative execution journal: execute, record, roll back.

PoE replicas execute a batch as soon as it is view-committed — before the
system as a whole is guaranteed to keep it (paper, ingredient I1).  The
:class:`SpeculativeExecutor` therefore keeps, per executed sequence
number, the undo entries and the ledger block it created, so a
view-change can call :meth:`rollback_to` and restore the exact state as
of any earlier sequence number (ingredient I2, "safe rollbacks").

A really executed batch's result digest is ``digest("results", (result
digest of each transaction, ...))``.  Every replica executes the batch
and asks for the same digest, so :func:`batch_result_digest` keeps it in
one process-wide memo keyed on the batch's outcomes — the values the
digest covers, never the replica or the sequence, so a replica whose
table diverged gets the digest of what it really read.  A replica pays
one memo lookup per batch; the first to execute the batch hashes its
transactions' results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import starmap
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import digest, digest_fields_and_blobs, shared_digest
from repro.ledger.blockchain import Blockchain
from repro.ledger.store import KeyValueStore, Outcome, UndoEntry, result_digest
from repro.workload.transactions import RequestBatch

#: Batches whose result digest :func:`batch_result_digest` keeps before
#: the least recently used one is evicted.  A batch is asked for by every
#: replica within a few virtual milliseconds of the first and then never
#: again, so the working set is the batches in flight (a client pool keeps
#: 16 outstanding), not the run; an entry holds the batch's outcomes.
BATCH_RESULT_MEMO_SIZE = 64


@lru_cache(maxsize=BATCH_RESULT_MEMO_SIZE)
def batch_result_digest(outcomes: Tuple[Outcome, ...]) -> bytes:
    """The result digest of a batch whose transactions had *outcomes*:
    the fold of each transaction's :func:`result_digest`, written as the
    fixed shape ``digest("results", [result digests])``."""
    return digest_fields_and_blobs(
        ("results",), list(starmap(result_digest, outcomes)))


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
        #: once over a whole run.  Never above ``last_executed_sequence``,
        #: and lowered whenever records at or below it are removed, so a
        #: batch executed later is never skipped.
        self._pruned_through = -1

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
        if self.apply_operations:
            outcomes, undo = self.store.apply(batch.transactions)
            result_digest = batch_result_digest(outcomes)
        else:
            undo = []
            result_digest = modelled_result_digest(sequence, batch)
        batch_digest = batch.digest()
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
            self.store.replace_all(table_snapshot)
        self.blockchain.append_checkpoint(sequence, state_digest, view,
                                          adopted_hash=head_hash)
        for stale in [s for s in self._executed if s > sequence]:
            # Anything recorded above the checkpoint was speculative and is
            # superseded by the transferred state.
            del self._executed[stale]
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
        self._pruned_through = min(self._pruned_through, divergent_from - 1)
        self.blockchain.truncate_after(divergent_from - 1)
        if self.apply_operations and table_snapshot is not None:
            self.store.replace_all(table_snapshot)
        self.blockchain.append_checkpoint(sequence, state_digest, view,
                                          adopted_hash=head_hash)
        self.last_executed_sequence = sequence

    # -- rollback -----------------------------------------------------------------
    def rollback_to(self, sequence: int) -> List[ExecutedBatch]:
        """Revert every batch executed after *sequence*.

        Returns the reverted batches, most recently executed first, and
        truncates the ledger accordingly.  ``rollback_to(-1)`` reverts
        everything.
        """
        reverted: List[ExecutedBatch] = []
        for seq in sorted(self._executed, reverse=True):
            if seq <= sequence:
                break
            record = self._executed.pop(seq)
            if self.apply_operations:
                self.store.revert(record.undo)
            reverted.append(record)
        self.blockchain.truncate_after(sequence)
        self.last_executed_sequence = min(self.last_executed_sequence, sequence)
        self._pruned_through = min(self._pruned_through, sequence)
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
        for seq in range(self._pruned_through + 1, through + 1):
            record = self._executed.get(seq)
            if record is not None:
                record.undo = ()
                if not record.control_phase:
                    record.batch = None
        self._pruned_through = max(self._pruned_through, through)

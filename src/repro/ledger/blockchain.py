"""Hash-chained, append-only (but truncatable) blockchain.

Each replica's execute thread appends one block per executed batch
(Section III-A of the paper).  Because PoE executes speculatively, a
replica may need to discard the suffix of its chain when a view-change
reveals that some executed batches were not accepted system-wide; the
:meth:`Blockchain.truncate_after` method supports exactly that, and the
paired :class:`~repro.ledger.execution.SpeculativeExecutor` reverts the
corresponding state changes.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Iterator, List, Optional

from repro.ledger.block import Block


class InvalidBlockError(Exception):
    """Raised when appending a block that does not extend the chain."""


class Blockchain:
    """An in-memory chain of :class:`Block` objects."""

    def __init__(self, initial_primary: str = "replica:0") -> None:
        self._blocks: List[Block] = [Block.genesis(initial_primary)]

    # -- inspection -------------------------------------------------------------
    def __len__(self) -> int:
        """Number of blocks excluding the genesis block."""
        return len(self._blocks) - 1

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    @property
    def genesis(self) -> Block:
        return self._blocks[0]

    @property
    def head(self) -> Block:
        """The most recently appended block (genesis if the chain is empty)."""
        return self._blocks[-1]

    def block_at(self, sequence: int) -> Optional[Block]:
        """Return the block for consensus sequence *sequence*, if present:
        a bisection, since sequences strictly increase along the chain
        (across a checkpoint-sync gap too; :meth:`verify_chain` checks it)."""
        blocks = self._blocks
        index = bisect_left(blocks, sequence, lo=1, key=attrgetter("sequence"))
        if index < len(blocks) and blocks[index].sequence == sequence:
            return blocks[index]
        return None

    def blocks(self) -> List[Block]:
        """All non-genesis blocks in order."""
        return list(self._blocks[1:])

    # -- mutation ----------------------------------------------------------------
    def append(self, sequence: int, batch_digest: bytes, view: int,
               proof: Any = None, payload: Any = None) -> Block:
        """Create and append the next block.

        Raises:
            InvalidBlockError: if *sequence* does not directly follow the
                head block's sequence number.
        """
        expected = self.head.sequence + 1
        if sequence != expected:
            raise InvalidBlockError(
                f"expected block sequence {expected}, got {sequence}"
            )
        block = Block(
            sequence=sequence,
            batch_digest=batch_digest,
            view=view,
            parent_hash=self.head.block_hash,
            proof=proof,
            payload=payload,
        )
        self._blocks.append(block)
        return block

    def append_checkpoint(self, sequence: int, state_digest: bytes, view: int,
                          adopted_hash: Optional[bytes] = None) -> Block:
        """Append a checkpoint-sync block, skipping the missing sequences.

        Used when a lagging replica installs a transferred checkpoint: the
        block records the adopted state digest at *sequence* and is marked
        with a ``"checkpoint-sync"`` payload so :meth:`verify_chain` knows
        the sequence gap before it is intentional.  When *adopted_hash* is
        given (the source chain's block hash at *sequence*, vouched through
        the checkpoint digest) the sync block re-joins the canonical hash
        chain, so the receiver's subsequent state digests match the
        quorum's again.
        """
        if sequence <= self.head.sequence:
            raise InvalidBlockError(
                f"checkpoint sequence {sequence} does not advance the chain "
                f"(head is {self.head.sequence})"
            )
        block = Block(
            sequence=sequence,
            batch_digest=state_digest,
            view=view,
            parent_hash=self.head.block_hash,
            payload="checkpoint-sync",
            adopted_hash=adopted_hash,
        )
        self._blocks.append(block)
        return block

    def truncate_after(self, sequence: int) -> List[Block]:
        """Discard every block with a sequence number greater than *sequence*.

        Returns the removed blocks (most recent last).  Used when a
        view-change rolls back speculative execution.
        """
        kept: List[Block] = []
        removed: List[Block] = []
        for block in self._blocks:
            if block.sequence > sequence:
                removed.append(block)
            else:
                kept.append(block)
        self._blocks = kept
        return removed

    # -- validation ---------------------------------------------------------------
    def verify_chain(self) -> bool:
        """Check hash-chaining and sequence continuity of the whole ledger."""
        previous = self._blocks[0]
        for block in self._blocks[1:]:
            if block.parent_hash != previous.block_hash:
                return False
            if block.payload == "checkpoint-sync":
                if block.sequence <= previous.sequence:
                    return False
            elif block.sequence != previous.sequence + 1:
                return False
            previous = block
        return True

"""Request batching, as performed by RESILIENTDB's batch-threads.

RESILIENTDB's primary groups client transactions into batches of a
configured size before proposing them (paper, Section III "Batching").
Here no replica builds a Batcher: client pools submit pre-built batches,
and a primary proposes each as it came, under the id its client knows.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.workload.transactions import RequestBatch, Transaction


class Batcher:
    """Groups individual transactions into consensus-sized batches."""

    def __init__(self, batch_size: int, owner_id: str = "primary") -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.batch_size = batch_size
        self.owner_id = owner_id
        self._pending: Deque[Transaction] = deque()
        self._reply_to: Optional[str] = None
        self._created_batches = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add_transactions(self, transactions, reply_to: str = "",
                         now_ms: float = 0.0) -> List[RequestBatch]:
        """Add transactions and return any batches that became full."""
        if reply_to:
            self._reply_to = reply_to
        self._pending.extend(transactions)
        batches: List[RequestBatch] = []
        while len(self._pending) >= self.batch_size:
            batches.append(self._pop_batch(self.batch_size, now_ms))
        return batches

    def flush(self, now_ms: float = 0.0) -> Optional[RequestBatch]:
        """Emit a (possibly partial) batch with whatever is pending."""
        if not self._pending:
            return None
        return self._pop_batch(len(self._pending), now_ms)

    def _pop_batch(self, size: int, now_ms: float) -> RequestBatch:
        transactions = tuple(self._pending.popleft() for _ in range(size))
        batch_id = f"{self.owner_id}:assembled:{self._created_batches}"
        self._created_batches += 1
        created_at = min((t.created_at_ms for t in transactions), default=now_ms)
        return RequestBatch(
            batch_id=batch_id,
            transactions=transactions,
            created_at_ms=created_at,
            reply_to=self._reply_to or "",
        )

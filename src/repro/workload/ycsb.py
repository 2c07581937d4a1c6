"""YCSB-style workload generator.

Reproduces the paper's benchmarking configuration (Section IV,
"Configuration and Benchmarking"): a table holding 500 000 active
records, requests that are 90 % writes, keys drawn from a heavily skewed
Zipfian distribution (theta = 0.9), and request batches of 100.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.authenticator import Authenticator
from repro.workload.transactions import (
    Operation,
    OpType,
    RequestBatch,
    Transaction,
    shard_of_key,
    transaction_digest,
)
from repro.workload.zipfian import ZipfianGenerator


@dataclass(frozen=True)
class YcsbConfig:
    """Parameters of the YCSB workload.

    Attributes:
        num_records: rows in the replicated table (paper: 500 000).
        write_fraction: fraction of operations that are writes (paper: 0.9).
        zipf_theta: Zipfian skew factor (paper: 0.9).
        seed: RNG seed for reproducible workloads.
    """

    num_records: int = 500_000
    write_fraction: float = 0.9
    zipf_theta: float = 0.9
    seed: int = 42

    #: Read/write operations per client transaction, and the size in
    #: characters of a written value.  Constants, not fields.
    operations_per_txn = 1
    value_size = 16

    @classmethod
    def small(cls, seed: int = 42) -> "YcsbConfig":
        """A laptop-sized table for unit tests and examples."""
        return cls(num_records=1_000, seed=seed)


class YcsbWorkload:
    """Generates YCSB transactions and request batches."""

    def __init__(self, config: Optional[YcsbConfig] = None,
                 client_id: str = "client:pool",
                 authenticator: Optional[Authenticator] = None) -> None:
        self.config = config or YcsbConfig()
        self.client_id = client_id
        self.auth = authenticator
        self._zipf = ZipfianGenerator(
            num_items=self.config.num_records,
            theta=self.config.zipf_theta,
            seed=self.config.seed,
        )
        self._rng = random.Random(self.config.seed + 1)
        self._txn_numbers = itertools.count()
        self._batch_numbers = itertools.count()

    # -- table bootstrap -----------------------------------------------------------
    def initial_table(self, num_records: Optional[int] = None) -> Dict[str, str]:
        """Build the initial table every replica starts from.

        The paper initialises each replica with an identical copy of the
        YCSB table before the experiments.
        """
        count = num_records if num_records is not None else self.config.num_records
        return {self.key_for(i): f"value-{i}" for i in range(count)}

    @staticmethod
    def key_for(rank: int) -> str:
        return f"user{rank}"

    # -- transaction generation -------------------------------------------------------
    def _draw_operations(self, tag: int, shard: Optional[int] = None,
                         num_shards: int = 1) -> Tuple[Operation, ...]:
        """Draw one transaction's operations; writes carry ``w{tag}-``.

        With *shard* given every key routes to it and keeps its Zipfian
        popularity *within* the shard: the draw is the normal skewed draw,
        rejected until it lands there.
        """
        operations: List[Operation] = []
        for _ in range(self.config.operations_per_txn):
            if shard is None:
                rank = self._zipf.sample()
            else:
                rank = self._zipf.sample_where(
                    lambda r: shard_of_key(self.key_for(r), num_shards) == shard)
            key = self.key_for(rank)
            if self._rng.random() < self.config.write_fraction:
                value = f"w{tag}-" + "x" * self.config.value_size
                operations.append(Operation(OpType.WRITE, key, value))
            else:
                operations.append(Operation(OpType.READ, key))
        return tuple(operations)

    def _batch(self, count: int, created_at_ms: float, reply_to: str = "",
               shard: Optional[int] = None, num_shards: int = 1) -> RequestBatch:
        """Draw, number and sign *count* transactions in one loop, batched.

        Transactions are signed when the workload has an authenticator.
        The digest signed is the transaction's own, so it is kept as the
        transaction's memo: the primary's batch digest and every replica
        after it find it ready instead of canonicalising the operations a
        second time.
        """
        client_id = self.client_id
        draw = self._draw_operations
        sign = self.auth.signatures.sign_digest if self.auth is not None else None
        transactions: List[Transaction] = []
        append = transactions.append
        for number in itertools.islice(self._txn_numbers, count):
            txn_id = f"{client_id}:txn:{number}"
            operations = draw(number, shard, num_shards)
            if sign is None:
                append(Transaction(txn_id, client_id, operations,
                                   created_at_ms=created_at_ms))
                continue
            signed_over = transaction_digest(txn_id, client_id, operations)
            transaction = Transaction(txn_id, client_id, operations,
                                      sign(signed_over), created_at_ms)
            object.__setattr__(transaction, "_digest", signed_over)
            append(transaction)
        return RequestBatch(
            batch_id=f"{client_id}:batch:{next(self._batch_numbers)}",
            transactions=tuple(transactions), created_at_ms=created_at_ms,
            reply_to=reply_to)

    def next_batch(self, batch_size: int, created_at_ms: float = 0.0,
                   reply_to: str = "") -> RequestBatch:
        """Generate a batch of *batch_size* transactions."""
        return self._batch(batch_size, created_at_ms, reply_to)

    # -- sharded generation ---------------------------------------------------------
    def next_batch_for_shard(self, shard: int, num_shards: int, batch_size: int,
                             created_at_ms: float = 0.0) -> RequestBatch:
        """Generate a single-shard batch: every key routes to *shard*."""
        return self._batch(batch_size, created_at_ms, shard=shard,
                           num_shards=num_shards)

    def next_cross_shard_operations(self, shards: List[int], num_shards: int,
                                    created_at_ms: float = 0.0) -> Dict[int, Transaction]:
        """Generate one cross-shard transaction's per-shard write sets.

        Returns one single-shard :class:`Transaction` per touched shard —
        the shape 2PC needs, since each shard consensus-commits only its
        own slice of the transaction.  The slices share a transaction
        counter so their ids correlate (``...:txn:N/s0``, ``...:txn:N/s1``).
        """
        base = next(self._txn_numbers)
        return {
            shard: Transaction(f"{self.client_id}:txn:{base}/s{shard}",
                               self.client_id,
                               self._draw_operations(base, shard, num_shards),
                               created_at_ms=created_at_ms)
            for shard in shards
        }

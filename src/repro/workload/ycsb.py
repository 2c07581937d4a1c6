"""YCSB-style workload generator.

Reproduces the paper's benchmarking configuration (Section IV,
"Configuration and Benchmarking"): a table holding 500 000 active
records, requests that are 90 % writes, keys drawn from a heavily skewed
Zipfian distribution (theta = 0.9), and request batches of 100.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.crypto.authenticator import Authenticator
from repro.workload.transactions import (
    Operation,
    OpType,
    RequestBatch,
    Transaction,
    shard_of_key,
    signed_transaction,
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
        self._txn_counter = 0
        self._batch_counter = 0

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
    def next_transaction(self, created_at_ms: float = 0.0) -> Transaction:
        """Generate the next client transaction."""
        operations: List[Operation] = []
        for _ in range(self.config.operations_per_txn):
            key = self.key_for(self._zipf.sample())
            if self._rng.random() < self.config.write_fraction:
                value = f"w{self._txn_counter}-" + "x" * self.config.value_size
                operations.append(Operation(op_type=OpType.WRITE, key=key, value=value))
            else:
                operations.append(Operation(op_type=OpType.READ, key=key))
        txn_id = f"{self.client_id}:txn:{self._txn_counter}"
        self._txn_counter += 1
        if self.auth is not None:
            return signed_transaction(txn_id, self.client_id, tuple(operations),
                                      self.auth.sign, created_at_ms)
        return Transaction(
            txn_id=txn_id,
            client_id=self.client_id,
            operations=tuple(operations),
            created_at_ms=created_at_ms,
        )

    def next_batch(self, batch_size: int, created_at_ms: float = 0.0) -> RequestBatch:
        """Generate a batch of *batch_size* transactions."""
        transactions = tuple(
            self.next_transaction(created_at_ms=created_at_ms) for _ in range(batch_size)
        )
        batch_id = f"{self.client_id}:batch:{self._batch_counter}"
        self._batch_counter += 1
        return RequestBatch(batch_id=batch_id, transactions=transactions,
                            created_at_ms=created_at_ms)

    def batches(self, count: int, batch_size: int) -> Iterator[RequestBatch]:
        """Yield *count* consecutive batches."""
        for _ in range(count):
            yield self.next_batch(batch_size)

    # -- sharded generation ---------------------------------------------------------
    def next_transaction_in_shard(self, shard: int, num_shards: int,
                                  created_at_ms: float = 0.0) -> Transaction:
        """Generate a transaction whose every key routes to *shard*.

        Keys keep their Zipfian popularity *within* the shard: the draw is
        the normal skewed draw, rejected until it lands in the shard.
        """
        operations: List[Operation] = []
        for _ in range(self.config.operations_per_txn):
            rank = self._zipf.sample_where(
                lambda r: shard_of_key(self.key_for(r), num_shards) == shard)
            key = self.key_for(rank)
            if self._rng.random() < self.config.write_fraction:
                value = f"w{self._txn_counter}-" + "x" * self.config.value_size
                operations.append(Operation(op_type=OpType.WRITE, key=key, value=value))
            else:
                operations.append(Operation(op_type=OpType.READ, key=key))
        txn_id = f"{self.client_id}:txn:{self._txn_counter}"
        self._txn_counter += 1
        return Transaction(
            txn_id=txn_id,
            client_id=self.client_id,
            operations=tuple(operations),
            created_at_ms=created_at_ms,
        )

    def next_batch_for_shard(self, shard: int, num_shards: int, batch_size: int,
                             created_at_ms: float = 0.0) -> RequestBatch:
        """Generate a single-shard batch: every key routes to *shard*."""
        transactions = tuple(
            self.next_transaction_in_shard(shard, num_shards,
                                           created_at_ms=created_at_ms)
            for _ in range(batch_size)
        )
        batch_id = f"{self.client_id}:batch:{self._batch_counter}"
        self._batch_counter += 1
        return RequestBatch(batch_id=batch_id, transactions=transactions,
                            created_at_ms=created_at_ms)

    def next_cross_shard_operations(self, shards: List[int], num_shards: int,
                                    created_at_ms: float = 0.0) -> Dict[int, Transaction]:
        """Generate one cross-shard transaction's per-shard write sets.

        Returns one single-shard :class:`Transaction` per touched shard —
        the shape 2PC needs, since each shard consensus-commits only its
        own slice of the transaction.  The slices share a transaction
        counter so their ids correlate (``...:txn:N/s0``, ``...:txn:N/s1``).
        """
        base = self._txn_counter
        self._txn_counter += 1
        slices: Dict[int, Transaction] = {}
        for shard in shards:
            operations: List[Operation] = []
            for _ in range(self.config.operations_per_txn):
                rank = self._zipf.sample_where(
                    lambda r: shard_of_key(self.key_for(r), num_shards) == shard)
                key = self.key_for(rank)
                if self._rng.random() < self.config.write_fraction:
                    value = f"w{base}-" + "x" * self.config.value_size
                    operations.append(Operation(op_type=OpType.WRITE, key=key,
                                                value=value))
                else:
                    operations.append(Operation(op_type=OpType.READ, key=key))
            slices[shard] = Transaction(
                txn_id=f"{self.client_id}:txn:{base}/s{shard}",
                client_id=self.client_id,
                operations=tuple(operations),
                created_at_ms=created_at_ms,
            )
        return slices

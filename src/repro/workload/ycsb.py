"""YCSB-style workload generator.

Reproduces the paper's benchmarking configuration (Section IV,
"Configuration and Benchmarking"): a table holding 500 000 active
records, requests that are 90 % writes, keys drawn from a heavily skewed
Zipfian distribution (theta = 0.9), and request batches of 100.

A batch is generated one stage at a time, each stage taking the whole
batch: :meth:`~repro.workload.zipfian.ZipfianGenerator.sample_many` draws
its ranks, one loop draws the write coins, the operations are built
column-wise, :func:`~repro.workload.transactions.transaction_digests`
hashes its transactions and, for a signing client,
:meth:`~repro.crypto.signatures.SignatureScheme.sign_digests` signs their
digests.  Single-shard batches and cross-shard slices go through the same
stages.  ``tests/test_workload.py`` holds the stages to a generator that
draws, hashes and signs one transaction at a time (``tests/helpers.py``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.authenticator import Authenticator
from repro.crypto.hashing import build_columns
from repro.workload.transactions import (
    Operation,
    OpType,
    RequestBatch,
    Transaction,
    shard_of_key,
    transaction_digests,
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

    #: A rank's key, ``user{rank}``: the key format's one definition, and a
    #: C-level call (``str.format``), not a Python frame.
    key_for = staticmethod("user{}".format)

    # -- transaction generation -------------------------------------------------------
    def _transactions(self, numbers: List[int], created_at_ms: float,
                      shard: Optional[int] = None, num_shards: int = 1,
                      suffix: str = "", signed: bool = True) -> List[Transaction]:
        """Draw, hash and sign one transaction per number, a stage at a time.

        Each stage takes the whole list: the Zipfian ranks, then the write
        coins, then the operations (writes carry ``w{number}-``), then the
        transaction digests, then — when the workload has an authenticator
        and *signed* holds — the signatures over them.  Operations,
        transactions and signatures are built column-wise
        (:func:`~repro.crypto.hashing.build_columns`), not one constructor
        call each.  Ranks and coins come from two RNGs, so drawing every
        rank before the first coin draws each stream in the order one
        transaction at a time did.  With *shard* given every key routes to
        it and keeps its Zipfian popularity *within* the shard: the rank is
        the normal skewed draw, rejected until it lands there.  Each digest
        is kept as its transaction's memo: the signature covers it, and the
        primary's batch digest and every replica after it find it ready
        instead of canonicalising the operations again.
        """
        config, client_id, key_for = self.config, self.client_id, self.key_for
        per_txn = config.operations_per_txn
        where = None
        if shard is not None:
            def where(rank: int) -> bool:
                return shard_of_key(key_for(rank), num_shards) == shard
        keys = map(key_for, self._zipf.sample_many(len(numbers) * per_txn, where))
        coin, write_fraction = self._rng.random, config.write_fraction
        write, read, padding = OpType.WRITE, OpType.READ, "x" * config.value_size
        # ``zip(*[xs] * k)`` repeats each number once per operation of its
        # transaction; ``zip(*[iter(xs)] * k)`` groups the operations back.
        op_numbers = list(itertools.chain.from_iterable(zip(*[numbers] * per_txn)))
        writes = [coin() < write_fraction for _ in op_numbers]
        drawn = build_columns(
            Operation, len(op_numbers), key=keys,
            op_type=[write if is_write else read for is_write in writes],
            value=[f"w{number}-{padding}" if is_write else None
                   for number, is_write in zip(op_numbers, writes)])
        operations = list(zip(*[iter(drawn)] * per_txn))
        txn_ids = [f"{client_id}:txn:{number}{suffix}" for number in numbers]
        digests = transaction_digests(txn_ids, client_id, operations)
        signatures = (self.auth.signatures.sign_digests(digests)
                      if signed and self.auth is not None else itertools.repeat(None))
        return build_columns(
            Transaction, len(numbers), txn_id=txn_ids,
            client_id=itertools.repeat(client_id), operations=operations,
            signature=signatures, created_at_ms=itertools.repeat(created_at_ms),
            _digest=digests)

    def _batch(self, count: int, created_at_ms: float, reply_to: str = "",
               shard: Optional[int] = None, num_shards: int = 1) -> RequestBatch:
        """*count* fresh transactions, numbered in order, as one batch."""
        client_id = self.client_id
        transactions = self._transactions(
            list(itertools.islice(self._txn_numbers, count)), created_at_ms,
            shard, num_shards)
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
        They are drawn and hashed like a batch's transactions, and left
        unsigned.
        """
        base = next(self._txn_numbers)
        return {
            shard: self._transactions([base], created_at_ms, shard, num_shards,
                                      suffix=f"/s{shard}", signed=False)[0]
            for shard in shards
        }

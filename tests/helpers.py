"""Test helpers: a synchronous message router for sans-IO protocol nodes,
and the per-transaction YCSB generator the batch stages are held to.

The :class:`SyncRouter` delivers messages instantly and in FIFO order,
without the discrete-event simulator.  It is handy for unit tests that
drive a handful of replicas step by step and want to assert on exactly
which messages were produced.  Timers are collected but never fire unless
the test fires them explicitly.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.protocols.base import Broadcast, CancelTimer, Message, Send, SetTimer
from repro.workload.transactions import (
    Operation,
    OpType,
    RequestBatch,
    Transaction,
    shard_of_key,
    transaction_digest,
)
from repro.workload.zipfian import ZipfianGenerator


class SyncRouter:
    """Instant, loss-free message delivery between registered nodes."""

    def __init__(self) -> None:
        self.nodes: Dict[str, object] = {}
        self.replica_ids: List[str] = []
        self.queue = deque()
        self.delivered: List[Tuple[str, str, Message]] = []
        self.timers: Dict[Tuple[str, str], SetTimer] = {}
        self.dropped_links: set = set()
        self.now = 0.0

    def add_replica(self, node) -> None:
        self.nodes[node.node_id] = node
        self.replica_ids.append(node.node_id)

    def add_client(self, node) -> None:
        self.nodes[node.node_id] = node

    def drop_link(self, sender: str, receiver: str) -> None:
        """Silently drop every message from *sender* to *receiver*."""
        self.dropped_links.add((sender, receiver))

    def start_all(self) -> None:
        for node_id, node in self.nodes.items():
            self._apply(node_id, node.start(self.now))
        self.flush()

    def send(self, sender: str, receiver: str, message: Message) -> None:
        """Inject a message from outside the registered nodes."""
        self.queue.append((sender, receiver, message))

    def fire_timer(self, node_id: str, name: str) -> None:
        """Explicitly fire a previously requested timer."""
        timer = self.timers.pop((node_id, name), None)
        if timer is None:
            return
        node = self.nodes[node_id]
        self._apply(node_id, node.timer_fired(timer.name, timer.payload, self.now))
        self.flush()

    def pending_timers(self, node_id: str) -> List[str]:
        return [name for (owner, name) in self.timers if owner == node_id]

    def _apply(self, node_id: str, output) -> None:
        for action in output.actions:
            if isinstance(action, Send):
                self.queue.append((node_id, action.to, action.message))
            elif isinstance(action, Broadcast):
                for receiver in self.replica_ids:
                    if receiver == node_id and not action.include_self:
                        continue
                    self.queue.append((node_id, receiver, action.message))
            elif isinstance(action, SetTimer):
                self.timers[(node_id, action.name)] = action
            elif isinstance(action, CancelTimer):
                self.timers.pop((node_id, action.name), None)

    def flush(self, max_messages: int = 100_000) -> int:
        """Deliver queued messages until quiescence; returns the count."""
        count = 0
        while self.queue and count < max_messages:
            sender, receiver, message = self.queue.popleft()
            count += 1
            self.now += 0.001
            if (sender, receiver) in self.dropped_links:
                continue
            node = self.nodes.get(receiver)
            if node is None or getattr(node, "crashed", False):
                continue
            self.delivered.append((sender, receiver, message))
            self._apply(receiver, node.deliver(sender, message, self.now))
        return count


class PerTransactionYcsb:
    """YCSB generation one transaction at a time: a Zipfian draw per rank,
    then the write coin, then the transaction's digest and its signature.

    This is how :class:`~repro.workload.ycsb.YcsbWorkload` generated before
    each stage took a whole batch, kept as the reference those stages must
    equal draw for draw and byte for byte.  It takes the workload's config,
    client id and authenticator, seeds its two RNGs as the workload does and
    reads only the Zipfian generator's precomputed constants.
    """

    def __init__(self, config, client_id: str, authenticator=None) -> None:
        self.config = config
        self.client_id = client_id
        self.auth = authenticator
        self._zipf = ZipfianGenerator(config.num_records, config.zipf_theta,
                                      config.seed)
        self._zipf_rng = random.Random(config.seed)
        self._rng = random.Random(config.seed + 1)
        self._txn_numbers = itertools.count()
        self._batch_numbers = itertools.count()

    def next_draws(self) -> Tuple[float, float]:
        """The next uniform draw of the rank RNG and of the coin RNG."""
        return self._zipf_rng.random(), self._rng.random()

    def _sample(self) -> int:
        zipf = self._zipf
        if zipf.theta == 0.0:
            return self._zipf_rng.randrange(zipf.num_items)
        u = self._zipf_rng.random()
        uz = u * zipf._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** zipf.theta:
            return 1
        rank = int(zipf.num_items * ((zipf._eta * u - zipf._eta + 1.0) ** zipf._alpha))
        return min(rank, zipf.num_items - 1)

    def _sample_where(self, predicate, max_tries: int = 64) -> int:
        for _ in range(max_tries):
            rank = self._sample()
            if predicate(rank):
                return rank
        for rank in range(self._zipf.num_items):
            if predicate(rank):
                return rank
        raise ValueError("no rank satisfies the predicate")

    def _draw_operations(self, tag: int, shard: Optional[int] = None,
                         num_shards: int = 1) -> Tuple[Operation, ...]:
        operations: List[Operation] = []
        for _ in range(self.config.operations_per_txn):
            if shard is None:
                rank = self._sample()
            else:
                rank = self._sample_where(
                    lambda r: shard_of_key(f"user{r}", num_shards) == shard)
            key = f"user{rank}"
            if self._rng.random() < self.config.write_fraction:
                value = f"w{tag}-" + "x" * self.config.value_size
                operations.append(Operation(OpType.WRITE, key, value))
            else:
                operations.append(Operation(OpType.READ, key))
        return tuple(operations)

    def _batch(self, count: int, created_at_ms: float, reply_to: str = "",
               shard: Optional[int] = None, num_shards: int = 1) -> RequestBatch:
        client_id = self.client_id
        transactions = []
        for number in itertools.islice(self._txn_numbers, count):
            txn_id = f"{client_id}:txn:{number}"
            operations = self._draw_operations(number, shard, num_shards)
            if self.auth is None:
                transactions.append(Transaction(txn_id, client_id, operations,
                                                created_at_ms=created_at_ms))
                continue
            signed_over = transaction_digest(txn_id, client_id, operations)
            transaction = Transaction(txn_id, client_id, operations,
                                      self.auth.signatures.sign(signed_over),
                                      created_at_ms)
            object.__setattr__(transaction, "_digest", signed_over)
            transactions.append(transaction)
        return RequestBatch(
            batch_id=f"{client_id}:batch:{next(self._batch_numbers)}",
            transactions=tuple(transactions), created_at_ms=created_at_ms,
            reply_to=reply_to)

    def next_batch(self, batch_size: int, created_at_ms: float = 0.0,
                   reply_to: str = "") -> RequestBatch:
        return self._batch(batch_size, created_at_ms, reply_to)

    def next_batch_for_shard(self, shard: int, num_shards: int, batch_size: int,
                             created_at_ms: float = 0.0) -> RequestBatch:
        return self._batch(batch_size, created_at_ms, shard=shard,
                           num_shards=num_shards)

    def next_cross_shard_operations(self, shards: List[int], num_shards: int,
                                    created_at_ms: float = 0.0) -> Dict[int, Transaction]:
        base = next(self._txn_numbers)
        return {
            shard: Transaction(f"{self.client_id}:txn:{base}/s{shard}",
                               self.client_id,
                               self._draw_operations(base, shard, num_shards),
                               created_at_ms=created_at_ms)
            for shard in shards
        }

"""Transactions and request batches exchanged between clients and replicas.

A :class:`Transaction` is an ordered list of read/write operations over
the replicated key-value table (the YCSB table in the paper).  Clients
sign transactions (``<T>_c`` in the paper's notation) so that a malicious
primary cannot forge requests; the signature travels with the transaction
inside every proposal.

A :class:`RequestBatch` groups ``batch_size`` transactions into one
consensus slot, mirroring RESILIENTDB's batching (Section III).

For multi-group deployments the keyspace is partitioned across consensus
groups by :func:`shard_of_key`: a pure function of the key bytes, so every
client, replica and auditor assigns the same shard to the same key with no
directory service in the loop.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import sha256
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import digest_fields_and_blobs, encode_head, encode_str
from repro.crypto.signatures import Signature


def shard_of_key(key: str, num_shards: int) -> int:
    """Deterministic key -> shard routing.

    CRC32 of the key bytes modulo the shard count: stable across processes
    and Python versions (unlike ``hash``), cheap enough to call per
    operation, and uniform enough that YCSB's ``user{rank}`` keys spread
    evenly.  ``num_shards <= 1`` always routes to shard 0.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % num_shards


class OpType(enum.Enum):
    """Operation kinds supported by the YCSB-style store."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class Operation:
    """A single read or write against the replicated table."""

    op_type: OpType
    key: str
    value: Optional[str] = None

    def canonical_bytes(self) -> bytes:
        # Injective, since a client's signature covers these bytes: the
        # key's length says where the key ends, whatever separators key and
        # value hold, and an absent value differs from an empty one.
        value = "" if self.value is None else f"|{self.value}"
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # descriptor that costs a Python frame per call.
        return f"{self.op_type._value_}|{len(self.key)}|{self.key}{value}".encode("utf-8")

    def shard(self, num_shards: int) -> int:
        """The consensus group this operation's key routes to."""
        return shard_of_key(self.key, num_shards)


#: ``digest("txn", txn_id, client_id, [op bytes])``'s bytes up to the
#: transaction id: the four-element argument tuple and its constant tag.
_TXN_HEAD = encode_head(4) + encode_str("txn")

#: The client field of a transaction's digest, encoded once per client id
#: (a pool issues every transaction under one); bounded so a process that
#: runs many deployments does not keep every id it ever saw.
_client_field = lru_cache(maxsize=256)(encode_str)


def transaction_digests(txn_ids: Sequence[str], client_id: str,
                        operations: Sequence[Tuple[Operation, ...]]) -> List[bytes]:
    """The bytes a client signs and every replica checks, for each of one
    client's transactions: the one definition of a transaction's digest.

    The digest of ``txn_ids[i]`` with ``operations[i]`` equals
    ``digest("txn", txn_id, client_id, [op.canonical_bytes() ...])`` byte
    for byte.  The head and the client field are written once; each
    transaction encodes only its id and its operations, in ``digest``'s
    ``str`` (``S``), list (``T``) and ``bytes`` (``B``) element encodings.
    """
    client = _client_field(client_id)
    canonical = Operation.canonical_bytes
    digests: List[bytes] = []
    append = digests.append
    for txn_id, ops in zip(txn_ids, operations):
        raw_id = txn_id.encode("utf-8")
        parts = [_TXN_HEAD, b"S", len(raw_id).to_bytes(8, "big"), raw_id,
                 client, b"T", len(ops).to_bytes(8, "big")]
        for blob in map(canonical, ops):
            parts += (b"B", len(blob).to_bytes(8, "big"), blob)
        append(sha256(b"".join(parts)).digest())
    return digests


def transaction_digest(txn_id: str, client_id: str,
                       operations: Tuple[Operation, ...]) -> bytes:
    """One transaction's :func:`transaction_digests`."""
    return transaction_digests((txn_id,), client_id, (operations,))[0]


@dataclass(frozen=True, slots=True)
class Transaction:
    """A client transaction ``<T>_c``.

    Attributes:
        txn_id: unique identifier chosen by the client.
        client_id: identifier of the issuing client (or client pool).
        operations: the read/write operations to execute.
        signature: the client's digital signature over the transaction,
            or ``None`` for cost-modelled bulk workloads.
        created_at_ms: client-side creation timestamp (virtual time),
            used to measure end-to-end latency.
    """

    txn_id: str
    client_id: str
    operations: Tuple[Operation, ...] = ()
    signature: Optional[Signature] = None
    created_at_ms: float = 0.0
    #: Memo of :meth:`digest`, a slot like the fields so a transaction
    #: carries no instance dict; not part of its value.
    _digest: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)

    def digest(self) -> bytes:
        # Memoised: a transaction is immutable, but its digest is requested
        # once per replica per protocol phase.  ``object.__setattr__`` is the
        # sanctioned way to initialise a cache slot on a frozen dataclass.
        cached = self._digest
        if cached is None:
            cached = transaction_digest(self.txn_id, self.client_id,
                                        self.operations)
            object.__setattr__(self, "_digest", cached)
        return cached

    def canonical_bytes(self) -> bytes:
        return self.digest()

    def touched_shards(self, num_shards: int) -> Tuple[int, ...]:
        """Sorted distinct shards this transaction's keys route to.

        A transaction with no operations (zero-payload workloads) touches
        shard 0 by convention, so routing never has to special-case it.
        """
        if not self.operations:
            return (0,)
        return tuple(sorted({shard_of_key(op.key, num_shards)
                             for op in self.operations}))


@dataclass(frozen=True)
class RequestBatch:
    """A batch of transactions proposed as one consensus slot.

    Attributes:
        batch_id: unique identifier (assigned by the batcher or client pool).
        transactions: the batched transactions, in execution order.
        created_at_ms: time the batch was formed (latency measurement).
        reply_to: client identifier replicas reply to.  When empty,
            replicas reply to every distinct ``client_id`` in the batch.
        logical_size: for synthetic (cost-modelled) batches that carry no
            transaction objects, the number of transactions the batch
            represents; ``len(batch)`` reports it.
    """

    batch_id: str
    transactions: Tuple[Transaction, ...]
    created_at_ms: float = 0.0
    reply_to: str = ""
    logical_size: int = 0

    #: Non-empty on cross-shard 2PC control records (see
    #: ``repro.workload.xshard.ControlBatch``).  A plain class attribute —
    #: not a dataclass field — so ordinary batches pay nothing for it and
    #: the replica execution path can gate on ``batch.control_phase`` with
    #: a single attribute load.
    control_phase = ""

    def __len__(self) -> int:
        return len(self.transactions) if self.transactions else self.logical_size

    def digest(self) -> bytes:
        # Memoised for the same reason as Transaction.digest: every replica
        # hashes the proposed batch on PROPOSE and again on CERTIFY-style
        # phases, and the batch never changes after construction.
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest_fields_and_blobs(
                ("batch", self.batch_id),
                [txn.digest() for txn in self.transactions])
            object.__setattr__(self, "_digest", cached)
        return cached

    def canonical_bytes(self) -> bytes:
        return self.digest()

    @property
    def client_ids(self) -> Tuple[str, ...]:
        """Distinct client identifiers appearing in the batch (order kept)."""
        return tuple(dict.fromkeys(txn.client_id for txn in self.transactions))

    def touched_shards(self, num_shards: int) -> Tuple[int, ...]:
        """Sorted distinct shards touched by any transaction in the batch."""
        shards = set()
        for txn in self.transactions:
            shards.update(txn.touched_shards(num_shards))
        return tuple(sorted(shards)) if shards else (0,)


def make_no_op_batch(batch_id: str, client_id: str, size: int,
                     created_at_ms: float = 0.0) -> RequestBatch:
    """Create a batch of empty (zero-payload) transactions.

    Used by the zero-payload experiments (Figures 9(e)-(h)): replicas still
    execute ``size`` dummy instructions but the proposal carries no data.
    """
    transactions = tuple(
        Transaction(txn_id=f"{batch_id}:{i}", client_id=client_id,
                    operations=(), created_at_ms=created_at_ms)
        for i in range(size)
    )
    return RequestBatch(batch_id=batch_id, transactions=transactions,
                        created_at_ms=created_at_ms, reply_to=client_id)


def make_synthetic_batch(batch_id: str, client_id: str, size: int,
                         created_at_ms: float = 0.0) -> RequestBatch:
    """Create a cost-modelled batch that carries no transaction objects.

    Large-scale simulator benchmarks use these to avoid allocating
    ``batch_size`` transaction objects per consensus slot; the batch still
    reports ``len(batch) == size`` so throughput accounting is unchanged.
    """
    return RequestBatch(batch_id=batch_id, transactions=(),
                        created_at_ms=created_at_ms, reply_to=client_id,
                        logical_size=size)

"""Collision-resistant digests over arbitrary structured values.

The paper assumes a hash function ``D(.)`` mapping an arbitrary value to a
constant-size digest (Section II-A) and uses SHA-256 in RESILIENTDB
(Section IV-C).  Protocol messages here are Python dataclasses and tuples,
so the helpers below canonicalise structured values into bytes before
hashing them.

The encoding is deliberately simple and deterministic: it tags every
element with its type so that, e.g., ``(1, "2")`` and ``("1", 2)`` never
collide, and it recurses into tuples, lists and dicts (dicts are sorted by
key).  Custom objects may expose ``canonical_bytes()``.

Canonicalisation sits on the consensus hot path (every proposal, vote and
ledger block goes through it), so the common cases — bytes, str, small
ints, tuples — dispatch through a per-type table instead of an isinstance
cascade, with precomputed length prefixes and small-integer encodings.
The produced bytes are identical to the original cascade's.

Two entry points, one encoding
------------------------------
:func:`digest` always canonicalises and hashes.  :func:`shared_digest`
returns the same 32 bytes through one bounded, process-wide LRU memo,
because a consensus value is hashed by every replica of a cluster: at
n=32 the proposal digest, the threshold payload digest, the block hash
and the result digest of one batch are each computed 32 times over one
identical flat tuple.  A call site may use ``shared_digest`` when the
digest is

* *pure* — a function of the arguments alone (it is: nothing here reads
  replica state);
* *flat* — its arguments are ``bytes``/``str``/``int``/``bool``/``None``
  or tuples of ``bytes``/``str``/``None`` (anything else is hashed
  unmemoised, so routing it through the memo buys nothing);
* *identical across replicas* — all n replicas ask for the same values,
  so n-1 of the n calls are hits.  A digest only one node computes (the
  Zyzzyva primary's history chain, a client's transaction digest) or one
  that embeds the caller's identity stays on ``digest``: it would only
  evict entries that are shared.

The memo is keyed on the values themselves, never on who asks or on a
slot number alone, so a replica that executes a different batch at the
same sequence — Byzantine or merely diverged — asks for a different key
and gets its own digest.  Only host time is saved: the simulated cost of
hashing is charged by the caller (``charge(CryptoOp.HASH)``) whether or
not the memo hits, so virtual time and every fingerprint are those of
the unmemoised code.

``digest`` itself is left raw because most of its callers hash a value
once (``Transaction``/``RequestBatch`` keep their digest on the object,
including the signed copy, which is handed the digest it was signed over;
MACs and signatures bind the sender) and a miss costs half again as much
as a plain call; memoising it would also hide the cost the hashing
microbenchmarks exist to measure.

Fixed-shape encoders
--------------------
Each client transaction is hashed twice over a shape that never varies,
and a client pool hashes a whole batch's transactions at each stage:
:func:`~repro.workload.transactions.transaction_digests` (``("txn", id,
client, [op bytes])`` for each transaction), then the client's signatures
over those 32-byte digests through :func:`digests_of_bytes`
(:meth:`~repro.crypto.signatures.SignatureScheme.sign_digests`).  The
transaction digest writes its constant head once — the tuple head and
the ``"txn"`` tag (:func:`encode_head`, :func:`encode_str`) — and its
client field once per batch, so each transaction encodes only its id and
its operations.  The batch digest's ``("batch", id, [txn digests])`` and
a batch's result fold, ``("results", [result digests])``, go through
:func:`digest_fields_and_blobs`; a whole table's ``("store", sorted
((key, value), ...))``, which a checkpoint's state digest covers, through
:func:`~repro.ledger.store.table_digest`.  All of them write
:func:`digest`'s bytes directly rather than dispatch per element; they
are not a second encoding.  ``tests/test_crypto_hashing.py::
TestFixedShapes`` holds each to ``digest`` over arbitrary unicode and
payloads past the cached length prefixes, ``tests/test_crypto_primitives.py``
holds ``sign_digests`` to ``sign``, and ``GOLDEN_BYTES`` in
``tests/test_determinism.py`` pins the bytes themselves.  The generic
``digest`` and ``SignatureScheme.sign`` do no type sniffing for them.
A :func:`shared_digest` miss writes the same bytes through
``_memo_canon``, which checks memoisability as it encodes;
``tests/test_hashing.py::TestExactness`` holds it to ``digest`` over
nested values.

A really executed batch's result digest is not asked of this module per
transaction: the replicas of a deployment execute through one memo keyed
on the table's version and the batch
(:class:`~repro.ledger.execution.ExecutionMemo`), whose miss hashes each
transaction's result once through the fixed-shape
:func:`~repro.ledger.store.result_digest` (``("result", id, ((key,
value), ...), writes)``), held to ``digest`` by the same test class.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Precomputed 8-byte big-endian length prefixes for short payloads.
_LEN_PREFIX = tuple(i.to_bytes(8, "big") for i in range(512))
_LEN_CACHED = len(_LEN_PREFIX)


def _len_prefix(n: int) -> bytes:
    return _LEN_PREFIX[n] if n < _LEN_CACHED else n.to_bytes(8, "big")


def _canon_bytes(value: bytes) -> bytes:
    return b"B" + _len_prefix(len(value)) + value


def _canon_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return b"S" + _len_prefix(len(raw)) + raw


def _canon_bool(value: bool) -> bytes:
    return b"L1" if value else b"L0"


def _canon_int(value: int) -> bytes:
    if 0 <= value < _INT_CACHED:
        return _INT_CACHE[value]
    raw = str(value).encode("ascii")
    return b"I" + _len_prefix(len(raw)) + raw


def _canon_float(value: float) -> bytes:
    raw = repr(value).encode("ascii")
    return b"F" + _len_prefix(len(raw)) + raw


def _canon_none(value: None) -> bytes:
    return b"N"


def _canon_sequence(value: Any) -> bytes:
    # The per-element dispatch of ``_canonical_bytes`` is repeated here so
    # an element costs one Python frame, not two: this loop is what the
    # unmemoisable ``Transaction``/``RequestBatch`` digests spend time in.
    parts = [b"T", _len_prefix(len(value))]
    append = parts.append
    handlers = _DISPATCH
    for item in value:
        handler = handlers.get(item.__class__)
        append(handler(item) if handler is not None
               else _canonical_bytes_slow(item))
    return b"".join(parts)


def _canon_dict(value: Dict[Any, Any]) -> bytes:
    items = sorted(value.items(), key=lambda kv: repr(kv[0]))
    parts = [b"D", _len_prefix(len(items))]
    append = parts.append
    canonical = _canonical_bytes
    for key, item in items:
        append(canonical(key))
        append(canonical(item))
    return b"".join(parts)


#: Exact-type dispatch for the hot cases.  ``bool`` precedes ``int`` in the
#: fallback cascade; here exact ``type()`` keys make the distinction free.
_DISPATCH: Dict[type, Callable[[Any], bytes]] = {
    bytes: _canon_bytes,
    str: _canon_str,
    bool: _canon_bool,
    int: _canon_int,
    float: _canon_float,
    type(None): _canon_none,
    tuple: _canon_sequence,
    list: _canon_sequence,
    dict: _canon_dict,
}

#: Precomputed full encodings for small non-negative integers (sequence
#: numbers, views, batch sizes — the overwhelming majority of ints hashed).
_INT_CACHE = tuple(
    b"I" + _len_prefix(len(str(i))) + str(i).encode("ascii")
    for i in range(4096)
)
_INT_CACHED = len(_INT_CACHE)


def _canonical_bytes_slow(value: Any) -> bytes:
    """Fallback cascade for subclasses and custom objects.

    Mirrors the original isinstance-ordered encoding exactly (bool before
    int, tuple/list together, then dict, then ``canonical_bytes()`` duck
    typing, finally ``repr``).
    """
    if isinstance(value, bytes):
        return _canon_bytes(value)
    if isinstance(value, str):
        return _canon_str(value)
    if isinstance(value, bool):
        return _canon_bool(value)
    if isinstance(value, int):
        return _canon_int(value)
    if isinstance(value, float):
        return _canon_float(value)
    if value is None:
        return b"N"
    if isinstance(value, (tuple, list)):
        return _canon_sequence(value)
    if isinstance(value, dict):
        return _canon_dict(value)
    canonical = getattr(value, "canonical_bytes", None)
    if callable(canonical):
        raw = canonical()
        return b"O" + _len_prefix(len(raw)) + raw
    raw = repr(value).encode("utf-8")
    return b"R" + _len_prefix(len(raw)) + raw


def _canonical_bytes(value: Any) -> bytes:
    """Serialise *value* into a canonical byte string."""
    handler = _DISPATCH.get(value.__class__)
    if handler is not None:
        return handler(value)
    return _canonical_bytes_slow(value)


def digest(*values: Any) -> bytes:
    """Return the 32-byte SHA-256 digest of the canonical encoding of *values*.

    Multiple arguments are hashed as a tuple, mirroring the paper's
    ``D(k || v || <T>_c)`` concatenation notation.
    """
    return hashlib.sha256(_canon_sequence(values)).digest()


# -- fixed shapes -------------------------------------------------------------
# A transaction's digest, its batch's digest and its client's signature over
# it have shapes that never vary, so their writers produce :func:`digest`'s
# encoding of the shape directly instead of dispatching on every element's
# class.  Length prefixes are ``int.to_bytes`` calls: C, not a Python frame
# each.

#: ``digest``'s encoding of one ``str`` element, for the parts of a fixed
#: shape its writer encodes once and keeps.
encode_str = _canon_str


def encode_head(length: int) -> bytes:
    """``digest``'s encoding of a tuple or list of *length* elements, up to
    its first element."""
    return b"T" + _len_prefix(length)


def build_columns(cls: type, count: int, **columns: Iterable[Any]) -> List[Any]:
    """*count* instances of the slotted dataclass *cls*, built column-wise:
    instance ``i`` holds the ``i``-th value of each column.

    What the digests above cover is generated a batch at a time, and
    ``cls(...)`` runs an ``__init__`` frame per object (a frozen one
    through ``object.__setattr__`` per field).  Here each object is an
    ``object.__new__`` and each field one slot descriptor's ``__set__``
    mapped over its column, so no default or ``__post_init__`` applies:
    *columns* must name exactly the fields of ``dataclasses.fields(cls)``,
    ``init=False`` ones included, and each must yield *count* values.

    Raises:
        TypeError: if the column names are not exactly *cls*'s fields.
    """
    fields = {field.name for field in dataclasses.fields(cls)}
    if columns.keys() != fields:
        raise TypeError(f"{cls.__name__} columns {sorted(columns)} are not "
                        f"its fields {sorted(fields)}")
    objects = list(map(object.__new__, repeat(cls, count)))
    for name, column in columns.items():
        deque(map(cls.__dict__[name].__set__, objects, column), maxlen=0)
    return objects


#: ``digest`` of a one-element argument tuple holding ``bytes``, up to the
#: element's length prefix.
_ONE_BYTES_HEAD = b"T" + _len_prefix(1) + b"B"


def digests_of_bytes(values: Iterable[bytes]) -> List[bytes]:
    """``[digest(value) for value in values]`` for ``bytes`` values, byte for
    byte, in one loop."""
    sha256, head = hashlib.sha256, _ONE_BYTES_HEAD
    return [sha256(head + len(value).to_bytes(8, "big") + value).digest()
            for value in values]


def digest_fields_and_blobs(fields: Tuple[str, ...], blobs: List[bytes]) -> bytes:
    """``digest(*fields, blobs)`` for ``str`` *fields* and a list of ``bytes``,
    byte for byte."""
    parts = [b"T", (len(fields) + 1).to_bytes(8, "big")]
    append = parts.append
    for field in fields:
        raw = field.encode("utf-8")
        append(b"S" + len(raw).to_bytes(8, "big") + raw)
    append(b"T" + len(blobs).to_bytes(8, "big"))
    for blob in blobs:
        append(b"B" + len(blob).to_bytes(8, "big") + blob)
    return hashlib.sha256(b"".join(parts)).digest()


#: Entries the :func:`shared_digest` memo holds before the least recently
#: used one is evicted.  A value is asked for by every replica within a
#: few virtual milliseconds and then never again, so the working set is
#: the few digests of each batch in the client pipeline (16 outstanding
#: per pool), not the run.
SHARED_DIGEST_MEMO_SIZE = 4096

# Memoisable values are those whose equals always canonicalise to the same
# bytes: ``bytes``, ``str``, ``None`` and tuples of them anywhere, ``bool``
# and ``int`` only as immediate arguments, where ``typed=True`` keys the
# memo on their class (inside a tuple ``1``, ``True`` and ``1.0`` would
# share a key).  ``float`` never is (``0.0 == -0.0``, but their ``repr``
# differs), nor is a custom object, whose equality need not cover its
# ``canonical_bytes()``/``repr``.

def _memo_canon(values: tuple, nested: bool = False) -> Optional[bytes]:
    """:func:`digest`'s encoding of *values*, or ``None`` when they are not
    memoisable: the check and the canonicalisation in one pass."""
    parts = [b"T", _len_prefix(len(values))]
    append = parts.append
    for value in values:
        cls = value.__class__
        if cls is str:
            raw = value.encode("utf-8")
            append(b"S" + _len_prefix(len(raw)) + raw)
        elif cls is tuple:
            inner = _memo_canon(value, True)
            if inner is None:
                return None
            append(inner)
        elif cls is bytes:
            append(b"B" + _len_prefix(len(value)) + value)
        elif value is None:
            append(b"N")
        elif nested or (cls is not int and cls is not bool):
            return None
        else:
            append(_DISPATCH[cls](value))
    return b"".join(parts)


@lru_cache(maxsize=SHARED_DIGEST_MEMO_SIZE, typed=True)
def flat_digest(*values: Any) -> bytes:
    """:func:`shared_digest` of values known to be memoisable (else it
    raises ``TypeError``): the memo itself, so a hit runs no Python frame."""
    # Runs on a miss only.  A hit is a call whose arguments equal, class
    # for class, arguments that passed this check, and the check admits
    # only values whose equals canonicalise identically - so a hit never
    # returns another value's digest.  A raise is not cached.
    encoded = _memo_canon(values)
    if encoded is None:
        raise TypeError("not memoisable")
    return hashlib.sha256(encoded).digest()


def shared_digest(*values: Any) -> bytes:
    """:func:`digest`, byte for byte, memoised across the whole process.

    For digests every replica of a cluster computes over the same flat
    values (see the module docstring for which call sites qualify).
    Arguments are memoised when each is ``bytes``, ``str``, ``bool``,
    ``int``, ``None`` or a tuple of ``bytes``/``str``/``None``/such
    tuples; any other call - every unhashable argument included - falls
    through to :func:`digest`.
    """
    try:
        return flat_digest(*values)
    except TypeError:
        return digest(*values)


#: ``functools`` statistics and reset of the one memo.  ``misses`` counts
#: the distinct values hashed since the last clear: a host-independent
#: work counter (``repro.bench.perf`` records it per row).
shared_digest.cache_info = flat_digest.cache_info
shared_digest.cache_clear = flat_digest.cache_clear

"""Every ``canonical_bytes`` in ``src/`` is injective.

``digest`` hashes a custom object through its ``canonical_bytes()``, and a
signature or MAC over a value covers those bytes, so two different values
that encode alike are one value to every check built on them.  ``Operation``
once joined ``type|key|value`` and let ``("a|b", "c")`` pose as
``("a", "b|c")``; these properties hold each encoding to the value it
identifies, drawn from alphabets small enough (separators included) that a
boundary a field can move shows up in almost every example.  An encoding
that is a digest (``Transaction``, ``RequestBatch``) is held to the fields
it covers, not to its object's other attributes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import _canonical_bytes
from repro.crypto.mac import MacTag
from repro.crypto.signatures import Signature
from repro.crypto.threshold import SignatureShare, ThresholdSignature
from repro.workload.transactions import Operation, OpType, RequestBatch, Transaction

#: Fields that hold the separators the old encodings used.
_text = st.text(alphabet="a|1,", max_size=3)
_blob = st.lists(st.sampled_from(b"a|1,"), max_size=3).map(bytes)
_ints = st.integers(min_value=-2, max_value=12)

_operation = st.tuples(st.sampled_from(list(OpType)), _text, st.none() | _text)
_transaction = st.tuples(_text, _text, st.lists(_operation, max_size=2).map(tuple))
_batch = st.tuples(_text, st.lists(_transaction, max_size=2).map(tuple))


def assert_injective(values, encode, identity=lambda value: value) -> None:
    """No two *values* of different identity share an encoding."""
    owners = {}
    for value in values:
        raw = encode(value)
        owner = owners.setdefault(raw, value)
        assert identity(owner) == identity(value), (
            f"{owner!r} and {value!r} both encode to {raw!r}")


def _many(strategy):
    return given(st.lists(strategy, min_size=2, max_size=40))


def _make_transaction(fields) -> Transaction:
    txn_id, client_id, operations = fields
    return Transaction(txn_id, client_id, tuple(Operation(*op) for op in operations))


class TestSignedAndAuthenticated:
    @settings(max_examples=200, deadline=None)
    @_many(st.tuples(_text, _text, _blob))
    def test_mac_tag(self, fields):
        assert_injective(fields, lambda f: MacTag(*f).canonical_bytes())

    @settings(max_examples=200, deadline=None)
    @_many(st.tuples(_text, _blob, _blob))
    def test_signature(self, fields):
        assert_injective(fields, lambda f: Signature(*f).canonical_bytes())

    @settings(max_examples=200, deadline=None)
    @_many(st.tuples(_ints, _blob, _ints))
    def test_signature_share(self, fields):
        assert_injective(fields, lambda f: SignatureShare(*f).canonical_bytes())

    @settings(max_examples=200, deadline=None)
    @_many(st.tuples(_blob, _ints, st.lists(_ints, max_size=3).map(tuple)))
    def test_threshold_signature(self, fields):
        assert_injective(fields,
                         lambda f: ThresholdSignature(*f).canonical_bytes())


class TestRequests:
    @settings(max_examples=200, deadline=None)
    @_many(_operation)
    def test_operation(self, fields):
        assert_injective(fields, lambda f: Operation(*f).canonical_bytes())

    @settings(max_examples=100, deadline=None)
    @_many(_transaction)
    def test_transaction(self, fields):
        assert_injective(fields,
                         lambda f: _make_transaction(f).canonical_bytes())

    @settings(max_examples=100, deadline=None)
    @_many(_batch)
    def test_request_batch(self, fields):
        def encode(batch_fields):
            batch_id, transactions = batch_fields
            return RequestBatch(batch_id, tuple(
                map(_make_transaction, transactions))).canonical_bytes()

        assert_injective(fields, encode)


def _identity(value):
    """What the generic encoding identifies: type and value, with a list
    and a tuple alike (both are sequences to it) and a dict by its items."""
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(map(_identity, value)))
    if isinstance(value, dict):
        return ("dict", frozenset((_identity(k), _identity(v))
                                  for k, v in value.items()))
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


_value = st.recursive(
    st.none() | st.booleans() | _ints | st.integers()
    | st.floats(allow_nan=False) | _text | _blob,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_text | _ints, inner, max_size=2)),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@_many(_value)
def test_generic_encoding(values):
    assert_injective(values, _canonical_bytes, identity=_identity)

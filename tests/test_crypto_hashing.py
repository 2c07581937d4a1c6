"""Tests for repro.crypto.hashing: canonical digests over structured values."""

from hypothesis import example, given, strategies as st

from repro.crypto.hashing import (
    digest,
    digest_fields_and_blobs,
    digests_of_bytes,
)
from repro.ledger.store import result_digest, table_digest
from repro.workload.transactions import (
    Operation,
    OpType,
    transaction_digest,
    transaction_digests,
)


class TestDigestBasics:
    def test_digest_is_32_bytes(self):
        assert len(digest("hello")) == 32

    def test_same_input_same_digest(self):
        assert digest("a", 1, b"x") == digest("a", 1, b"x")

    def test_different_inputs_differ(self):
        assert digest("a") != digest("b")

    def test_multiple_args_equivalent_to_unpacking(self):
        assert digest(1, 2) == digest(*(1, 2))

    def test_argument_order_matters(self):
        assert digest(1, 2) != digest(2, 1)


class TestTypeTagging:
    """The canonical encoding must not confuse values of different types."""

    def test_int_vs_string(self):
        assert digest(1) != digest("1")

    def test_bytes_vs_string(self):
        assert digest(b"abc") != digest("abc")

    def test_bool_vs_int(self):
        assert digest(True) != digest(1)

    def test_none_vs_empty_string(self):
        assert digest(None) != digest("")

    def test_nested_structures(self):
        assert digest([1, [2, 3]]) != digest([1, 2, 3])

    def test_dict_ordering_is_canonical(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_dict_vs_tuple(self):
        assert digest({"a": 1}) != digest(("a", 1))

    def test_object_with_canonical_bytes(self):
        class Thing:
            def canonical_bytes(self):
                return b"thing-bytes"

        assert digest(Thing()) == digest(Thing())


@given(st.lists(st.one_of(st.integers(), st.text(), st.binary(), st.booleans(),
                          st.none()), max_size=8))
def test_digest_deterministic_property(values):
    """Hashing the same structured value twice always gives the same digest."""
    assert digest(*values) == digest(*values)


@given(st.text(), st.text())
def test_distinct_strings_rarely_collide(a, b):
    """Distinct inputs produce distinct digests (collision resistance proxy)."""
    if a != b:
        assert digest(a) != digest(b)


class TestFixedShapes:
    """The fixed-shape encoders write :func:`digest`'s bytes directly; they
    must be those bytes for every value of their shape, long payloads past
    the cached length prefixes included."""

    @given(st.lists(st.binary(max_size=600), max_size=4))
    def test_digests_of_bytes_is_digest(self, values):
        assert digests_of_bytes(values) == [digest(value) for value in values]

    @given(st.lists(st.text(max_size=600), max_size=4),
           st.lists(st.binary(max_size=600), max_size=6))
    def test_fields_and_blobs_is_digest(self, fields, blobs):
        assert digest_fields_and_blobs(tuple(fields), blobs) == digest(*fields, blobs)

    @given(st.text(max_size=600), st.text(max_size=600), st.lists(st.tuples(
        st.sampled_from(OpType), st.text(), st.none() | st.text()), max_size=6))
    def test_transaction_digest_is_digest(self, txn_id, client_id, ops):
        """Also on the second call for a client, whose field is kept."""
        operations = tuple(Operation(*op) for op in ops)
        expected = digest(
            "txn", txn_id, client_id, [op.canonical_bytes() for op in operations])
        assert transaction_digest(txn_id, client_id, operations) == expected
        assert transaction_digest(txn_id, client_id, operations) == expected

    @given(st.text(max_size=600), st.lists(st.tuples(st.text(max_size=600), st.lists(
        st.tuples(st.sampled_from(OpType), st.text(max_size=600),
                  st.none() | st.text(max_size=600)), max_size=3)), max_size=4))
    def test_transaction_digests_are_each_digest(self, client_id, transactions):
        """A batch of one client's transactions, hashed in one call, is each
        transaction's digest in order; none of them is a batch-wide value."""
        txn_ids = [txn_id for txn_id, _ in transactions]
        operations = [tuple(Operation(*op) for op in ops) for _, ops in transactions]
        assert transaction_digests(txn_ids, client_id, operations) == [
            digest("txn", txn_id, client_id, [op.canonical_bytes() for op in ops])
            for txn_id, ops in zip(txn_ids, operations)]

    @given(st.dictionaries(st.text(max_size=600), st.text(max_size=600), max_size=6))
    @example({})
    @example({"k" * 600: "ü" * 300, "user1": ""})
    @example({f"user{i}": f"value-{i}" for i in range(600)})
    def test_table_digest_is_digest(self, table):
        """Over unicode tables, empty ones and keys or values past the cached
        length prefixes included: the one digest of a table, which a
        checkpoint's state digest and a state-transfer check both use."""
        assert table_digest(table) == digest("store", sorted(table.items()))

    @given(st.text(max_size=600), st.lists(st.tuples(
        st.text(max_size=600), st.none() | st.text(max_size=600)), max_size=4),
        st.integers(min_value=0, max_value=10**20))
    def test_result_digest_is_digest(self, txn_id, reads, writes):
        assert result_digest(txn_id, tuple(reads), writes) == digest(
            "result", txn_id, tuple(reads), writes)

"""Tests for the shared digest memo (``repro.crypto.hashing.shared_digest``).

Three properties: it returns ``digest``'s bytes whatever is already in
the memo (exactness), the work it leaves is per value and not per
replica (sharing), and a replica whose input differs never receives
another replica's digest (divergence).
"""

import json
import os

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import SHARED_DIGEST_MEMO_SIZE, digest, shared_digest
from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.scenarios import MATRIX_PROTOCOLS, ScenarioParams, run_scenario
from repro.ledger.blockchain import Blockchain
from repro.ledger.execution import SpeculativeExecutor
from repro.ledger.store import KeyValueStore, result_digest
from repro.workload.transactions import Operation, OpType, RequestBatch, Transaction

#: Groups of argument tuples that compare (or nearly compare) equal in
#: Python but canonicalise to different bytes.
CONFUSABLE = [
    [(1,), (True,), (1.0,)],
    [("1",), (b"1",)],
    [(0,), (False,), (None,), ("",), (0.0,), (-0.0,)],
    [((1,),), ((True,),), ((1.0,),)],
    [(("a", (0,)),), (("a", (False,)),)],
    [("result", "t", (("k", None),), 0), ("result", "t", (("k", ""),), 0)],
    [("x", 1, b"d"), ("x", True, b"d")],
]


class TestExactness:
    @pytest.mark.parametrize("group", CONFUSABLE)
    def test_confusable_inputs_against_a_warm_memo_in_both_orders(self, group):
        for order in (group, group[::-1]):
            shared_digest.cache_clear()
            for values in order + order:  # second pass: every entry is warm
                assert shared_digest(*values) == digest(*values), values
        assert len({digest(*values) for values in group}) == len(group)

    def test_result_digest_reads_none_versus_empty_string(self):
        missing, empty = (("k", None),), (("k", ""),)
        for first, second in ((missing, empty), (empty, missing)):
            shared_digest.cache_clear()
            assert result_digest("t", first, 0) != result_digest("t", second, 0)
            assert result_digest("t", first, 0) == digest("result", "t", list(first), 0)
            assert result_digest("t", second, 0) == digest("result", "t", list(second), 0)

    @given(st.lists(st.one_of(st.text(), st.integers(), st.binary(), st.none(),
                              st.booleans()), max_size=6))
    def test_equals_digest_on_flat_values(self, values):
        assert shared_digest(*values) == digest(*values)
        assert shared_digest(*values) == digest(*values)

    @given(st.lists(st.recursive(
        st.one_of(st.text(), st.binary(), st.none(), st.integers(),
                  st.booleans(), st.floats(allow_nan=False)),
        lambda inner: st.lists(inner, max_size=4).map(tuple),
        max_leaves=12), max_size=5))
    def test_equals_digest_and_memoises_by_the_rule_on_nested_values(self, values):
        """A miss checks and encodes in one pass: ``digest``'s bytes, and a
        memo entry exactly when the documented rule admits the values."""
        def admitted(items, leaves):
            return all(item.__class__ in leaves
                       or (item.__class__ is tuple and admitted(item, nested))
                       for item in items)
        nested = (bytes, str, type(None))
        shared_digest.cache_clear()
        assert shared_digest(*values) == digest(*values)
        assert shared_digest(*values) == digest(*values)
        memoised = admitted(values, nested + (bool, int))
        assert shared_digest.cache_info().currsize == int(memoised)

    def test_memo_stays_within_its_bound(self):
        shared_digest.cache_clear()
        for i in range(10 * SHARED_DIGEST_MEMO_SIZE):
            shared_digest("bound", i)
        info = shared_digest.cache_info()
        assert info.maxsize == SHARED_DIGEST_MEMO_SIZE
        assert info.currsize == SHARED_DIGEST_MEMO_SIZE
        assert info.misses == 10 * SHARED_DIGEST_MEMO_SIZE

    @pytest.mark.parametrize("values", [
        ("list", [1, 2]), ("dict", {"a": 1}), ("set", frozenset({1})),
        ("float", 0.5), ("nested-int", (1,)),
    ])
    def test_unmemoisable_arguments_fall_through_to_digest(self, values):
        """The documented choice: no ``TypeError``, no memo entry."""
        shared_digest.cache_clear()
        assert shared_digest(*values) == digest(*values)
        assert shared_digest(*values) == digest(*values)
        assert shared_digest.cache_info().currsize == 0

    def test_plain_digest_never_touches_the_memo(self):
        shared_digest.cache_clear()
        digest("poe-proposal", 1, 0, b"d")
        info = shared_digest.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def _poe_ts_memo_counters(num_replicas):
    shared_digest.cache_clear()
    cluster = Cluster(ClusterConfig(protocol="poe-ts", num_replicas=num_replicas,
                                    batch_size=10, total_batches=20, seed=5))
    cluster.start()
    cluster.run_until_done()
    assert sum(pool.completed_batches for pool in cluster.pools) == 20
    return shared_digest.cache_info()


class TestSharing:
    def test_misses_per_batch_do_not_depend_on_n(self):
        small, large = _poe_ts_memo_counters(4), _poe_ts_memo_counters(7)
        assert small.misses == large.misses
        assert small.misses % 20 == 0  # a whole number of values per batch
        # ... while the calls the memo absorbs do grow with n.
        assert large.hits > small.hits > small.misses


def _batch(batch_id, key):
    txn = Transaction(txn_id=f"{batch_id}-t", client_id="client:0",
                      operations=(Operation(OpType.WRITE, key, "v"),
                                  Operation(OpType.READ, key)))
    return RequestBatch(batch_id=batch_id, transactions=(txn,))


with open(os.path.join(os.path.dirname(__file__), "..",
                       "MATRIX_EXPECTATIONS.json"), encoding="utf-8") as _handle:
    _MATRIX = json.load(_handle)
_MATRIX_CELLS = {(cell["protocol"], cell["scenario"]): cell
                 for cell in _MATRIX["cells"]}


class TestDivergence:
    @pytest.mark.parametrize("apply_operations", [True, False])
    def test_different_batches_at_one_sequence_get_different_digests(
            self, apply_operations):
        shared_digest.cache_clear()

        def run(batch):
            executor = SpeculativeExecutor(KeyValueStore(), Blockchain(),
                                           apply_operations=apply_operations)
            record = executor.execute(0, 0, batch)
            return record.result_digest, executor.blockchain.head.block_hash

        honest, wrong = _batch("b", "x"), _batch("b-wrong", "y")
        warm = run(honest)
        assert run(honest) == warm      # served from the memo ...
        diverged = run(wrong)           # ... which must not serve this one
        assert diverged[0] != warm[0] and diverged[1] != warm[1]
        shared_digest.cache_clear()
        assert run(wrong) == diverged and run(honest) == warm

    @pytest.mark.parametrize("scenario",
                             ["wrong-exec", "equivocate", "forge-history"])
    @pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
    def test_byzantine_matrix_cells_keep_their_outcomes_on_a_warm_memo(
            self, protocol, scenario):
        params = ScenarioParams(num_replicas=_MATRIX["n"],
                                total_batches=_MATRIX["batches"],
                                seed=_MATRIX["seed"])
        # The honest run of the same seed fills the memo with the digests
        # the Byzantine replica's divergent inputs must not be handed.
        shared_digest.cache_clear()
        run_scenario(protocol, "no-fault", params)
        assert shared_digest.cache_info().currsize > 0
        outcome = run_scenario(protocol, scenario, params)
        expected = _MATRIX_CELLS[(protocol, scenario)]
        assert (outcome.live, outcome.safe, outcome.completed_batches,
                outcome.view_changes) == (
            expected["live"], expected["safe"], expected["completed_batches"],
            expected["view_changes"])
        assert not outcome.audit.violations

"""Tests for the Zipfian generator, the YCSB workload and request batches."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.authenticator import make_authenticators
from repro.crypto.hashing import digest, digest_fields_and_blobs, shared_digest
from repro.crypto.signatures import SignatureScheme
from repro.workload.transactions import (
    Operation,
    OpType,
    RequestBatch,
    Transaction,
    make_no_op_batch,
    make_synthetic_batch,
)
from repro.workload.ycsb import YcsbConfig, YcsbWorkload
from repro.workload.zipfian import ZipfianGenerator
from tests.helpers import PerTransactionYcsb


class TestZipfian:
    def test_samples_stay_in_range(self):
        generator = ZipfianGenerator(num_items=100, theta=0.9, seed=1)
        samples = generator.sample_many(1000)
        assert all(0 <= s < 100 for s in samples)

    def test_skew_makes_low_ranks_popular(self):
        generator = ZipfianGenerator(num_items=10_000, theta=0.9, seed=2)
        samples = generator.sample_many(5000)
        top_100 = sum(1 for s in samples if s < 100)
        # With theta=0.9 well over a third of accesses hit the top 1% of keys.
        assert top_100 > len(samples) * 0.3

    def test_theta_zero_is_roughly_uniform(self):
        generator = ZipfianGenerator(num_items=100, theta=0.0, seed=3)
        samples = generator.sample_many(5000)
        top_10 = sum(1 for s in samples if s < 10)
        assert 0.05 * len(samples) < top_10 < 0.2 * len(samples)

    def test_deterministic_for_same_seed(self):
        a = ZipfianGenerator(50, 0.9, seed=7).sample_many(100)
        b = ZipfianGenerator(50, 0.9, seed=7).sample_many(100)
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)


class TestYcsbWorkload:
    def test_initial_table_size_matches_config(self):
        workload = YcsbWorkload(YcsbConfig(num_records=500))
        assert len(workload.initial_table()) == 500

    def test_write_fraction_respected(self):
        workload = YcsbWorkload(YcsbConfig(num_records=1000, write_fraction=0.9,
                                           seed=11))
        operations = [txn.operations[0] for txn in workload.next_batch(500).transactions]
        writes = sum(1 for op in operations if op.op_type is OpType.WRITE)
        assert 0.8 < writes / len(operations) < 1.0

    def test_read_only_workload(self):
        workload = YcsbWorkload(YcsbConfig(num_records=100, write_fraction=0.0))
        operations = [txn.operations[0] for txn in workload.next_batch(100).transactions]
        assert all(op.op_type is OpType.READ for op in operations)

    def test_transaction_ids_are_unique(self):
        workload = YcsbWorkload(YcsbConfig.small())
        ids = {txn.txn_id for _ in range(4) for txn in workload.next_batch(50).transactions}
        assert len(ids) == 200

    def test_batch_has_requested_size(self):
        workload = YcsbWorkload(YcsbConfig.small())
        batch = workload.next_batch(25)
        assert len(batch) == 25

    def test_keys_reference_initial_table(self):
        config = YcsbConfig(num_records=50, seed=5)
        workload = YcsbWorkload(config)
        table = workload.initial_table()
        for txn in workload.next_batch(100).transactions:
            for op in txn.operations:
                assert op.key in table

    def test_signed_transactions_verify(self):
        auths = make_authenticators(["replica:0", "replica:1", "replica:2",
                                     "replica:3"], ["client:0"], seed=b"ycsb")
        workload = YcsbWorkload(YcsbConfig.small(), client_id="client:0",
                                authenticator=auths["client:0"])
        [txn] = workload.next_batch(1).transactions
        assert txn.signature is not None
        assert auths["replica:0"].verify(txn.signature, txn.digest())

    def test_signed_transaction_keeps_the_digest_of_its_own_fields(self):
        """The signer hands the transaction the digest it signed over; that
        memo must be what the fields hash to without it."""
        auths = make_authenticators(["replica:0"], ["client:0"], seed=b"ycsb")
        workload = YcsbWorkload(YcsbConfig.small(), client_id="client:0",
                                authenticator=auths["client:0"])
        for txn in workload.next_batch(20).transactions:
            by_hand = Transaction(txn.txn_id, txn.client_id, txn.operations,
                                  txn.signature, txn.created_at_ms)
            assert by_hand == txn
            assert by_hand.digest() == txn.digest()
            assert txn.signature.payload_digest == digest(txn.digest())
            assert txn.signature == auths["client:0"].sign(txn.digest())
            assert auths["replica:0"].verify(by_hand.signature, by_hand.digest())


class TestRealExecutionPaysForEachTransactionOnce:
    """Ten real batches of twenty through a four-replica PoE cluster."""

    @pytest.fixture()
    def counted_run(self, monkeypatch):
        from collections import Counter

        from repro.fabric.cluster import Cluster, ClusterConfig
        from repro.ledger import execution
        from repro.workload import transactions, ycsb

        calls = Counter()

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)
            return counted

        counted_transaction_digests = counting(
            "transaction_digests", transactions.transaction_digests)
        for module in (transactions, ycsb):
            monkeypatch.setattr(module, "transaction_digests",
                                counted_transaction_digests)

        def counting_encoder(fields, blobs):
            calls[fields[0]] += 1
            return digest_fields_and_blobs(fields, blobs)

        for module in (transactions, execution):
            monkeypatch.setattr(module, "digest_fields_and_blobs",
                                counting_encoder)
        for name in ("sign", "sign_digests"):
            monkeypatch.setattr(SignatureScheme, name, counting(
                name, getattr(SignatureScheme, name)))
        monkeypatch.setattr(ZipfianGenerator, "sample_many", counting(
            "sample_many", ZipfianGenerator.sample_many))
        result_digests = counting("result_digests", execution.result_digests)

        def counting_results(outcomes):
            # One call per batch; each outcome in it is one result hashed.
            calls["result_digest"] += len(outcomes)
            return result_digests(outcomes)

        monkeypatch.setattr(execution, "result_digests", counting_results)
        shared_digest.cache_clear()
        cluster = Cluster(ClusterConfig(
            protocol="poe-mac", num_replicas=4, batch_size=20, total_batches=10,
            use_ycsb_payload=True, execute_operations=True, seed=3))
        cluster.start()
        cluster.run_until_done(max_ms=60_000.0)
        assert [r.last_executed_sequence for r in cluster.replicas] == [9] * 4
        return cluster, calls, (shared_digest.cache_info(),
                                cluster.replicas[0].executor.memo)

    def test_one_canonicalisation_per_transaction_and_per_batch(self, counted_run):
        """Each transaction is drawn, hashed and signed once for its client,
        and each stage takes the whole batch: one Zipfian call, one
        hashing call and one signing call per batch of twenty (before, 200
        per-transaction ``transaction_digest`` and ``sign_digest`` calls,
        and a draw per rank).  No replica hashes a transaction again: the
        digest each was signed over is its memo.  Each transaction's result
        is hashed once for the whole cluster: the first replica to execute
        a batch hashes its 20 results in one ``result_digests`` call and
        folds them, the other three find the fold in the execution memo
        (before it, each replica hashed or looked up every transaction's
        result: 800 calls).  Batches and their result folds
        go through the fixed-shape encoder, never the generic one."""
        _, calls, _ = counted_run
        assert calls == {"sample_many": 10, "transaction_digests": 10,
                         "sign_digests": 10, "batch": 10, "results": 10,
                         "result_digests": 10, "result_digest": 200}

    def test_replicas_share_each_result_digest(self, counted_run):
        """Distinct values through the two memos: the proposal and block
        digests of each batch through the shared digest memo, and each
        batch on each table through the cluster's execution memo, every
        one asked for by all four replicas.  The execution memo took over
        the count the batch-result memo kept (one miss per batch, keyed on
        its outcomes): it is keyed on the table's version and the batch,
        so the three replicas after the first apply no transaction either.
        Per-transaction result digests no longer pass through the shared
        memo (it held 200 of them), and a batch that stops being shared
        moves the counts though no byte changes."""
        _, _, (memo, execution_memo) = counted_run
        assert memo.misses == 10 * 2
        assert memo.hits == 3 * memo.misses
        assert execution_memo.misses == 10
        assert execution_memo.hits == 3 * execution_memo.misses

    def test_nothing_per_transaction_outlives_its_use(self, counted_run):
        import dataclasses

        from repro.ledger.execution import ExecutedBatch

        cluster, _, _ = counted_run
        record = cluster.replicas[0].executor.executed(0)
        assert record.undo and len(record.batch.transactions) == 20
        assert "results" not in {f.name for f in dataclasses.fields(ExecutedBatch)}
        txn = record.batch.transactions[0]
        for instance in (txn, txn.operations[0], txn.signature, record.undo[0]):
            assert not hasattr(instance, "__dict__"), type(instance)


class TestTransactionDigestIsInjective:
    """One client signature must cover one transaction."""

    def test_separator_in_key_or_value_does_not_collide(self):
        # ``type|key|value`` read both of these as ``write|a|b|c``.
        in_key = Transaction("t", "c", (Operation(OpType.WRITE, "a|b", "c"),))
        in_value = Transaction("t", "c", (Operation(OpType.WRITE, "a", "b|c"),))
        assert in_key != in_value
        assert in_key.digest() != in_value.digest()

    def test_absent_value_differs_from_empty_value(self):
        absent = Operation(OpType.READ, "k")
        empty = Operation(OpType.READ, "k", "")
        assert absent.canonical_bytes() != empty.canonical_bytes()

    _field = st.text(alphabet="a|1", max_size=3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(OpType)), _field,
                              st.none() | _field),
                    min_size=2, max_size=40, unique=True))
    def test_distinct_operations_give_distinct_digests(self, operations):
        """Drawn from a space small enough that the old encoding collides
        in almost every example."""
        digests = {Transaction("t", "c", (Operation(*fields),)).digest()
                   for fields in operations}
        assert len(digests) == len(operations)
        assert Transaction("t", "c", tuple(
            Operation(*fields) for fields in operations)).digest() not in digests


class TestBatches:
    def test_batch_digest_depends_on_contents(self):
        t1 = Transaction(txn_id="a", client_id="c")
        t2 = Transaction(txn_id="b", client_id="c")
        batch_a = RequestBatch(batch_id="x", transactions=(t1,))
        batch_b = RequestBatch(batch_id="x", transactions=(t2,))
        assert batch_a.digest() != batch_b.digest()

    def test_client_ids_deduplicated_in_order(self):
        transactions = (
            Transaction(txn_id="1", client_id="alice"),
            Transaction(txn_id="2", client_id="bob"),
            Transaction(txn_id="3", client_id="alice"),
        )
        batch = RequestBatch(batch_id="x", transactions=transactions)
        assert batch.client_ids == ("alice", "bob")

    def test_no_op_batch_has_empty_operations(self):
        batch = make_no_op_batch("b", "client:0", size=10)
        assert len(batch) == 10
        assert all(not txn.operations for txn in batch.transactions)
        assert batch.reply_to == "client:0"

    def test_synthetic_batch_reports_logical_size(self):
        batch = make_synthetic_batch("b", "client:0", size=100)
        assert len(batch) == 100
        assert batch.transactions == ()

    def test_synthetic_batches_with_same_id_share_digest(self):
        a = make_synthetic_batch("b", "client:0", size=100)
        b = make_synthetic_batch("b", "client:0", size=100)
        assert a.digest() == b.digest()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
def test_zipfian_sample_range_property(num_items, seed):
    """Property: every sample is a valid rank for any table size and seed."""
    generator = ZipfianGenerator(num_items=num_items, theta=0.9, seed=seed)
    assert all(0 <= rank < num_items for rank in generator.sample_many(50))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), st.sampled_from([0.0, 0.9]),
       st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=50),
       st.integers(min_value=0, max_value=49), st.sampled_from([0, 1, 2, 17]))
def test_rejected_ranks_equal_the_per_rank_draw(seed, theta, max_tries, modulus,
                                                 residue, count):
    """Property: a batch of ranks drawn under a predicate - rejection, and
    after *max_tries* rejections the most popular rank that satisfies it -
    is what drawing one rank at a time gave, and leaves the RNG where it
    did.  Few tries and rare predicates reach the fallback."""
    config = YcsbConfig(num_records=50, zipf_theta=theta, seed=seed)
    reference = PerTransactionYcsb(config, "client:0")
    generator = ZipfianGenerator(config.num_records, theta, seed)

    def where(rank):
        return rank % modulus == residue % modulus

    expected = [reference._sample_where(where, max_tries) for _ in range(count)]
    assert generator.sample_many(count, where, max_tries) == expected
    assert generator._rng.random() == reference.next_draws()[0]


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("batch"), st.sampled_from([0, 1, 2, 17, 100])),
    st.tuples(st.just("shard"), st.sampled_from([0, 1, 2, 17, 100]),
              st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("cross"), st.integers(min_value=2, max_value=4),
              st.integers(min_value=0, max_value=3))), min_size=1, max_size=5)


def _generate(generator, step, created_at_ms):
    """One step of *generator*, as ``(the batch or slices, their digests)``."""
    kind, *args = step
    if kind == "batch":
        batch = generator.next_batch(args[0], created_at_ms, reply_to="r")
    elif kind == "shard":
        size, num_shards, shard = args
        batch = generator.next_batch_for_shard(shard % num_shards, num_shards, size,
                                               created_at_ms)
    else:
        num_shards, first = args
        shards = sorted({first % num_shards, (first + 1) % num_shards})
        slices = generator.next_cross_shard_operations(shards, num_shards,
                                                       created_at_ms)
        return slices, {shard: txn.digest() for shard, txn in slices.items()}
    return batch, (batch.digest(), [txn.digest() for txn in batch.transactions])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), st.booleans(),
       st.sampled_from([0.0, 0.9]), st.sampled_from([5, 1000]), _STEPS)
def test_batch_stages_equal_the_per_transaction_generator(seed, signed, theta,
                                                          num_records, steps):
    """Property: every stage taking the whole batch - the Zipfian ranks,
    the coins, keys and operations, the digests, the signatures - yields
    what drawing, hashing and signing one transaction at a time did: the
    same ids, operations, signatures, transaction and batch digests, for
    batches of 0, 1, 2, 17 and 100, signed and unsigned, sharded and not,
    with cross-shard slices in between; and both RNGs are left where the
    per-transaction generator leaves them.  A stage that reorders a draw
    fails here."""
    config = YcsbConfig(num_records=num_records, zipf_theta=theta, seed=seed)
    auth = None
    if signed:
        auth = make_authenticators(["replica:0"], ["client:0"], seed=b"ycsb")["client:0"]
    workload = YcsbWorkload(config, client_id="client:0", authenticator=auth)
    reference = PerTransactionYcsb(config, "client:0", auth)
    for at, step in enumerate(steps):
        try:
            expected = _generate(reference, step, float(at))
        except ValueError:
            # A tiny table where no key routes to the shard.
            with pytest.raises(ValueError):
                _generate(workload, step, float(at))
            return
        assert _generate(workload, step, float(at)) == expected
    assert (workload._zipf._rng.random(), workload._rng.random()) == \
        reference.next_draws()

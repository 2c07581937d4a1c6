"""Tests for blocks, the blockchain, the key-value store and speculation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import digest, shared_digest
from repro.ledger.block import Block, GENESIS_PARENT
from repro.ledger.blockchain import Blockchain, InvalidBlockError
from repro.ledger.execution import (
    ExecutionMemo,
    SpeculativeExecutor,
    batch_result_digest,
    modelled_result_digest,
)
from repro.ledger.store import KeyValueStore, result_digest
from repro.workload.transactions import Operation, OpType, RequestBatch, Transaction


def make_txn(txn_id, writes=(), reads=()):
    operations = tuple(
        [Operation(op_type=OpType.WRITE, key=k, value=v) for k, v in writes]
        + [Operation(op_type=OpType.READ, key=k) for k in reads]
    )
    return Transaction(txn_id=txn_id, client_id="client:0", operations=operations)


def make_batch(batch_id, transactions):
    return RequestBatch(batch_id=batch_id, transactions=tuple(transactions))


class TestBlock:
    def test_genesis_uses_initial_primary_identity(self):
        genesis = Block.genesis("replica:0")
        assert genesis.parent_hash == GENESIS_PARENT
        assert genesis.batch_digest == digest("genesis", "replica:0")

    def test_block_hash_changes_with_content(self):
        a = Block(sequence=0, batch_digest=b"a", view=0, parent_hash=b"\x00" * 32)
        b = Block(sequence=0, batch_digest=b"b", view=0, parent_hash=b"\x00" * 32)
        assert a.block_hash != b.block_hash

    def test_proof_not_part_of_hash(self):
        a = Block(sequence=0, batch_digest=b"a", view=0, parent_hash=b"p", proof="x")
        b = Block(sequence=0, batch_digest=b"a", view=0, parent_hash=b"p", proof="y")
        assert a.block_hash == b.block_hash


class TestBlockchain:
    def test_appends_chain_correctly(self):
        chain = Blockchain("replica:0")
        chain.append(0, b"batch-0", view=0)
        chain.append(1, b"batch-1", view=0)
        assert len(chain) == 2
        assert chain.verify_chain()
        assert chain.head.sequence == 1

    def test_rejects_out_of_order_append(self):
        chain = Blockchain("replica:0")
        with pytest.raises(InvalidBlockError):
            chain.append(3, b"batch", view=0)

    def test_block_lookup_by_sequence(self):
        chain = Blockchain("replica:0")
        chain.append(0, b"zero", view=0)
        chain.append(1, b"one", view=0)
        assert chain.block_at(1).batch_digest == b"one"
        assert chain.block_at(5) is None

    def test_block_lookup_across_a_sync_gap_and_a_truncated_suffix(self):
        """``block_at`` bisects on the sequence: every block is found where
        the scan from genesis found it, a sequence inside a checkpoint-sync
        gap, below genesis or past the head is absent, and so is one the
        chain lost to a truncation."""
        chain = Blockchain("replica:0")
        for sequence in range(3):
            chain.append(sequence, f"b{sequence}".encode(), view=0)
        chain.append_checkpoint(9, b"state", view=1)
        for sequence in range(10, 14):
            chain.append(sequence, f"b{sequence}".encode(), view=1)

        def scan(sequence):
            return next((block for block in chain.blocks()
                         if block.sequence == sequence), None)

        present = [0, 1, 2, 9, 10, 11, 12, 13]
        for sequence in range(-2, 16):
            assert chain.block_at(sequence) is scan(sequence)
            assert (chain.block_at(sequence) is not None) == (sequence in present)
        assert chain.block_at(9).payload == "checkpoint-sync"
        chain.truncate_after(10)
        for sequence in range(-2, 16):
            assert chain.block_at(sequence) is scan(sequence)
        assert chain.block_at(10).batch_digest == b"b10"
        assert chain.block_at(11) is None and chain.block_at(13) is None
        chain.truncate_after(-1)
        assert chain.block_at(0) is None and chain.block_at(-1) is None

    def test_truncate_after_removes_suffix(self):
        chain = Blockchain("replica:0")
        for i in range(5):
            chain.append(i, f"b{i}".encode(), view=0)
        removed = chain.truncate_after(2)
        assert [block.sequence for block in removed] == [3, 4]
        assert chain.head.sequence == 2
        assert chain.verify_chain()

    def test_checkpoint_block_allows_sequence_gap(self):
        chain = Blockchain("replica:0")
        chain.append(0, b"zero", view=0)
        chain.append_checkpoint(10, b"state", view=1)
        assert chain.head.sequence == 10
        assert chain.verify_chain()
        # Normal appends continue from the checkpoint sequence.
        chain.append(11, b"eleven", view=1)
        assert chain.verify_chain()

    def test_checkpoint_cannot_move_backwards(self):
        chain = Blockchain("replica:0")
        chain.append(0, b"zero", view=0)
        with pytest.raises(InvalidBlockError):
            chain.append_checkpoint(0, b"state", view=1)

    def test_identical_histories_produce_identical_heads(self):
        a = Blockchain("replica:0")
        b = Blockchain("replica:0")
        for i in range(3):
            a.append(i, f"batch-{i}".encode(), view=0)
            b.append(i, f"batch-{i}".encode(), view=0)
        assert a.head.block_hash == b.head.block_hash


class TestKeyValueStore:
    def test_apply_write_then_read(self):
        store = KeyValueStore()
        txn = make_txn("t1", writes=[("k", "v")])
        outcomes, undo = store.apply([txn])
        assert store.get("k") == "v"
        assert outcomes == (("t1", (), 1),)
        assert undo == [("k", None, False)]

    def test_read_returns_current_values(self):
        store = KeyValueStore({"k": "orig"})
        outcomes, _ = store.apply([make_txn("t1", reads=["k", "missing"])])
        assert outcomes == (("t1", (("k", "orig"), ("missing", None)), 0),)

    def test_revert_restores_previous_value(self):
        store = KeyValueStore({"k": "orig"})
        _, undo = store.apply([make_txn("t1", writes=[("k", "new")])])
        store.revert(undo)
        assert store.get("k") == "orig"

    def test_revert_removes_keys_that_did_not_exist(self):
        store = KeyValueStore()
        _, undo = store.apply([make_txn("t1", writes=[("fresh", "x")])])
        store.revert(undo)
        assert store.get("fresh") is None

    def test_snapshot_digest_changes_with_content(self):
        before = KeyValueStore({"a": "1"}).snapshot_digest()
        assert KeyValueStore({"a": "2"}).snapshot_digest() != before

    def test_snapshot_and_replace_all(self):
        snapshot = KeyValueStore({"a": "1"}).snapshot()
        store = KeyValueStore({"a": "2"})
        store.replace_all(snapshot)
        assert store.get("a") == "1"

    def test_result_digest_is_deterministic(self):
        store_a = KeyValueStore({"k": "v"})
        store_b = KeyValueStore({"k": "v"})
        outcomes_a, _ = store_a.apply([make_txn("t", writes=[("k", "w")], reads=["k"])])
        outcomes_b, _ = store_b.apply([make_txn("t", writes=[("k", "w")], reads=["k"])])
        assert outcomes_a == outcomes_b == (("t", (("k", "w"),), 1),)
        assert batch_result_digest(outcomes_a) == batch_result_digest(outcomes_b)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["k1", "k2", "k3"]), st.text(max_size=5)),
    min_size=0, max_size=10,
))
def test_store_apply_revert_roundtrip_property(writes):
    """Property: applying a transaction and reverting it restores the table."""
    initial = {"k1": "a", "k2": "b"}
    store = KeyValueStore(dict(initial))
    before = store.snapshot_digest()
    _, undo = store.apply([make_txn("t", writes=writes)])
    store.revert(undo)
    assert store.snapshot_digest() == before


def _apply_one_at_a_time(table, transactions):
    """The store's execution written per transaction, as it was before a
    batch became one call: the reference its batch loop must equal."""
    outcomes, undo = [], []
    for txn in transactions:
        reads, writes = [], 0
        for op in txn.operations:
            if op.op_type is OpType.READ:
                reads.append((op.key, table.get(op.key)))
            else:
                undo.append((op.key, table.get(op.key), op.key in table))
                table[op.key] = op.value if op.value is not None else ""
                writes += 1
        outcomes.append((txn.txn_id, tuple(reads), writes))
    return tuple(outcomes), undo


_OPERATIONS = st.lists(st.tuples(
    st.sampled_from(OpType), st.sampled_from(["k1", "k2", "k3", "ü"]),
    st.none() | st.text(max_size=4)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(["k1", "k2", "ü"]), st.text(max_size=3)),
       st.lists(_OPERATIONS, max_size=6))
def test_batch_apply_equals_the_per_transaction_loop(initial, batch):
    """Property: one batch call leaves the table, the undo log (in order)
    and the outcomes of applying each transaction in turn, and its undo
    log reverts the table to where it started."""
    transactions = [
        Transaction(f"t{i}", "client:0", tuple(Operation(*op) for op in ops))
        for i, ops in enumerate(batch)]
    store, table = KeyValueStore(dict(initial)), dict(initial)
    outcomes, undo = store.apply(transactions)
    assert (outcomes, undo) == _apply_one_at_a_time(table, transactions)
    assert store.snapshot() == table
    store.revert(undo)
    assert store.snapshot() == initial


_ID = st.text(alphabet="ab|:/\x00", max_size=4)
_OUTCOMES = st.lists(st.tuples(
    _ID, st.lists(st.tuples(_ID, st.none() | _ID), max_size=3).map(tuple),
    st.integers(min_value=0, max_value=3)), max_size=5).map(tuple)


def _fold_per_transaction(outcomes):
    """A batch's result digest through the generic encoder: each
    transaction's result digest through the shared memo, then their tuple
    through it."""
    return shared_digest("results", tuple(
        shared_digest("result", *outcome) for outcome in outcomes))


@settings(max_examples=100, deadline=None)
@given(_OUTCOMES)
def test_batch_result_digest_is_the_per_transaction_fold(outcomes):
    """Property: over empty batches, absent reads and ids holding
    separators, the per-batch digest is the per-transaction fold;
    ``result_digest`` is each term of it."""
    assert batch_result_digest(outcomes) == _fold_per_transaction(outcomes)
    assert tuple(result_digest(*outcome) for outcome in outcomes) == tuple(
        digest("result", *outcome) for outcome in outcomes)


@settings(max_examples=100, deadline=None)
@given(_OUTCOMES.filter(lambda outcomes: any(reads for _, reads, _ in outcomes)),
       st.data())
def test_one_read_changes_the_batch_result_digest(outcomes, data):
    """Property: the digest covers what was read, so a replica that read
    one other value (or found a key absent) reports another digest."""
    index = data.draw(st.sampled_from(
        [i for i, (_, reads, _) in enumerate(outcomes) if reads]))
    txn_id, reads, writes = outcomes[index]
    at = data.draw(st.integers(min_value=0, max_value=len(reads) - 1))
    key, value = reads[at]
    other = data.draw((st.none() | _ID).filter(lambda v: v != value))
    changed = list(outcomes)
    changed[index] = (txn_id, reads[:at] + ((key, other),) + reads[at + 1:],
                      writes)
    assert batch_result_digest(tuple(changed)) != batch_result_digest(outcomes)
    assert batch_result_digest(tuple(changed)) == _fold_per_transaction(changed)


class TestSpeculativeExecutor:
    def _executor(self):
        store = KeyValueStore({"x": "0"})
        chain = Blockchain("replica:0")
        return SpeculativeExecutor(store, chain), store, chain

    def test_executes_in_order_and_appends_blocks(self):
        executor, store, chain = self._executor()
        executor.execute(0, 0, make_batch("b0", [make_txn("t0", writes=[("x", "1")])]))
        executor.execute(1, 0, make_batch("b1", [make_txn("t1", writes=[("x", "2")])]))
        assert store.get("x") == "2"
        assert len(chain) == 2
        assert executor.last_executed_sequence == 1

    def test_rejects_out_of_order_execution(self):
        executor, _, _ = self._executor()
        with pytest.raises(ValueError):
            executor.execute(1, 0, make_batch("b1", [make_txn("t1")]))

    def test_rollback_reverts_state_and_ledger(self):
        executor, store, chain = self._executor()
        executor.execute(0, 0, make_batch("b0", [make_txn("t0", writes=[("x", "1")])]))
        executor.execute(1, 0, make_batch("b1", [make_txn("t1", writes=[("x", "2")])]))
        executor.execute(2, 0, make_batch("b2", [make_txn("t2", writes=[("x", "3")])]))
        reverted = executor.rollback_to(0)
        assert [r.sequence for r in reverted] == [2, 1]
        assert store.get("x") == "1"
        assert chain.head.sequence == 0
        assert executor.last_executed_sequence == 0
        assert chain.verify_chain()

    def test_rollback_to_minus_one_reverts_everything(self):
        executor, store, chain = self._executor()
        executor.execute(0, 0, make_batch("b0", [make_txn("t0", writes=[("x", "1")])]))
        executor.rollback_to(-1)
        assert store.get("x") == "0"
        assert len(chain) == 0
        assert executor.last_executed_sequence == -1

    def test_execution_can_resume_after_rollback(self):
        executor, store, _ = self._executor()
        executor.execute(0, 0, make_batch("b0", [make_txn("t0", writes=[("x", "1")])]))
        executor.rollback_to(-1)
        executor.execute(0, 1, make_batch("b0'", [make_txn("t0b", writes=[("x", "9")])]))
        assert store.get("x") == "9"

    def test_prune_before_discards_undo_but_keeps_results(self):
        executor, _, _ = self._executor()
        record = executor.execute(
            0, 0, make_batch("b0", [make_txn("t0", writes=[("x", "1")])]))
        assert record.undo
        executor.prune_before(0)
        assert not executor.executed(0).undo

    def test_prune_lets_go_of_the_batch_and_keeps_its_identity(self):
        class ControlRecord(RequestBatch):
            control_phase = "decide"

        executor, _, _ = self._executor()
        ordinary = make_batch("b0", [make_txn("t0", writes=[("x", "1")])])
        control = ControlRecord(batch_id="c1", transactions=())
        executor.execute(0, 0, ordinary)
        executor.execute(1, 0, control)
        executor.execute(2, 0, make_batch("b2", [make_txn("t2")]))
        executor.prune_before(1)
        below, kept, above = (executor.executed(k) for k in range(3))
        assert below.batch is None
        assert (below.batch_id, below.batch_digest, below.control_phase) == (
            "b0", ordinary.digest(), "")
        assert below.result_digest
        # A control record keeps its batch; so does anything above the
        # checkpoint, which a view change may still roll back.
        assert kept.batch is control and kept.control_phase == "decide"
        assert above.batch is not None and above.batch_id == "b2"
        assert [r.batch_id for r in executor.rollback_to(1)] == ["b2"]

    def _write_batches(self, executor, sequences):
        for seq in sequences:
            executor.execute(seq, 0, make_batch(
                f"b{seq}", [make_txn(f"t{seq}", writes=[("x", str(seq))])]))

    def test_what_a_replica_keeps_per_batch_holds_no_instance_dict(self):
        """A block and an execution record outlive their batch on every
        replica: neither carries a ``__dict__``, and pruned records share
        one empty undo log rather than each holding a fresh list."""
        executor, _, chain = self._executor()
        self._write_batches(executor, range(4))
        executor.prune_before(2)
        records = [executor.executed(seq) for seq in range(4)]
        assert len({id(record.undo) for record in records[:3]}) == 1
        assert not records[0].undo and records[3].undo
        for instance in (*records, *chain):
            assert not hasattr(instance, "__dict__"), type(instance)

    def test_prune_visits_each_record_once_over_a_run(self):
        """GC at every stable checkpoint is linear in the run, not quadratic."""
        class CountingDict(dict):
            visited = 0

            def __iter__(self):
                for key in super().__iter__():
                    CountingDict.visited += 1
                    yield key

            def get(self, key, default=None):
                CountingDict.visited += 1
                return super().get(key, default)

            def __getitem__(self, key):
                CountingDict.visited += 1
                return super().__getitem__(key)

        executor, _, _ = self._executor()
        executor._executed = CountingDict()
        interval, checkpoints = 10, 20
        length = interval * checkpoints
        visited_by_prune = 0
        for stable in range(interval - 1, length, interval):
            self._write_batches(executor, range(stable - interval + 1, stable + 1))
            before = CountingDict.visited
            executor.prune_before(stable)
            visited_by_prune += CountingDict.visited - before
            assert not any(executor.executed(seq).undo
                           for seq in range(stable + 1))
        assert visited_by_prune == length  # was ~ checkpoints * length / 2

    def test_prune_resumes_correctly_after_rollback_resync_and_fast_forward(self):
        executor, store, _ = self._executor()
        self._write_batches(executor, range(6))
        executor.prune_before(3)
        # Below the pruned mark the undo logs are gone, so a rollback there
        # could not revert the table: it raises and changes nothing.
        with pytest.raises(ValueError):
            executor.rollback_to(1)
        assert executor.last_executed_sequence == 5 and store.get("x") == "5"
        # A rollback at the mark re-executes 4..5: their new undo logs
        # must be collected by the next checkpoint, not skipped.
        executor.rollback_to(3)
        self._write_batches(executor, range(4, 8))
        assert executor.executed(4).undo and executor.executed(5).undo
        executor.prune_before(5)
        assert not any(executor.executed(seq).undo for seq in range(6))
        assert executor.executed(6).undo and executor.executed(7).undo
        # A checkpoint ahead of execution prunes only what exists; batches
        # executed afterwards below it are still collected later.
        executor.prune_before(20)
        self._write_batches(executor, range(8, 10))
        assert executor.executed(8).undo
        executor.prune_before(20)
        assert not executor.executed(8).undo and not executor.executed(9).undo
        # Resync excises 5.. and installs a checkpoint at 12; fast-forward
        # jumps to 30.  Execution and pruning continue from each.
        executor.resync(12, view=1, state_digest=b"d", divergent_from=5)
        self._write_batches(executor, range(13, 15))
        executor.prune_before(13)
        assert not executor.executed(13).undo and executor.executed(14).undo
        assert executor.fast_forward(30, view=1, state_digest=b"d")
        self._write_batches(executor, range(31, 33))
        executor.prune_before(31)
        assert not executor.executed(14).undo and not executor.executed(31).undo
        assert executor.executed(32).undo

    def test_state_digest_identical_across_replicas(self):
        exec_a, _, _ = self._executor()
        exec_b, _, _ = self._executor()
        batch = make_batch("b0", [make_txn("t0", writes=[("x", "1")])])
        exec_a.execute(0, 0, batch)
        exec_b.execute(0, 0, batch)
        assert exec_a.state_digest() == exec_b.state_digest()

    def test_fast_forward_installs_checkpoint(self):
        executor, store, chain = self._executor()
        assert executor.fast_forward(9, view=1, state_digest=b"d",
                                     table_snapshot={"x": "99"})
        assert executor.last_executed_sequence == 9
        assert store.get("x") == "99"
        assert chain.head.sequence == 9
        # Further execution continues after the checkpoint.
        executor.execute(10, 1, make_batch("b10", [make_txn("t", writes=[("x", "10")])]))
        assert store.get("x") == "10"

    def test_fast_forward_ignores_stale_checkpoints(self):
        executor, _, _ = self._executor()
        executor.execute(0, 0, make_batch("b0", [make_txn("t0")]))
        assert not executor.fast_forward(0, view=0, state_digest=b"d")

    def test_modelled_execution_skips_store_changes(self):
        store = KeyValueStore({"x": "0"})
        chain = Blockchain("replica:0")
        executor = SpeculativeExecutor(store, chain, apply_operations=False)
        batch = make_batch("b0", [make_txn("t0", writes=[("x", "1")])])
        record = executor.execute(0, 0, batch)
        assert store.get("x") == "0"
        assert len(chain) == 1
        # What a commit certificate's admission check re-derives.
        assert record.result_digest == modelled_result_digest(0, batch)
        assert record.batch_digest == chain.head.batch_digest == batch.digest()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8))
def test_executor_rollback_property(num_batches, rollback_to):
    """Property: rolling back to sequence k leaves exactly blocks 0..k and the
    store state as of batch k."""
    store = KeyValueStore({"x": "init"})
    chain = Blockchain("replica:0")
    executor = SpeculativeExecutor(store, chain)
    for i in range(num_batches):
        executor.execute(i, 0, make_batch(f"b{i}",
                                          [make_txn(f"t{i}", writes=[("x", str(i))])]))
    target = min(rollback_to, num_batches - 1)
    executor.rollback_to(target)
    assert executor.last_executed_sequence == target
    assert len(chain) == target + 1
    expected = "init" if target < 0 else str(target)
    assert store.get("x") == expected


# ------------------------------------------- rollback on a real table
# ``revert`` above is exercised on hand-made undo logs; these cells make a
# cluster roll back while it applies real YCSB writes.  YCSB writes are
# blind, so once the clients have retransmitted every reverted batch the
# final table is the same whether or not ``revert`` restored anything: the
# undo path is checked where it runs, by comparing the table right after
# each rollback with the table journalled when that sequence was executed.

def _journal_table_states(executor, checked):
    """Wrap *executor* so every rollback is compared with the journalled
    table of its target; appends ``(target, writes undone, matches)``.
    Returns the batch last executed at each sequence (a record lets go of
    its batch below a stable checkpoint)."""
    after = {-1: executor.store.snapshot_digest()}
    batches = {}
    execute, rollback_to = executor.execute, executor.rollback_to

    def journalling_execute(sequence, view, batch, proof=None):
        record = execute(sequence, view, batch, proof)
        after[sequence] = executor.store.snapshot_digest()
        batches[sequence] = batch
        return record

    def checking_rollback(sequence):
        reverted = rollback_to(sequence)
        if reverted and sequence in after:
            checked.append((sequence, sum(len(r.undo) for r in reverted),
                            executor.store.snapshot_digest() == after[sequence]))
        return reverted

    executor.execute = journalling_execute
    executor.rollback_to = checking_rollback
    return batches


@pytest.mark.parametrize("protocol,scenario", [
    # A replica leaves, rolls back its speculation and rejoins.
    ("poe-ts", "churn"),
    # A forger contests the history a view change adopts: two honest
    # replicas revert three batches and re-execute two of them swapped.
    ("zyzzyva", "forge-history-vc"),
    # A rollback that stops above a stable checkpoint, after the undo
    # logs below it were pruned.
    ("zyzzyva", "adaptive-primary"),
])
def test_real_execution_rollback_converges(protocol, scenario):
    import dataclasses

    from repro.fabric.audit import SafetyAuditor
    from repro.fabric.cluster import Cluster
    from repro.fabric.scenarios import SCENARIO_DEFS, ScenarioParams, _cluster_config

    params = ScenarioParams(seed=11, total_batches=60)
    plan = SCENARIO_DEFS[scenario].recipe(params)
    cluster = Cluster(dataclasses.replace(
        _cluster_config(protocol, plan, params, params.total_batches),
        use_ycsb_payload=True, execute_operations=True))
    auditor = SafetyAuditor.attach(cluster)
    honest = [replica for replica in cluster.replicas
              if replica.node_id not in cluster.byzantine_ids]
    rollbacks = []
    executed_batches = {
        replica.node_id: _journal_table_states(replica.executor, rollbacks)
        for replica in honest}
    cluster.start()
    cluster.run_until_done(max_ms=params.max_ms)

    assert any(writes for _, writes, _ in rollbacks), \
        "the cell must actually undo writes"
    assert all(matches for _, _, matches in rollbacks), rollbacks
    assert any(replica.rollback_log for replica in honest)
    assert auditor.report().ok, auditor.report().summary()

    height = max(replica.last_executed_sequence for replica in honest)
    assert height >= params.total_batches - 1
    at_height = [r for r in honest if r.last_executed_sequence == height]
    assert len(at_height) >= 2
    assert len({r.blockchain.head.block_hash for r in at_height}) == 1
    assert len({r.executor.store.snapshot_digest() for r in at_height}) == 1

    # Replay the agreed ledger onto a fresh table.  A replica that caught
    # up by state transfer holds no record for the slots it skipped, so
    # the batches come from one that executed every slot itself.
    witness = next(r for r in at_height
                   if all(r.executor.executed(k) for k in range(height + 1)))
    replayed = KeyValueStore(cluster._initial_table())
    for sequence in range(height + 1):
        batch = executed_batches[witness.node_id][sequence]
        assert batch.digest() == witness.executor.executed(sequence).batch_digest
        assert batch.digest() == witness.blockchain.block_at(sequence).batch_digest
        replayed.apply(batch.transactions)
    assert replayed.snapshot() == witness.executor.store.snapshot()


# ------------------------------------------- the execution memo
# Executors that share one memo must end every step exactly where the same
# executors end with a private memo each: same table, and per record the
# same result digest and undo log.  Batches come from a small pool over
# four keys, reading and writing, so stores both share entries and
# diverge; transferred tables are equal to another store's or different.

_MEMO_BATCHES = tuple(
    make_batch(f"m{index}", [make_txn(f"m{index}:{n}", writes=writes, reads=reads)
                             for n, (writes, reads) in enumerate(txns)])
    for index, txns in enumerate((
        [([("a", "1")], ["b"])],
        [([("b", "2"), ("c", "3")], ["a"])],
        [([], ["a", "b", "c"]), ([("a", "4")], ["a"])],
        [([("c", "5")], ["c", "d"])],
    )))
_MEMO_TABLES = ({"a": "0"}, {"a": "1", "b": "x", "d": "y"})

_MEMO_STEP = st.tuples(
    st.sampled_from(["execute", "execute", "everyone", "everyone", "transfer",
                     "resync", "rollback", "prune"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=7))


def _memo_step(executor, step, executors):
    """Apply one drawn step to *executor*; *executors* are its peers (a
    transferred table may equal one of theirs)."""
    kind, _, pick, depth = step
    last = executor.last_executed_sequence
    # No rollback or resync reaches below a stable checkpoint (the pruned
    # mark) or below a transferred one (its sync block).
    marked = max([executor._pruned_through] + [
        block.sequence for block in executor.blockchain
        if block.payload == "checkpoint-sync"])
    if kind in ("execute", "everyone"):
        executor.execute(last + 1, 0, _MEMO_BATCHES[pick % len(_MEMO_BATCHES)])
    elif kind in ("transfer", "resync"):
        tables = [peer.store.snapshot() for peer in executors] + list(_MEMO_TABLES)
        table = tables[pick % len(tables)]
        if kind == "transfer":
            executor.fast_forward(last + 1 + depth % 2, 0, b"d", table)
        else:
            divergent_from = marked + 1 + depth % (last - marked + 1)
            executor.resync(max(last, divergent_from), 0, b"d", table,
                            divergent_from=divergent_from)
    elif kind == "rollback":
        executor.rollback_to(max(marked, last - 1 - depth % 3))
    else:
        executor.prune_before(last - depth % 3)


def _memo_view(executor):
    records = [executor.executed(seq)
               for seq in range(executor.last_executed_sequence + 1)]
    return (executor.store.snapshot(),
            [(record.result_digest, tuple(record.undo))
             for record in records if record is not None])


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=3, max_value=4),
       st.lists(_MEMO_STEP, min_size=1, max_size=40))
def test_a_shared_memo_changes_nothing_an_executor_does(count, steps):
    """Property: executors sharing one memo, driven through any
    interleaving of executes (by one executor or by all), transferred
    tables, resyncs, rollbacks at or above the pruned mark and prunes,
    hold the tables, result digests and undo logs the same executors hold
    with a private memo each."""
    initial = {"a": "0", "b": "0"}

    def executors():
        return [SpeculativeExecutor(KeyValueStore(initial), Blockchain("replica:0"))
                for _ in range(count)]

    shared, private = executors(), executors()
    memo = ExecutionMemo()
    for executor in shared:
        executor.share(memo)
    for step in steps:
        # "everyone" executes one batch on every executor, starting with
        # the drawn one, as replicas do; any other step runs on one.
        first = step[1] % count
        indices = ([(first + k) % count for k in range(count)]
                   if step[0] == "everyone" else [first])
        for index in indices:
            _memo_step(shared[index], step, shared)
            _memo_step(private[index], step, private)
        assert ([_memo_view(executor) for executor in shared]
                == [_memo_view(executor) for executor in private]), step


def test_four_replicas_execute_each_batch_once():
    """Equal tables share: of four executors that run one batch, only the
    first applies it, and all four hold the one undo log."""
    memo = ExecutionMemo()
    executors = [SpeculativeExecutor(KeyValueStore({"b": "0"}), Blockchain("r"))
                 for _ in range(4)]
    for executor in executors:
        executor.share(memo)
    records = [executor.execute(0, 0, _MEMO_BATCHES[0]) for executor in executors]
    assert (memo.misses, memo.hits) == (1, 3)
    assert len({id(record.undo) for record in records}) == 1
    assert all(executor.store.snapshot() == {"a": "1", "b": "0"}
               for executor in executors)


def test_a_rollback_across_a_transferred_table_takes_a_fresh_version():
    """A record executed before a transferred table was installed reverts
    onto that table, not onto the one it executed on: the executor must
    not claim the version it executed from, or a peer still at that
    version would hand it entries for another table."""
    def run(share):
        lagging, peer = (SpeculativeExecutor(KeyValueStore({"b": "0"}),
                                             Blockchain("r")) for _ in range(2))
        if share:
            memo = ExecutionMemo()
            lagging.share(memo)
            peer.share(memo)
        lagging.execute(0, 0, _MEMO_BATCHES[0])
        lagging.fast_forward(3, 0, b"d", {"a": "9", "b": "9"})
        lagging.rollback_to(-1)
        for executor in (peer, lagging):
            executor.execute(0, 0, _MEMO_BATCHES[1])
        return [_memo_view(executor) for executor in (lagging, peer)]

    assert run(share=True) == run(share=False)


def test_a_memo_is_shared_only_from_the_initial_table():
    executor = SpeculativeExecutor(KeyValueStore(), Blockchain("r"))
    executor.execute(0, 0, _MEMO_BATCHES[0])
    with pytest.raises(ValueError):
        executor.share(ExecutionMemo())


def test_the_memo_lets_go_at_a_stable_checkpoint():
    executor = SpeculativeExecutor(KeyValueStore(), Blockchain("r"))
    for sequence, batch in enumerate(_MEMO_BATCHES):
        executor.execute(sequence, 0, batch)
    executor.prune_before(1)
    assert sorted(entry[4] for entry in executor.memo.values()) == [2, 3]

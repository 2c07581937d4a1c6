"""Tests for the shared protocol framework: config, actions, batching, checkpoints."""

import pytest

from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.protocols.base import (
    BASE_MESSAGE_SIZE,
    Broadcast,
    CancelTimer,
    Message,
    NodeConfig,
    ProtocolNode,
    Send,
    SetTimer,
    StepOutput,
)
from repro.protocols.batching import Batcher
from repro.protocols.checkpoint import CheckpointTracker
from repro.workload.transactions import Transaction


def make_config(n, **kwargs):
    return NodeConfig(replica_ids=[f"replica:{i}" for i in range(n)], **kwargs)


class TestNodeConfig:
    @pytest.mark.parametrize("n,f,nf", [(4, 1, 3), (7, 2, 5), (16, 5, 11),
                                        (31, 10, 21), (91, 30, 61)])
    def test_fault_threshold_and_quorums(self, n, f, nf):
        config = make_config(n)
        assert config.f == f
        assert config.nf == nf

    def test_primary_rotates_with_view(self):
        config = make_config(4)
        assert config.primary_of_view(0) == "replica:0"
        assert config.primary_of_view(1) == "replica:1"
        assert config.primary_of_view(5) == "replica:1"

    def test_proposal_size_scales_with_batch(self):
        config = make_config(4, batch_size=100)
        assert config.proposal_size_bytes(100) > config.proposal_size_bytes(10)
        # Matches the paper's reported ~5400 B PROPOSE for a batch of 100.
        assert 5000 <= config.proposal_size_bytes(100) <= 6000

    def test_reply_size_matches_paper_scale(self):
        config = make_config(4)
        # Paper: RESPONSE message of 1748 B for a batch of 100.
        assert 1500 <= config.reply_size_bytes(100) <= 2000

    def test_zero_payload_shrinks_messages(self):
        config = make_config(4, zero_payload=True)
        assert config.proposal_size_bytes(100) == BASE_MESSAGE_SIZE
        assert config.reply_size_bytes(100) == BASE_MESSAGE_SIZE


class TestStepOutput:
    def test_action_filters(self):
        output = StepOutput(actions=[
            Send(to="a", message=Message()),
            Broadcast(message=Message()),
            SetTimer(name="t", delay_ms=5.0),
            CancelTimer(name="t"),
        ], cpu_ms=1.0)
        assert len(output.sends()) == 1
        assert len(output.broadcasts()) == 1
        assert len(output.timers()) == 1
        assert output.cpu_ms == 1.0


class _Ping(Message):
    pass


class _Pong(Message):
    pass


class _TableNode(ProtocolNode):
    """Routes ``_Ping`` through the dispatch table, the rest to on_message."""

    def __init__(self, config, cost_model=None):
        super().__init__("replica:0", config, authenticator=None,
                         cost_model=cost_model)
        self._dispatch = {_Ping: _TableNode.handle_ping}
        self.seen = []

    def handle_ping(self, sender, message, now_ms):
        self.seen.append("table")
        self.send(sender, _Pong())
        self.charge(CryptoOp.MAC_VERIFY, 3)

    def on_message(self, sender, message, now_ms):
        self.seen.append("on_message")

    def on_timer(self, name, payload, now_ms):
        self.set_timer(name, 2.0, payload)
        self.add_cpu(0.5)


class TestNodeEntryPoints:
    def test_deliver_routes_by_exact_class_and_drains_the_step(self):
        node = _TableNode(make_config(4))
        output = node.deliver("replica:1", _Ping(), 1.0)
        assert [type(a) for a in output.actions] == [Send]
        assert output.cpu_ms == pytest.approx(
            node.config.base_processing_ms
            + 3 * node.costs.cost(CryptoOp.MAC_VERIFY))
        other = node.deliver("replica:1", _Pong(), 2.0)
        assert node.seen == ["table", "on_message"]
        # Each step owns its output; the node starts the next one clean.
        assert other.actions == [] and other.actions is not output.actions
        assert other.cpu_ms == node.config.base_processing_ms
        assert node._pending_actions == [] and node._pending_cpu_ms == 0.0

    def test_timer_step_charges_no_base_cost(self):
        node = _TableNode(make_config(4))
        output = node.timer_fired("tick", "p", 1.0)
        assert [(a.name, a.payload) for a in output.timers()] == [("tick", "p")]
        assert output.cpu_ms == 0.5

    def test_crashed_node_does_nothing(self):
        node = _TableNode(make_config(4))
        node.crashed = True
        assert node.deliver("replica:1", _Ping(), 1.0) == StepOutput()
        assert node.timer_fired("tick", None, 1.0) == StepOutput()
        assert node.seen == []

    def test_a_raising_handler_leaves_its_partial_step_pending(self):
        # The documented contract: nothing unwinds a step that raises, so
        # a caller that catches the error and keeps driving the same node
        # gets the partial actions with the next step's output.
        node = _TableNode(make_config(4))

        def failing(node, sender, message, now_ms):
            node.send(sender, _Pong())
            raise RuntimeError("handler failed")

        node._dispatch = {_Ping: failing}
        with pytest.raises(RuntimeError):
            node.deliver("replica:1", _Ping(), 1.0)
        assert [type(a) for a in node._pending_actions] == [Send]
        output = node.deliver("replica:1", _Pong(), 2.0)
        assert [type(a) for a in output.actions] == [Send]
        assert output.cpu_ms == node.config.base_processing_ms
        assert node._pending_actions == []

    def test_charge_reads_every_operation_of_the_model(self):
        costs = {op: 0.001 * (position + 1)
                 for position, op in enumerate(CryptoOp)}
        node = _TableNode(make_config(4), CryptoCostModel(costs_ms=costs))
        assert [op.ordinal for op in CryptoOp] == list(range(len(CryptoOp)))
        for op in CryptoOp:
            node.charge(op, 2)
            assert node._collect().cpu_ms == pytest.approx(2 * costs[op])


class TestBatcher:
    def _txns(self, count):
        return [Transaction(txn_id=f"t{i}", client_id="c") for i in range(count)]

    def test_emits_batch_when_full(self):
        batcher = Batcher(batch_size=3, owner_id="primary")
        assert batcher.add_transactions(self._txns(2)) == []
        batches = batcher.add_transactions(self._txns(1))
        assert len(batches) == 1
        assert len(batches[0]) == 3

    def test_emits_multiple_batches_at_once(self):
        batcher = Batcher(batch_size=2)
        batches = batcher.add_transactions(self._txns(5))
        assert [len(b) for b in batches] == [2, 2]
        assert len(batcher) == 1

    def test_flush_emits_partial_batch(self):
        batcher = Batcher(batch_size=10)
        batcher.add_transactions(self._txns(4))
        partial = batcher.flush()
        assert len(partial) == 4
        assert batcher.flush() is None

    def test_reply_to_is_recorded(self):
        batcher = Batcher(batch_size=2)
        batches = batcher.add_transactions(self._txns(2), reply_to="client:9")
        assert batches[0].reply_to == "client:9"

    def test_batch_ids_are_unique(self):
        batcher = Batcher(batch_size=1)
        batches = batcher.add_transactions(self._txns(3))
        assert len({b.batch_id for b in batches}) == 3

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            Batcher(batch_size=0)


class TestCheckpointTracker:
    def test_becomes_stable_at_quorum(self):
        tracker = CheckpointTracker(quorum=3)
        tracker.record_vote(9, b"d", "r0")
        tracker.record_vote(9, b"d", "r1")
        assert tracker.stable_sequence == -1
        tracker.record_vote(9, b"d", "r2")
        assert tracker.stable_sequence == 9

    def test_duplicate_votes_do_not_count(self):
        tracker = CheckpointTracker(quorum=3)
        tracker.record_vote(9, b"d", "r0")
        tracker.record_vote(9, b"d", "r0")
        assert tracker.record_vote(9, b"d", "r0").count == 1
        assert tracker.stable_sequence == -1

    def test_mismatched_digests_do_not_combine(self):
        tracker = CheckpointTracker(quorum=2)
        tracker.record_vote(9, b"a", "r0")
        tracker.record_vote(9, b"b", "r1")
        assert tracker.stable_sequence == -1

    def test_old_checkpoints_ignored_after_stability(self):
        tracker = CheckpointTracker(quorum=2)
        tracker.record_vote(19, b"d", "r0")
        tracker.record_vote(19, b"d", "r1")
        assert tracker.record_vote(9, b"d", "r0") is None
        assert tracker.stable_sequence == 19

    def test_stability_advances_monotonically(self):
        tracker = CheckpointTracker(quorum=2)
        tracker.record_vote(9, b"d", "r0")
        tracker.record_vote(9, b"d", "r1")
        tracker.record_vote(19, b"d", "r0")
        assert tracker.stable_sequence == 9
        tracker.record_vote(19, b"d", "r1")
        assert tracker.stable_sequence == 19

"""Tests for the shared protocol framework: config, actions, batching, checkpoints."""

import pytest

from repro.protocols.base import (
    BASE_MESSAGE_SIZE,
    Broadcast,
    CancelTimer,
    Message,
    NodeConfig,
    Send,
    SetTimer,
    StepOutput,
    quorum_2f_plus_1,
    quorum_nf,
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
        assert quorum_nf(config) == nf
        assert quorum_2f_plus_1(config) == 2 * f + 1

    def test_primary_rotates_with_view(self):
        config = make_config(4)
        assert config.primary_of_view(0) == "replica:0"
        assert config.primary_of_view(1) == "replica:1"
        assert config.primary_of_view(5) == "replica:1"

    def test_replica_index_lookup(self):
        config = make_config(4)
        assert config.replica_index("replica:2") == 2

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

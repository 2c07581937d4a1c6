"""Tests for client pools: load generation, completion rules, retransmission."""

import pytest

from repro.protocols.base import NodeConfig
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.workload.clients import QUORUM_RULES, ClientPool, synthetic_batch_source

REPLICAS = [f"replica:{i}" for i in range(4)]


class SingleReplyPool(ClientPool):
    """A pool that completes on one reply (SBFT's rule)."""

    QUORUM_RULE = "1"


def make_pool(pool_cls=ClientPool, **kwargs):
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=10,
                        request_timeout_ms=100.0)
    # The default rule, "nf", is 3 of these 4 replicas.
    defaults = dict(target_outstanding=2, total_batches=5)
    defaults.update(kwargs)
    return pool_cls("client:0", config, **defaults), config


def reply(batch_id, replica, digest=b"r", view=0, sequence=0):
    return ClientReplyMessage(batch_id=batch_id, view=view, sequence=sequence,
                              result_digest=digest, replica_id=replica)


class TestLoadGeneration:
    def test_start_fills_pipeline_to_target(self):
        pool, _ = make_pool(target_outstanding=3)
        output = pool.start(0.0)
        assert pool.outstanding == 3
        assert len(output.sends()) == 3
        assert len(output.timers()) == 3

    def test_requests_go_to_current_primary(self):
        pool, _ = make_pool()
        output = pool.start(0.0)
        assert all(send.to == "replica:0" for send in output.sends())

    def test_broadcast_mode_sends_to_all_replicas(self):
        class BroadcastingPool(ClientPool):
            BROADCAST_REQUESTS = True

        pool, _ = make_pool(BroadcastingPool, target_outstanding=1)
        output = pool.start(0.0)
        assert len(output.broadcasts()) == 1

    def test_completion_triggers_next_submission(self):
        pool, _ = make_pool(target_outstanding=1, total_batches=3)
        pool.start(0.0)
        first = list(pool._pending)[0]
        for i in range(3):
            pool.deliver(f"replica:{i}", reply(first, f"replica:{i}"), 1.0)
        assert pool.completed_batches == 1
        assert pool.outstanding == 1  # the next batch was submitted

    def test_pool_stops_after_total_batches(self):
        pool, _ = make_pool(target_outstanding=2, total_batches=2)
        pool.start(0.0)
        for batch_id in list(pool._pending):
            for i in range(3):
                pool.deliver(f"replica:{i}", reply(batch_id, f"replica:{i}"), 2.0)
        assert pool.is_done()
        assert pool.outstanding == 0

    def test_unbounded_pool_is_never_done(self):
        pool, _ = make_pool(total_batches=None)
        pool.start(0.0)
        assert not pool.is_done()

    def test_closed_loop_pool_keeps_one_outstanding(self):
        """``target_outstanding=1`` is the closed-loop client of the
        out-of-order-disabled experiments: the next request goes out only
        when the previous one was accepted."""
        pool, _ = make_pool(SingleReplyPool, target_outstanding=1)
        pool.start(0.0)
        assert pool.outstanding == 1
        first = list(pool._pending)[0]
        output = pool.deliver("replica:0", reply(first, "replica:0"), 1.0)
        assert pool.completed_batches == 1
        assert pool.outstanding == 1
        assert len(output.sends()) == 1


class TestCompletionRules:
    def test_replies_from_same_replica_count_once(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for _ in range(5):
            pool.deliver("replica:1", reply(batch_id, "replica:1"), 1.0)
        assert pool.completed_batches == 0

    def test_mismatched_sequence_numbers_do_not_match(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1", reply(batch_id, "replica:1", sequence=1), 1.0)
        pool.deliver("replica:2", reply(batch_id, "replica:2", sequence=2), 1.0)
        pool.deliver("replica:3", reply(batch_id, "replica:3", sequence=3), 1.0)
        assert pool.completed_batches == 0

    def test_unknown_batch_replies_ignored(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        pool.deliver("replica:1", reply("not-a-batch", "replica:1"), 1.0)
        assert pool.completed_batches == 0

    def test_completion_records_latency_and_counts(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for i in range(3):
            pool.deliver(f"replica:{i}", reply(batch_id, f"replica:{i}"), 25.0)
        record = pool.completions[0]
        assert record.latency_ms == pytest.approx(25.0)
        assert record.num_txns == 10

    def test_view_learned_from_replies(self):
        """A view is adopted once f + 1 = 2 distinct replicas replied from
        it or above: the highest view two of them vouch for."""
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1", reply(batch_id, "replica:1", view=5), 1.0)
        pool.deliver("replica:1", reply(batch_id, "replica:1", view=9), 1.0)
        assert pool.current_view == 0
        pool.deliver("replica:2", reply(batch_id, "replica:2", view=3), 1.0)
        assert pool.current_view == 3
        pool.deliver("replica:3", reply(batch_id, "replica:3", view=7), 1.0)
        assert pool.current_view == 7

    def test_a_single_reply_pool_learns_the_view_from_one_reply(self):
        """SBFT's pool completes on the executor's one certified reply; no
        f + 1 replicas ever reply, so one reply moves the view."""
        pool, _ = make_pool(SingleReplyPool, target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1", reply(batch_id, "replica:1", view=3), 1.0)
        assert pool.current_view == 3

    def test_forged_replica_ids_count_as_the_transport_sender(self):
        """The vectorised reply bitset stays keyed by the wire sender: one
        Byzantine replica cannot mint a quorum of forged INFORMs."""
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for forged in ("replica:1", "replica:2", "replica:3"):
            pool.deliver("replica:1", reply(batch_id, forged), 1.0)
        assert pool.completed_batches == 0
        voters = pool._pending[batch_id].replies
        assert all(votes.count == 1 for votes in voters.values())

    def test_replies_from_unknown_senders_still_count(self):
        """Senders outside the replica membership (e.g. an SBFT executor
        answering from a fresh id in tests) go through the bitset's
        overflow path rather than being dropped."""
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1", reply(batch_id, "replica:1"), 1.0)
        pool.deliver("stranger:a", reply(batch_id, "stranger:a"), 1.0)
        pool.deliver("stranger:b", reply(batch_id, "stranger:b"), 1.0)
        assert pool.completed_batches == 1


class TestCompletionRuleTable:
    """The completion rule is written once: ``QUORUM_RULES``."""

    @pytest.mark.parametrize("rule,by_n", [
        ("nf", {4: 3, 7: 5, 16: 11}),
        ("f+1", {4: 2, 7: 3, 16: 6}),
        ("n", {4: 4, 7: 7, 16: 16}),
        ("1", {4: 1, 7: 1, 16: 1}),
    ])
    def test_rules(self, rule, by_n):
        assert {n: QUORUM_RULES[rule](n, (n - 1) // 3) for n in by_n} == by_n

    def test_the_table_has_exactly_the_four_rules(self):
        assert sorted(QUORUM_RULES) == ["1", "f+1", "n", "nf"]

    def test_every_protocol_states_its_rule_on_the_pool_class(self):
        from repro.fabric.registry import PROTOCOLS
        from repro.fabric.sharding import ShardedClusterConfig, layout_for_config

        expected = {"poe": "nf", "poe-ts": "nf", "poe-mac": "nf", "poe-nospec": "nf",
                    "pbft": "f+1", "hotstuff": "f+1", "zyzzyva": "n", "sbft": "1"}
        assert {name: spec.client_quorum for name, spec in PROTOCOLS.items()} == expected
        config = NodeConfig(replica_ids=[f"replica:{i}" for i in range(7)])
        for name, spec in PROTOCOLS.items():
            pool_cls = spec.client_pool_cls
            pool = pool_cls("client:0", config)
            assert pool.completion_quorum == QUORUM_RULES[spec.client_quorum](7, 2)
            assert pool.broadcast_requests is spec.broadcast_requests
            assert spec.broadcast_requests is (name == "hotstuff")
            # A protocol's pool only names its rule; Zyzzyva's adds state.
            assert ("__init__" in vars(pool_cls)) is (name == "zyzzyva")
            if name != "sbft":  # rejected by the sharded config validation
                layout = layout_for_config(ShardedClusterConfig(
                    num_shards=1, protocols=name, num_replicas=7))
                assert layout.reply_quorum(0) == pool.completion_quorum
                assert layout.wants_broadcast(0) is spec.broadcast_requests


class TestRetransmission:
    def test_timeout_broadcasts_to_all_replicas(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        output = pool.timer_fired(f"request:{batch_id}", batch_id, 150.0)
        broadcasts = output.broadcasts()
        assert len(broadcasts) == 1
        assert isinstance(broadcasts[0].message, ClientRequestMessage)
        assert broadcasts[0].message.retransmission

    def test_retransmission_uses_exponential_backoff(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        first = pool.timer_fired(f"request:{batch_id}", batch_id, 150.0)
        second = pool.timer_fired(f"request:{batch_id}", batch_id, 400.0)
        assert first.timers()[0].delay_ms < second.timers()[0].delay_ms

    def test_timeout_for_completed_batch_is_ignored(self):
        pool, _ = make_pool(target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for i in range(3):
            pool.deliver(f"replica:{i}", reply(batch_id, f"replica:{i}"), 1.0)
        output = pool.timer_fired(f"request:{batch_id}", batch_id, 150.0)
        assert output.actions == []


class TestBatchSources:
    def test_synthetic_source_produces_unique_sized_batches(self):
        source = synthetic_batch_source("client:0", 42)
        a = source(0, 1.0)
        b = source(1, 2.0)
        assert len(a) == 42
        assert a.batch_id != b.batch_id
        assert a.created_at_ms == 1.0


def test_one_reply_from_a_higher_view_does_not_redirect_the_pool():
    """One injected reply from replica:3 claiming view 7: the pool keeps
    sending to the primary instead of waiting out every request's timeout
    at a backup."""
    from repro.fabric.cluster import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(protocol="poe-mac", num_replicas=4,
                                    total_batches=40, seed=1))
    cluster.start()
    pool = cluster.pools[0]
    cluster.network.inject("replica:3", pool.node_id, ClientReplyMessage(
        batch_id=next(iter(pool._pending)), view=7, sequence=0,
        result_digest=b"forged", replica_id="replica:3"))
    end_ms = cluster.run_until_done(max_ms=60_000)
    assert pool.current_view == 0 and pool.completed_batches == 40
    assert end_ms <= 1_000.0
    assert max(record.latency_ms for record in pool.completions) < 100.0


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft"])
def test_a_batch_smaller_than_batch_size_completes(protocol):
    # A primary proposes a client's batch as it came: proposed under
    # another id, it would never be answered under the client's own id,
    # and the client's retransmissions would be dropped as already seen.
    from repro.fabric.cluster import Cluster, ClusterConfig
    from repro.workload.ycsb import YcsbConfig, YcsbWorkload

    cluster = Cluster(ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=10, total_batches=6,
        use_ycsb_payload=True, seed=3))
    for pool in cluster.pools:
        workload = YcsbWorkload(YcsbConfig.small(seed=3), client_id=pool.node_id)
        pool.batch_source = (
            lambda index, now_ms, workload=workload, reply_to=pool.node_id:
            workload.next_batch(5, created_at_ms=now_ms, reply_to=reply_to))
    cluster.start()
    cluster.run_until_done(max_ms=5_000)
    assert [pool.completed_batches for pool in cluster.pools] == [6]

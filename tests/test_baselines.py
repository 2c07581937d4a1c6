"""Tests for the baseline protocols: PBFT, Zyzzyva, SBFT and HotStuff."""

import pytest

from repro.crypto.authenticator import make_authenticators
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.net.faults import FaultSchedule
from repro.protocols.base import NodeConfig
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pbft import (
    PbftCommit,
    PbftClientPool,
    PbftPrepare,
    PbftReplica,
)
from repro.protocols.zyzzyva import (
    ZyzzyvaClientPool,
    ZyzzyvaCommitCertificate,
    ZyzzyvaLocalCommit,
    ZyzzyvaOrderRequest,
    ZyzzyvaReplica,
)
from repro.workload.transactions import make_no_op_batch
from repro.workload.ycsb import YcsbConfig

from tests.helpers import SyncRouter

REPLICAS = [f"replica:{i}" for i in range(4)]


def run_cluster(protocol, total_batches=10, num_replicas=4, faults=None,
                execute=True, **kwargs):
    config = ClusterConfig(
        protocol=protocol,
        num_replicas=num_replicas,
        batch_size=10,
        num_clients=1,
        client_outstanding=4,
        total_batches=total_batches,
        execute_operations=execute,
        use_ycsb_payload=execute,
        ycsb=YcsbConfig(num_records=200, seed=7),
        checkpoint_interval=20,
        faults=faults,
        seed=7,
        **kwargs,
    )
    cluster = Cluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=120_000)
    return cluster


class TestPbft:
    def test_cluster_completes_and_replicas_agree(self):
        cluster = run_cluster("pbft")
        assert all(pool.is_done() for pool in cluster.pools)
        digests = {replica.executor.state_digest() for replica in cluster.replicas}
        assert len(digests) == 1
        assert all(replica.blockchain.verify_chain() for replica in cluster.replicas)

    def test_pbft_client_quorum_is_f_plus_1(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1)
        pool = PbftClientPool("client:0", config, total_batches=1,
                              target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1",
                     ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                        result_digest=b"r", replica_id="replica:1"),
                     1.0)
        assert pool.completed_batches == 0
        pool.deliver("replica:2",
                     ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                        result_digest=b"r", replica_id="replica:2"),
                     2.0)
        assert pool.completed_batches == 1

    def test_pbft_message_flow_is_quadratic(self):
        """PREPARE and COMMIT are all-to-all broadcasts from every replica."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=5,
                            execute_operations=True)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=b"pbft-flow")
        router = SyncRouter()
        replicas = [PbftReplica(rid, config, auths[rid]) for rid in REPLICAS]
        for replica in replicas:
            router.add_replica(replica)
        pool = PbftClientPool(
            "client:0", config,
            batch_source=lambda i, now: make_no_op_batch(f"b{i}", "client:0", 5, now),
            total_batches=1, target_outstanding=1)
        router.add_client(pool)
        router.start_all()
        router.flush()
        prepares = [m for (_, _, m) in router.delivered if isinstance(m, PbftPrepare)]
        commits = [m for (_, _, m) in router.delivered if isinstance(m, PbftCommit)]
        # Every replica broadcasts to the n-1 others in both phases.
        assert len(prepares) == 4 * 3
        assert len(commits) == 4 * 3
        assert pool.is_done()

    def test_pbft_survives_backup_crash(self):
        faults = FaultSchedule.single_backup_crash(replica_id(3), at_ms=0.0)
        cluster = run_cluster("pbft", faults=faults, execute=False)
        assert all(pool.is_done() for pool in cluster.pools)

    def test_pbft_view_change_on_primary_crash(self):
        faults = FaultSchedule.primary_crash(replica_id(0), at_ms=1.0)
        cluster = run_cluster("pbft", faults=faults, execute=False,
                              request_timeout_ms=100.0)
        live = [replica for replica in cluster.replicas if not replica.crashed]
        assert all(pool.is_done() for pool in cluster.pools)
        assert all(replica.view >= 1 for replica in live)


class TestZyzzyva:
    def test_fault_free_cluster_completes(self):
        cluster = run_cluster("zyzzyva")
        assert all(pool.is_done() for pool in cluster.pools)
        digests = {replica.executor.state_digest() for replica in cluster.replicas}
        assert len(digests) == 1

    def test_replicas_execute_immediately_from_order_request(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=5,
                            execute_operations=True)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=b"zyz")
        replica = ZyzzyvaReplica("replica:1", config, auths["replica:1"])
        batch = make_no_op_batch("b0", "client:0", 5)
        order = ZyzzyvaOrderRequest(view=0, sequence=0, batch=batch,
                                    history_digest=b"h0")
        output = replica.deliver("replica:0", order, 1.0)
        assert replica.executed_batches == 1
        replies = [a.message for a in output.sends()
                   if isinstance(a.message, ClientReplyMessage)]
        assert len(replies) == 1
        assert replies[0].speculative

    def test_client_requires_all_n_matching_replies(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1)
        pool = ZyzzyvaClientPool("client:0", config, total_batches=1,
                                 target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for i in range(3):
            pool.deliver(f"replica:{i}",
                         ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                            result_digest=b"r",
                                            replica_id=f"replica:{i}"),
                         float(i))
        assert pool.completed_batches == 0  # 3 of 4 is not enough on the fast path

    def test_client_falls_back_to_commit_certificates_on_timeout(self):
        """With 2f+1 matching replies and a timeout, the client runs the
        commit-certificate phase and completes after 2f+1 LOCAL-COMMITs."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1,
                            request_timeout_ms=50.0)
        pool = ZyzzyvaClientPool("client:0", config, total_batches=1,
                                 target_outstanding=1, timeout_ms=50.0)
        output = pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for i in range(3):
            pool.deliver(f"replica:{i}",
                         ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                            result_digest=b"r",
                                            replica_id=f"replica:{i}"),
                         float(i))
        timeout_output = pool.timer_fired(f"request:{batch_id}", batch_id, 51.0)
        certs = [a for a in timeout_output.broadcasts()
                 if isinstance(a.message, ZyzzyvaCommitCertificate)]
        assert len(certs) == 1
        assert len(certs[0].message.responders) == 3
        for i in range(3):
            pool.deliver(f"replica:{i}",
                         ZyzzyvaLocalCommit(batch_id=batch_id, view=0, sequence=0,
                                            replica_id=f"replica:{i}"),
                         60.0 + i)
        assert pool.completed_batches == 1

    def _executed_replica(self, seed):
        """A replica that speculatively executed one batch at sequence 0."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=5,
                            execute_operations=True)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=seed)
        replica = ZyzzyvaReplica("replica:1", config, auths["replica:1"])
        batch = make_no_op_batch("b0", "client:0", 5)
        replica.deliver("replica:0",
                        ZyzzyvaOrderRequest(view=0, sequence=0, batch=batch,
                                            history_digest=b"h0"), 1.0)
        return replica, replica.executor.executed(0).result_digest

    def _acks(self, output):
        return [a.message for a in output.sends()
                if isinstance(a.message, ZyzzyvaLocalCommit)]

    def test_replica_acknowledges_valid_commit_certificate(self):
        replica, result_digest = self._executed_replica(b"zyz-cc")
        cert = ZyzzyvaCommitCertificate(
            batch_id="b0", view=0, sequence=0, result_digest=result_digest,
            responders=("replica:0", "replica:1", "replica:2"),
            client_id="client:0")
        output = replica.deliver("client:0", cert, 2.0)
        assert len(self._acks(output)) == 1

    def test_replica_rejects_undersized_commit_certificate(self):
        replica, result_digest = self._executed_replica(b"zyz-cc2")
        cert = ZyzzyvaCommitCertificate(
            batch_id="b0", view=0, sequence=0, result_digest=result_digest,
            responders=("replica:0", "replica:1"), client_id="client:0")
        output = replica.deliver("client:0", cert, 2.0)
        assert self._acks(output) == []

    def test_replica_rejects_forged_commit_certificates(self):
        """Regression: a certificate is client input — fabricated responder
        ids, a result digest the replica never computed, a slot it never
        executed or a stale view must all fail to earn a LOCAL-COMMIT."""
        replica, result_digest = self._executed_replica(b"zyz-cc3")
        fake_responders = ZyzzyvaCommitCertificate(
            batch_id="b0", view=0, sequence=0, result_digest=result_digest,
            responders=("replica:0", "ghost:1", "ghost:2"), client_id="client:0")
        wrong_digest = ZyzzyvaCommitCertificate(
            batch_id="b0", view=0, sequence=0, result_digest=b"forged",
            responders=("replica:0", "replica:1", "replica:2"),
            client_id="client:0")
        never_executed = ZyzzyvaCommitCertificate(
            batch_id="b9", view=0, sequence=9, result_digest=result_digest,
            responders=("replica:0", "replica:1", "replica:2"),
            client_id="client:0")
        stale_view = ZyzzyvaCommitCertificate(
            batch_id="b0", view=3, sequence=0, result_digest=result_digest,
            responders=("replica:0", "replica:1", "replica:2"),
            client_id="client:0")
        for forged in (fake_responders, wrong_digest, never_executed, stale_view):
            output = replica.deliver("client:0", forged, 2.0)
            assert self._acks(output) == [], forged
        assert replica.local_commits_sent == 0

    def test_single_backup_crash_forces_slow_completion(self):
        """Even one crashed backup pushes every request through the timeout."""
        faults = FaultSchedule.single_backup_crash(replica_id(3), at_ms=0.0)
        cluster = run_cluster("zyzzyva", total_batches=3, faults=faults,
                              execute=False, request_timeout_ms=40.0)
        assert all(pool.is_done() for pool in cluster.pools)
        result = cluster.result(warmup_fraction=0.0)
        assert result.avg_latency_ms >= 40.0
        assert cluster.pools[0].commit_certificates_sent >= 3


class TestSbft:
    def test_fault_free_cluster_completes(self):
        cluster = run_cluster("sbft")
        assert all(pool.is_done() for pool in cluster.pools)
        digests = {replica.executor.state_digest() for replica in cluster.replicas}
        assert len(digests) == 1
        assert all(replica.slow_path_slots == 0 for replica in cluster.replicas)

    def test_execute_ack_completes_client_with_single_reply(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1)
        from repro.protocols.sbft import SbftClientPool
        pool = SbftClientPool("client:0", config, total_batches=1,
                              target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1",
                     ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                        result_digest=b"r", replica_id="replica:1"),
                     1.0)
        assert pool.completed_batches == 1

    def test_backup_crash_triggers_slow_path(self):
        faults = FaultSchedule.single_backup_crash(replica_id(3), at_ms=0.0)
        cluster = run_cluster("sbft", total_batches=5, faults=faults, execute=False)
        assert all(pool.is_done() for pool in cluster.pools)
        collector = cluster.replicas[0]
        assert collector.slow_path_slots >= 5
        result = cluster.result(warmup_fraction=0.0)
        # Every slot pays the collector timeout before falling back.
        assert result.avg_latency_ms >= 50.0


class TestHotStuff:
    def test_fault_free_cluster_completes(self):
        cluster = run_cluster("hotstuff")
        assert all(pool.is_done() for pool in cluster.pools)
        digests = {replica.executor.state_digest() for replica in cluster.replicas}
        assert len(digests) == 1

    def test_leaders_rotate_across_rounds(self):
        cluster = run_cluster("hotstuff", total_batches=8, execute=False)
        leaders = {replica.node_id: replica.rounds_started
                   for replica in cluster.replicas}
        # More than one replica must have acted as leader.
        assert sum(1 for count in leaders.values() if count > 0) >= 2

    def test_commit_needs_three_chain(self):
        """A proposed block only executes once the chain extends 3 rounds past it."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=5,
                            execute_operations=True)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=b"hotstuff-chain")
        router = SyncRouter()
        replicas = [HotStuffReplica(rid, config, auths[rid]) for rid in REPLICAS]
        for replica in replicas:
            router.add_replica(replica)
        router.start_all()
        batch = make_no_op_batch("b0", "client:0", 5)
        request = ClientRequestMessage(batch=batch, reply_to="client:0")
        # Broadcast the request to every replica (HotStuff clients do this).
        for rid in REPLICAS:
            router.send("client:0", rid, request)
        router.flush()
        # One real block plus dummy blocks to flush the pipeline; every
        # replica eventually executes exactly one batch.
        assert all(replica.executed_batches == 1 for replica in replicas)
        assert all(replica.last_executed_sequence == 0 for replica in replicas)

    def test_round_leader_skipped_after_pacemaker_timeout(self):
        """A crashed replica's round is skipped so the chain keeps growing."""
        faults = FaultSchedule.single_backup_crash(replica_id(1), at_ms=0.0)
        cluster = run_cluster("hotstuff", total_batches=6, faults=faults,
                              execute=False)
        assert all(pool.is_done() for pool in cluster.pools)
        live = [replica for replica in cluster.replicas if not replica.crashed]
        assert any(replica.pacemaker_timeouts > 0 for replica in live)


class TestNoFaultRunsNeverNeedTheRetransmitTimer:
    """A no-fault run completes every batch below the client timeout.

    Checkpoint boundaries are where this broke: SBFT used to delete the
    boundary slot — and the executor's partly collected state shares — the
    moment the checkpoint stabilised, and the batch then completed only
    through the client's retransmission.  The fault matrix called that
    live, because the batch did complete.
    """

    PROTOCOLS = ("poe-mac", "poe-ts", "pbft", "sbft", "zyzzyva", "hotstuff")

    @staticmethod
    def slow_batches(protocol, num_replicas, checkpoint_interval, seed):
        config = ClusterConfig(
            protocol=protocol, num_replicas=num_replicas, batch_size=10,
            total_batches=60, checkpoint_interval=checkpoint_interval, seed=seed)
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=600_000.0)
        completions = cluster.completions()
        assert len(completions) == 60
        return sorted(record.sequence for record in completions
                      if record.latency_ms >= config.request_timeout_ms)

    @pytest.mark.parametrize("checkpoint_interval", [1, 2, 10, 50])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_n4_across_checkpoint_intervals(self, protocol, checkpoint_interval):
        for seed in (3, 7, 11):
            assert self.slow_batches(protocol, 4, checkpoint_interval, seed) == []

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_n16(self, protocol):
        assert self.slow_batches(protocol, 16, 10, seed=3) == []

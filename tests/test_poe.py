"""Tests for PoE's normal case: speculative execution via PROPOSE/SUPPORT/CERTIFY."""

import pytest

from repro.core.client import PoeClientPool
from repro.core.messages import PoeCertify, PoePropose, PoeSupport
from repro.core.replica import PoeReplica
from repro.crypto.authenticator import SchemeKind, make_authenticators
from repro.fabric.cluster import Cluster, ClusterConfig
from repro.protocols.base import NodeConfig
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.workload.transactions import make_no_op_batch
from repro.workload.ycsb import YcsbConfig

from tests.helpers import SyncRouter

REPLICAS = [f"replica:{i}" for i in range(4)]


def build_poe_system(scheme=SchemeKind.THRESHOLD, batch_size=5, out_of_order=True,
                     total_batches=4, execute=True):
    """Wire four PoE replicas and one client pool through a SyncRouter."""
    config = NodeConfig(
        replica_ids=list(REPLICAS),
        batch_size=batch_size,
        request_timeout_ms=1000.0,
        checkpoint_interval=100,
        execute_operations=execute,
        out_of_order=out_of_order,
    )
    auths = make_authenticators(REPLICAS, ["client:0"], seed=b"poe-tests")
    router = SyncRouter()
    replicas = []
    for rid in REPLICAS:
        replica = PoeReplica(rid, config, auths[rid], scheme=scheme)
        replicas.append(replica)
        router.add_replica(replica)
    pool = PoeClientPool(
        "client:0", config,
        batch_source=lambda index, now: make_no_op_batch(
            f"client:0:batch:{index}", "client:0", batch_size, created_at_ms=now),
        target_outstanding=2,
        total_batches=total_batches,
    )
    router.add_client(pool)
    return router, replicas, pool, config


class TestPoeNormalCaseThreshold:
    def test_all_batches_complete_for_the_client(self):
        router, replicas, pool, _ = build_poe_system()
        router.start_all()
        router.flush()
        assert pool.is_done()
        assert pool.completed_batches == 4

    def test_all_replicas_execute_identically(self):
        router, replicas, pool, _ = build_poe_system()
        router.start_all()
        router.flush()
        heads = {replica.blockchain.head.block_hash for replica in replicas}
        digests = {replica.executor.state_digest() for replica in replicas}
        assert len(heads) == 1
        assert len(digests) == 1
        assert all(replica.executed_batches == 4 for replica in replicas)

    def test_blockchains_are_valid(self):
        router, replicas, pool, _ = build_poe_system()
        router.start_all()
        router.flush()
        assert all(replica.blockchain.verify_chain() for replica in replicas)
        assert all(len(replica.blockchain) == 4 for replica in replicas)

    def test_message_flow_is_linear(self):
        """TS mode: SUPPORT goes only to the primary, never all-to-all."""
        router, replicas, pool, _ = build_poe_system(total_batches=1)
        router.start_all()
        router.flush()
        supports = [(s, r) for (s, r, m) in router.delivered
                    if isinstance(m, PoeSupport)]
        assert supports, "expected SUPPORT messages"
        assert all(receiver == "replica:0" for _, receiver in supports)
        certifies = [m for (_, _, m) in router.delivered if isinstance(m, PoeCertify)]
        assert len(certifies) == 3  # broadcast from the primary to 3 backups

    def test_replies_are_marked_speculative(self):
        router, replicas, pool, _ = build_poe_system(total_batches=1)
        router.start_all()
        router.flush()
        replies = [m for (_, _, m) in router.delivered
                   if isinstance(m, ClientReplyMessage)]
        assert replies
        assert all(reply.speculative for reply in replies)

    def test_client_needs_nf_matching_replies(self):
        """Fewer than nf matching INFORMs must not complete the request."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1)
        pool = PoeClientPool("client:0", config, total_batches=1,
                             target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        reply = ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                   result_digest=b"r", replica_id="replica:1")
        pool.deliver("replica:1", reply, 1.0)
        pool.deliver("replica:2",
                     ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                        result_digest=b"r", replica_id="replica:2"),
                     2.0)
        assert pool.completed_batches == 0
        pool.deliver("replica:3",
                     ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                        result_digest=b"r", replica_id="replica:3"),
                     3.0)
        assert pool.completed_batches == 1

    def test_mismatching_replies_do_not_complete(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1)
        pool = PoeClientPool("client:0", config, total_batches=1,
                             target_outstanding=1)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for i, digest_value in enumerate([b"a", b"b", b"c"]):
            pool.deliver(f"replica:{i+1}",
                         ClientReplyMessage(batch_id=batch_id, view=0, sequence=0,
                                            result_digest=digest_value,
                                            replica_id=f"replica:{i+1}"),
                         float(i))
        assert pool.completed_batches == 0

    def test_duplicate_request_gets_cached_reply(self):
        router, replicas, pool, config = build_poe_system(total_batches=1)
        router.start_all()
        router.flush()
        primary = replicas[0]
        batch = pool.completions[0]
        request = ClientRequestMessage(
            batch=make_no_op_batch(batch.batch_id, "client:0", 5),
            reply_to="client:0")
        output = primary.deliver("client:0", request, 100.0)
        sends = output.sends()
        assert len(sends) == 1
        assert isinstance(sends[0].message, ClientReplyMessage)
        assert sends[0].message.batch_id == batch.batch_id


class TestPoeNormalCaseMacs:
    def test_mac_mode_completes_and_matches_threshold_mode(self):
        router, replicas, pool, _ = build_poe_system(scheme=SchemeKind.MACS)
        router.start_all()
        router.flush()
        assert pool.is_done()
        assert all(replica.executed_batches == 4 for replica in replicas)
        assert len({replica.executor.state_digest() for replica in replicas}) == 1

    def test_mac_mode_support_is_all_to_all(self):
        router, replicas, pool, _ = build_poe_system(scheme=SchemeKind.MACS,
                                                     total_batches=1)
        router.start_all()
        router.flush()
        supports = [(s, r) for (s, r, m) in router.delivered
                    if isinstance(m, PoeSupport)]
        receivers = {receiver for _, receiver in supports}
        assert len(receivers) == 4  # every replica receives SUPPORT messages
        certifies = [m for (_, _, m) in router.delivered if isinstance(m, PoeCertify)]
        assert certifies == []  # MAC mode has no CERTIFY phase

    def test_scheme_auto_selection_follows_paper_guidance(self):
        small = NodeConfig(replica_ids=[f"r{i}" for i in range(4)])
        large = NodeConfig(replica_ids=[f"r{i}" for i in range(32)])
        auths_small = make_authenticators(small.replica_ids, seed=b"auto-small")
        auths_large = make_authenticators(large.replica_ids, seed=b"auto-large")
        assert PoeReplica("r0", small, auths_small["r0"]).scheme is SchemeKind.MACS
        assert PoeReplica("r0", large, auths_large["r0"]).scheme is SchemeKind.THRESHOLD


class TestPoeOutOfOrder:
    def _primary_with_requests(self, out_of_order):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            out_of_order=out_of_order, execute_operations=False)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=b"ooo")
        primary = PoeReplica("replica:0", config, auths["replica:0"])
        outputs = []
        for i in range(3):
            request = ClientRequestMessage(
                batch=make_no_op_batch(f"b{i}", "client:0", 2), reply_to="client:0")
            outputs.append(primary.deliver("client:0", request, float(i)))
        return primary, outputs

    def test_out_of_order_primary_pipelines_proposals(self):
        primary, outputs = self._primary_with_requests(out_of_order=True)
        proposals = [a for out in outputs for a in out.broadcasts()
                     if isinstance(a.message, PoePropose)]
        assert len(proposals) == 3
        assert [p.message.sequence for p in proposals] == [0, 1, 2]

    def test_sequential_primary_waits_for_execution(self):
        primary, outputs = self._primary_with_requests(out_of_order=False)
        proposals = [a for out in outputs for a in out.broadcasts()
                     if isinstance(a.message, PoePropose)]
        assert len(proposals) == 1
        assert len(primary._batch_queue) == 2


class TestPoeByzantinePrimary:
    def test_equivocation_cannot_certify_two_batches_for_same_slot(self):
        """Proposition 2: at most one batch view-commits per (view, sequence)."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            execute_operations=True)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=b"equivocation")
        backups = {rid: PoeReplica(rid, config, auths[rid],
                                   scheme=SchemeKind.THRESHOLD)
                   for rid in REPLICAS[1:]}
        batch_a = make_no_op_batch("batch-A", "client:0", 2)
        batch_b = make_no_op_batch("batch-B", "client:0", 2)
        # The byzantine primary proposes A to replicas 1 and 2, B to replica 3.
        shares = []
        for rid in ["replica:1", "replica:2"]:
            out = backups[rid].deliver(
                "replica:0", PoePropose(view=0, sequence=0, batch=batch_a), 1.0)
            shares.extend(s.message.share for s in out.sends())
        out_b = backups["replica:3"].deliver(
            "replica:0", PoePropose(view=0, sequence=0, batch=batch_b), 1.0)
        shares_b = [s.message.share for s in out_b.sends()]
        # Even with its own share, the primary cannot reach nf = 3 shares for
        # B, so only A can ever be certified.
        primary_auth = auths["replica:0"]
        from repro.core.view_change import proposal_digest
        digest_a = proposal_digest(0, 0, batch_a.digest())
        scheme, index = primary_auth.threshold, primary_auth.threshold_index
        shares.append(scheme.sign_share(index, digest_a))
        certificate_a = primary_auth.threshold.aggregate(shares)
        assert primary_auth.threshold.verify(certificate_a, digest_a)
        digest_b = proposal_digest(0, 0, batch_b.digest())
        from repro.crypto.threshold import ThresholdError
        with pytest.raises(ThresholdError):
            primary_auth.threshold.aggregate(
                shares_b + [scheme.sign_share(index, digest_b)])

    def test_backup_ignores_certificate_for_unsupported_proposal(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            execute_operations=True)
        auths = make_authenticators(REPLICAS, ["client:0"], seed=b"certify-check")
        backup = PoeReplica("replica:1", config, auths["replica:1"])
        batch_a = make_no_op_batch("batch-A", "client:0", 2)
        batch_b = make_no_op_batch("batch-B", "client:0", 2)
        backup.deliver("replica:0", PoePropose(view=0, sequence=0, batch=batch_b), 1.0)
        # Build a valid certificate for batch A (which this backup never saw).
        from repro.core.view_change import proposal_digest
        digest_a = proposal_digest(0, 0, batch_a.digest())
        shares = [auths[rid].threshold.sign_share(auths[rid].threshold_index, digest_a)
                  for rid in ["replica:0", "replica:2", "replica:3"]]
        certificate = auths["replica:0"].threshold.aggregate(shares)
        backup.deliver("replica:0",
                       PoeCertify(view=0, sequence=0, proposal_digest=digest_a,
                                  certificate=certificate), 2.0)
        assert backup.executed_batches == 0


class TestPoeClusterIntegration:
    def test_ycsb_cluster_executes_real_transactions(self):
        config = ClusterConfig(
            protocol="poe", num_replicas=4, batch_size=10, num_clients=1,
            client_outstanding=4, total_batches=10, execute_operations=True,
            use_ycsb_payload=True, ycsb=YcsbConfig(num_records=200, seed=3),
            checkpoint_interval=5, seed=3,
        )
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        result = cluster.result()
        assert result.completed_txns == pytest.approx(90, abs=10)
        tables = {replica.store.snapshot_digest() for replica in cluster.replicas}
        assert len(tables) == 1
        assert all(replica.store.applied_transactions == 100
                   for replica in cluster.replicas)

    def test_checkpoints_become_stable(self):
        config = ClusterConfig(
            protocol="poe", num_replicas=4, batch_size=10, total_batches=20,
            client_outstanding=4, checkpoint_interval=5, seed=5,
        )
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        assert all(replica.checkpoints.stable_sequence >= 14
                   for replica in cluster.replicas)

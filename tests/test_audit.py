"""Tests for the cross-replica safety auditor.

The auditor has to be trustworthy in both directions: a clean run must
audit SAFE, and each invariant must actually fire when its precondition
is broken.  The violation tests run a real cluster and then corrupt one
replica's state (or the auditor's observed reply trace) in precisely the
way the invariant guards against.
"""

import pytest

from repro.fabric.audit import (
    AuditViolation,
    SafetyAuditor,
    SafetyViolation,
    audit_cluster,
)
from repro.fabric.cluster import Cluster, ClusterConfig


def run_clean_cluster(protocol="poe-mac", **overrides):
    config = ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=10, total_batches=10,
        request_timeout_ms=100.0, checkpoint_interval=5, seed=5, **overrides,
    )
    cluster = Cluster(config)
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=60_000)
    return cluster, auditor


class TestCleanRuns:
    @pytest.mark.parametrize("protocol",
                             ["poe", "poe-mac", "poe-ts", "pbft", "sbft",
                              "zyzzyva", "hotstuff"])
    def test_fault_free_run_audits_safe(self, protocol):
        cluster, auditor = run_clean_cluster(protocol)
        report = auditor.check()  # must not raise
        assert report.ok
        assert report.replicas_audited == 4
        assert report.slots_checked > 0
        assert report.completions_checked == 10

    def test_report_counts_completions_and_slots(self):
        _, auditor = run_clean_cluster()
        report = auditor.report()
        assert report.completions_checked == 10
        assert report.slots_checked >= 10
        assert "SAFE" in report.summary()


class TestAgreementInvariant:
    def test_divergent_block_at_same_slot_is_flagged(self):
        cluster, auditor = run_clean_cluster()
        victim = cluster.replicas[1]
        # Rewrite the victim's last block with a different batch digest, as
        # if it had executed a conflicting batch at that slot.
        head = victim.blockchain.head
        victim.blockchain.truncate_after(head.sequence - 1)
        victim.blockchain.append(sequence=head.sequence,
                                 batch_digest=b"conflicting-batch",
                                 view=head.view, payload=head.payload)
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "divergent-prefix" in kinds
        with pytest.raises(SafetyViolation):
            auditor.check()

    def test_same_batch_at_two_slots_is_flagged(self):
        cluster, auditor = run_clean_cluster()
        victim = cluster.replicas[1]
        first = victim.blockchain.blocks()[0]
        head = victim.blockchain.head
        victim.blockchain.truncate_after(head.sequence - 1)
        # Re-execute the first batch at the victim's head slot.
        victim.blockchain.append(sequence=head.sequence,
                                 batch_digest=first.batch_digest,
                                 view=head.view, payload=first.payload)
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "duplicate-execution" in kinds

    def test_byzantine_replica_is_excluded_from_agreement(self):
        cluster, auditor = run_clean_cluster()
        victim = cluster.replicas[0]
        head = victim.blockchain.head
        victim.blockchain.truncate_after(head.sequence - 1)
        victim.blockchain.append(sequence=head.sequence,
                                 batch_digest=b"conflicting-batch",
                                 view=head.view, payload=head.payload)
        cluster.byzantine_ids.append(victim.node_id)
        report = auditor.report()
        assert report.ok
        assert report.replicas_audited == 3


class TestLedgerInvariant:
    def test_broken_hash_chain_is_flagged(self):
        cluster, auditor = run_clean_cluster()
        victim = cluster.replicas[2]
        block = victim.blockchain.blocks()[3]
        object.__setattr__(block, "parent_hash", b"severed")
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "broken-chain" in kinds

    def test_ledger_state_skew_is_flagged(self):
        cluster, auditor = run_clean_cluster()
        victim = cluster.replicas[2]
        victim.executor.last_executed_sequence += 3
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "ledger-state-skew" in kinds


class TestRollbackInvariant:
    def test_rollback_past_stable_checkpoint_is_flagged(self):
        cluster, auditor = run_clean_cluster()
        cluster.replicas[1].rollback_log.append((2, 5))  # target < checkpoint
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "rollback-past-checkpoint" in kinds
        assert report.rollbacks_checked == 1

    def test_rollback_at_or_above_checkpoint_is_fine(self):
        cluster, auditor = run_clean_cluster()
        cluster.replicas[1].rollback_log.append((5, 5))
        cluster.replicas[2].rollback_log.append((9, 5))
        assert auditor.report().ok


class TestInformQuorumInvariant:
    def test_missing_reply_quorum_is_flagged(self):
        cluster, auditor = run_clean_cluster()
        pool = cluster.pools[0]
        batch_id = pool.completions[0].batch_id
        # Pretend the network only ever delivered one matching reply.
        votes = auditor.wire.reply_votes[(pool.node_id, batch_id)]
        for senders in votes.values():
            single, at_ms = next(iter(senders.items()))
            senders.clear()
            senders[single] = at_ms
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "inform-quorum" in kinds

    def test_audit_cluster_skips_inform_check_without_observer(self):
        config = ClusterConfig(protocol="poe-mac", num_replicas=4, batch_size=10,
                               total_batches=10, seed=5)
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        report = audit_cluster(cluster)
        assert report.ok
        assert report.completions_checked == 0
        assert report.slots_checked > 0


def test_violation_renders_kind_and_detail():
    violation = AuditViolation(kind="divergent-prefix", detail="slot 3 ...")
    assert "divergent-prefix" in str(violation)
    assert "slot 3" in str(violation)

"""Adversarial regression tests: Byzantine behaviours, scenario matrix.

These tests exercise the active-misbehaviour layer end to end: an
equivocating (and vote-spoofing) primary against PoE in both schemes and
at both deployment sizes, the auxiliary behaviours (replay, delay, stale
certificates), and the full protocol × scenario matrix against its
documented expectations.

The centrepiece is the revert-demo: with the spoofed-vote fix in place
the equivocating primary cannot split the cluster; with the old
``message.replica_id or sender`` vote counting monkeypatched back in, the
same scenario makes honest replicas execute divergent batches at the same
sequence numbers — and the safety auditor must catch it.
"""

import dataclasses
import importlib.util
import inspect
import json
import os

import pytest

from repro.core.replica import PoeReplica
from repro.crypto.cost import CryptoOp
from repro.fabric.audit import SafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.scenarios import (
    MATRIX_DEPLOYMENT,
    MATRIX_PROTOCOLS,
    run_matrix,
    run_scenario,
)
from repro.net.byzantine import (
    BEHAVIORS,
    ByzantineBehavior,
    ByzantineSpec,
    ColludingVoteParker,
    Delivery,
    EquivocatingPrimary,
    make_behavior,
)
from repro.core.messages import PoePropose
from repro.workload.transactions import make_no_op_batch

_ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_byzantine_cluster(protocol, behavior="equivocate-spoof", num_replicas=4,
                          total_batches=10, seed=7, **overrides):
    config = ClusterConfig(
        protocol=protocol, num_replicas=num_replicas, batch_size=10,
        total_batches=total_batches, request_timeout_ms=100.0,
        checkpoint_interval=5, seed=seed,
        byzantine=(ByzantineSpec(behavior=behavior, replica_index=0),),
        **overrides,
    )
    cluster = Cluster(config)
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=60_000)
    return cluster, auditor


def spoofable_handle_support(self, sender, message, now_ms):
    """``PoeReplica.handle_support`` (MAC mode) with the PR-2 fix reverted:
    the voter is whoever the payload claims to be."""
    if message.view != self.view:
        if message.view > self.view:
            self.defer_message(message.view, sender, message)
        return
    slot = self._slot(message.view, message.sequence)
    self.charge(CryptoOp.MAC_VERIFY)
    if slot.proposal_digest and message.proposal_digest != slot.proposal_digest:
        return
    slot.support_votes.add(message.replica_id or sender)  # the bug
    self._check_mac_commit(message.view, message.sequence, slot, now_ms)


class TestBehaviorLayer:
    def test_registry_knows_all_behaviors(self):
        for name in ("equivocate", "equivocate-spoof", "delay", "replay",
                     "stale-certify"):
            assert make_behavior(name) is not None
        with pytest.raises(KeyError):
            make_behavior("does-not-exist")

    @pytest.mark.parametrize("name", sorted(BEHAVIORS))
    def test_every_behavior_binds_and_transforms_a_fanout(self, name):
        cluster = Cluster(ClusterConfig(protocol="poe-mac", num_replicas=4,
                                        total_batches=1, seed=3))
        replicas = [replica_id(i) for i in range(4)]
        behavior = make_behavior(name)
        cluster.network.set_byzantine(replicas[0], behavior, seed=1)
        assert behavior.node is cluster.network.node(replicas[0])
        assert behavior.network is cluster.network
        assert behavior.replica_ids == replicas
        propose = PoePropose(view=0, sequence=0,
                             batch=make_no_op_batch("batch-0", "client:0", 3))
        out = behavior.transform([Delivery(r, propose) for r in replicas[1:]],
                                 now_ms=50.0)
        assert all(isinstance(d, Delivery) and d.delay_ms >= 0.0 for d in out)
        assert {d.receiver for d in out} <= set(replicas)

    @pytest.mark.parametrize("name", sorted(BEHAVIORS))
    def test_no_behavior_takes_an_option(self, name):
        # A variant of a behaviour is a key of its own and a timing is a
        # constant or derived from the replica's timeout: nothing is settable.
        factory = BEHAVIORS[name]
        assert not inspect.signature(factory).parameters
        assert isinstance(factory(), ByzantineBehavior)
        with pytest.raises(TypeError):
            make_behavior(name, x=1)

    @pytest.mark.parametrize("indices", [(2, 2), (-1,), (4,)],
                             ids=["same-replica", "negative", "past-membership"])
    def test_a_spec_naming_no_free_replica_is_rejected(self, indices):
        # Accepted, two specs on one replica were both attached (the second
        # replacing the first's wire behaviour, the first's replica-level
        # corruption staying installed), -1 silently picked replica:3 and
        # an index past the membership died with a bare IndexError.
        specs = tuple(ByzantineSpec(behavior=behavior, replica_index=index)
                      for behavior, index in zip(("wrong-exec", "delay"), indices))
        with pytest.raises(ValueError, match=r"ByzantineSpec\(behavior="):
            Cluster(ClusterConfig(protocol="poe-mac", num_replicas=4,
                                  total_batches=1, byzantine=specs))

    def test_equivocation_groups_sum_to_the_backups(self):
        behavior = EquivocatingPrimary()
        replicas = [replica_id(i) for i in range(7)]  # n=7, f=2, nf=5
        behavior.bind(replicas[0], replicas, seed=1)
        assert behavior.group_a | behavior.group_b == set(replicas[1:])
        assert not behavior.group_a & behavior.group_b
        # group_b plus the primary itself must be able to reach nf.
        assert len(behavior.group_b) == 5 - 1
        assert len(behavior.group_a) == 2

    def test_equivocating_fanout_is_split_and_votes_spoofed(self):
        behavior = EquivocatingPrimary(spoof_votes=True)
        replicas = [replica_id(i) for i in range(4)]
        behavior.bind(replicas[0], replicas, seed=1)
        batch = make_no_op_batch("batch-0", "client:0", 3)
        propose = PoePropose(view=0, sequence=0, batch=batch)
        fanout = [Delivery(receiver, propose) for receiver in replicas[1:]]
        out = behavior.transform(fanout, now_ms=0.0)
        proposals = {d.receiver: d.message for d in out
                     if isinstance(d.message, PoePropose)}
        for receiver in behavior.group_a:
            assert proposals[receiver].batch.batch_id == "batch-0"
        for receiver in behavior.group_b:
            assert proposals[receiver].batch.batch_id.startswith("byz:")
        spoofed = [d for d in out if not isinstance(d.message, PoePropose)]
        assert spoofed, "vote spoofing must fabricate SUPPORT messages"
        assert {d.receiver for d in spoofed} == behavior.group_a
        assert {d.message.replica_id for d in spoofed} == behavior.group_b

    def test_forged_batches_are_deterministic(self):
        def forge():
            behavior = EquivocatingPrimary()
            replicas = [replica_id(i) for i in range(4)]
            behavior.bind(replicas[0], replicas, seed=3)
            batch = make_no_op_batch("batch-0", "client:0", 3)
            return behavior._forged_batch(0, 0, batch)

        first, second = forge(), forge()
        assert first.batch_id == second.batch_id
        assert first.digest() == second.digest()


class TestEquivocatingPrimary:
    @pytest.mark.parametrize("protocol,num_replicas", [
        ("poe-mac", 4),    # the MAC instantiation at paper scale n=4
        ("poe-ts", 4),
        ("poe-mac", 32),
        ("poe-ts", 32),    # the threshold instantiation at n=32
    ])
    def test_poe_survives_equivocation(self, protocol, num_replicas):
        cluster, auditor = run_byzantine_cluster(
            protocol, num_replicas=num_replicas, total_batches=8)
        report = auditor.check()  # must not raise
        assert report.ok
        assert all(pool.is_done() for pool in cluster.pools)
        live = [replica for replica in cluster.replicas if not replica.crashed]
        # The equivocating primary of view 0 was voted out.
        assert max(replica.view for replica in live) >= 1

    def test_pbft_survives_equivocation(self):
        cluster, auditor = run_byzantine_cluster("pbft")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)

    def test_hotstuff_survives_equivocation(self):
        """Regression for the QC-gated commit rule: an equivocating leader
        must not get un-certified proposals executed via timeout rounds."""
        cluster, auditor = run_byzantine_cluster("hotstuff")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)

    def test_spoofed_votes_cannot_forge_a_quorum(self, monkeypatch):
        """With payload-claimed vote identities restored, the lone honest
        group_a replica view-commits real batches on a quorum that never
        existed — the spoof bug is alive — and only the new-view rollback
        saves it.  With the fix intact no spoofed quorum ever forms, so
        nothing has to be rolled back."""
        cluster, auditor = run_byzantine_cluster("poe-mac")
        assert auditor.check().ok
        assert all(replica.rolled_back_batches == 0
                   for replica in cluster.replicas)

        monkeypatch.setattr(PoeReplica, "handle_support", spoofable_handle_support)
        cluster, auditor = run_byzantine_cluster("poe-mac")
        victims = [replica for replica in cluster.replicas
                   if replica.rolled_back_batches > 0]
        assert victims, ("spoofed votes must forge a quorum (later healed "
                        "by the view-change rollback) when identities are "
                        "counted from the message payload")

    def test_reverted_spoof_fix_fails_the_auditor(self, monkeypatch):
        """Acceptance criterion: with the old ``message.replica_id or
        sender`` vote counting restored, the equivocating-primary scenario
        must demonstrably fail the safety audit.

        The divergence the spoof bug causes is nowadays *repaired* by two
        newer defence layers — the adopt-time divergence rollback and the
        checkpoint layer's same-height state repair — so demonstrating the
        original end-state violation requires reverting those too; each
        revert on its own stays safe, which is pinned by
        ``test_spoofed_votes_cannot_forge_a_quorum`` and the repair tests."""
        from repro.core.view_change import longest_consecutive_prefix
        from repro.protocols.replica_base import BatchingReplica

        def old_adopt(self, proposal, requests, now_ms):
            # PR-3-era adoption: no divergence scan, rollback only beyond kmax.
            prefix, kmax = longest_consecutive_prefix(requests)
            self.rollback_speculation(kmax, now_ms)
            for sequence in [s for s in self._committed
                             if s > kmax or s in prefix]:
                del self._committed[sequence]
            for sequence in sorted(prefix):
                if sequence <= self.last_executed_sequence:
                    continue
                entry = prefix[sequence]
                self._log[sequence] = entry
                self.commit_slot(sequence=sequence, view=entry.view,
                                 batch=entry.batch, proof=entry.proof,
                                 now_ms=now_ms, speculative=False)
            return kmax

        monkeypatch.setattr(PoeReplica, "handle_support", spoofable_handle_support)
        monkeypatch.setattr(PoeReplica, "adopt_new_view", old_adopt)
        monkeypatch.setattr(BatchingReplica, "_begin_divergence_repair",
                            lambda self, stable, now_ms: None)
        _, auditor = run_byzantine_cluster("poe-mac")
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "divergent-prefix" in kinds, (
            "spoofed votes must split the cluster when identities are "
            "counted from the message payload")


class TestAuxiliaryBehaviors:
    def test_replaying_replica_is_harmless(self):
        # Duplicate messages must be absorbed idempotently by every vote set.
        cluster, auditor = run_byzantine_cluster("poe-mac", behavior="replay")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)

    def test_delaying_primary_keeps_safety(self):
        cluster, auditor = run_byzantine_cluster(
            "poe-mac", behavior="delay", total_batches=5)
        assert auditor.check().ok

    def test_stale_certificates_are_rejected_and_primary_replaced(self):
        cluster, auditor = run_byzantine_cluster("poe-ts", behavior="stale-certify")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)
        live = [replica for replica in cluster.replicas
                if replica.node_id != replica_id(0)]
        # Garbage/stale certificates stall view 0; the view change recovers.
        assert max(replica.view for replica in live) >= 1

    @pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
    def test_the_vote_parker_holds_no_more_than_its_cap(self, protocol, monkeypatch):
        """Regression: the cap was checked once per fan-out, and every
        checkpoint vote of that fan-out was parked (16 against 12)."""
        transform = ColludingVoteParker.transform
        peak = [0]

        def watched(self, deliveries, now_ms):
            out = transform(self, deliveries, now_ms)
            peak[0] = max(peak[0], len(self._parked))
            return out

        monkeypatch.setattr(ColludingVoteParker, "transform", watched)
        outcome = run_scenario(protocol, "colluding-reconfig-abuse")
        assert outcome.live and outcome.safe
        assert peak[0] == ColludingVoteParker.MAX_PARKED


class TestDarkReplicaRecovery:
    def test_dark_replicas_catch_up_and_audit_safe(self):
        outcome = run_scenario("poe-mac", "dark-replicas")
        assert outcome.safe and outcome.live

    def test_primary_crash_view_change_audits_safe(self):
        outcome = run_scenario("poe-ts", "primary-crash")
        assert outcome.safe and outcome.live
        assert outcome.view_changes >= 1


def _fault_matrix_cli():
    spec = importlib.util.spec_from_file_location(
        "fault_matrix_cli", os.path.join(_ROOT, "examples", "fault_matrix.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScenarioMatrix:
    def test_full_matrix_matches_documented_expectations(self, capsys):
        """``MATRIX_EXPECTATIONS.json`` is the matrix's one expectation: the
        full sweep at its parameters reproduces every column of every cell
        (the sharded columns only for the shard-capable protocols)."""
        status = _fault_matrix_cli().main(
            ["--expected", os.path.join(_ROOT, "MATRIX_EXPECTATIONS.json")])
        assert status == 0, capsys.readouterr().out

    def test_diff_names_every_moved_column_by_cell(self, tmp_path):
        """A cell that stays live and safe but moves any other column — or
        gains one the pinned table lacks — is a difference, named by cell
        and column."""
        cli = _fault_matrix_cli()
        base = dataclasses.replace(MATRIX_DEPLOYMENT, total_batches=4)
        outcomes = run_matrix(("pbft",), ("no-fault", "primary-crash"), base)
        table = cli.outcome_table(outcomes, base)
        pinned = json.loads(json.dumps(table))
        pinned["cells"][0]["epochs"] = 4
        del pinned["cells"][0]["expected_batches"]
        view_changes = pinned["cells"][1]["view_changes"]
        pinned["cells"][1]["view_changes"] = view_changes + 1
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(pinned))
        assert cli.diff_against_expected(table, str(path)) == [
            "pbft × no-fault: epochs observed 0, recorded 4",
            "pbft × no-fault: expected_batches observed 4, recorded absent",
            f"pbft × primary-crash: view_changes observed {view_changes}, "
            f"recorded {view_changes + 1}",
        ]

    def test_every_cell_is_live_and_safe(self):
        """Since the baseline recovery subsystem there are no documented
        deviations left: the formerly expected-stall cells (sbft/zyzzyva ×
        faulty primary) recover through their view changes and the formerly
        expected-unsafe cell (zyzzyva × equivocate) converges after the
        proof-of-misbehaviour view change."""
        outcomes = run_matrix(
            base=dataclasses.replace(MATRIX_DEPLOYMENT, total_batches=10))
        assert [(o.protocol, o.scenario) for o in outcomes if not o.safe] == []
        assert [(o.protocol, o.scenario) for o in outcomes if not o.live] == []

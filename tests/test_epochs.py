"""Consensus-committed epoch reconfiguration, end to end.

Three layers of coverage:

* **Rules** — the admissibility table (:func:`reconfig_record_valid`),
  the activation-boundary arithmetic and the auditor-side epoch-log
  re-validation, as pure unit checks.
* **Runs** — every new fault-matrix row (epoch-grow, epoch-shrink,
  epoch-under-vc, colluding-equivocate, colluding-reconfig-abuse) across
  the full protocol column, re-verified at seeds 3/7/42/99, plus the
  n=7 -> 10 grow and n=7 -> 4 two-step shrink deployments; joiners must
  end up voting members of the final epoch and evicted replicas must
  self-halt at their activation boundary.
* **Revert demos** — reverting the execution-time admissibility check or
  the client pools' epoch-aware completion quorum must be caught by the
  auditor (invalid epoch log / under-quorum completion respectively),
  while the unreverted control runs stay SAFE.
"""

import dataclasses

import pytest

import repro.protocols.replica_base as replica_base
from repro.fabric.audit import SafetyAuditor
from repro.fabric.cluster import (
    Cluster,
    ClusterConfig,
    ReconfigPlan,
    ReconfigStep,
    replica_id,
)
from repro.fabric.scenarios import (
    MATRIX_DEPLOYMENT,
    MATRIX_PROTOCOLS,
    run_scenario,
)
from repro.net.byzantine import ByzantineSpec
from repro.protocols.epoch import (
    MIN_MEMBERSHIP,
    EpochEntry,
    activation_boundary,
    apply_reconfig,
    genesis_entry,
    make_reconfig_record,
    reconfig_record_valid,
    validate_epoch_log,
)
from repro.workload import clients

#: The fault-matrix rows introduced by the reconfiguration tier.
NEW_ROWS = (
    "epoch-grow",
    "epoch-shrink",
    "epoch-under-vc",
    "colluding-equivocate",
    "colluding-reconfig-abuse",
)

MEMBERS_7 = tuple(replica_id(i) for i in range(7))


# ------------------------------------------------------------------- rules
class TestActivationBoundary:
    def test_boundary_is_the_next_checkpoint_sequence(self):
        # Boundaries with interval 5 sit at 4, 9, 14, ...
        assert activation_boundary(0, 5) == 4
        assert activation_boundary(3, 5) == 4
        assert activation_boundary(5, 5) == 9
        assert activation_boundary(8, 5) == 9

    def test_record_committed_at_a_boundary_activates_there(self):
        assert activation_boundary(4, 5) == 4
        assert activation_boundary(9, 5) == 9

    def test_degenerate_interval_activates_immediately(self):
        assert activation_boundary(7, 0) == 7


class TestAdmissibility:
    def _check(self, record, epoch=0, membership=MEMBERS_7):
        return reconfig_record_valid(record, epoch, membership)

    def test_legal_grow_is_admissible(self):
        ok, reason = self._check(
            make_reconfig_record(1, add=(replica_id(7), replica_id(8))))
        assert ok, reason

    def test_epoch_must_chain_onto_the_latest(self):
        ok, reason = self._check(make_reconfig_record(2, add=(replica_id(7),)))
        assert not ok and "chain" in reason

    def test_duplicate_ids_are_refused(self):
        ok, reason = self._check(
            make_reconfig_record(1, add=(replica_id(7), replica_id(7))))
        assert not ok and "duplicate" in reason

    def test_add_remove_overlap_is_refused(self):
        ok, reason = self._check(make_reconfig_record(
            1, add=(replica_id(7),), remove=(replica_id(7),)))
        assert not ok and "overlap" in reason

    def test_readding_a_member_is_refused(self):
        ok, reason = self._check(make_reconfig_record(1, add=(replica_id(0),)))
        assert not ok and "already a member" in reason

    def test_removing_a_stranger_is_refused(self):
        ok, reason = self._check(
            make_reconfig_record(1, remove=(replica_id(42),)))
        assert not ok and "not a member" in reason

    def test_shrinking_below_minimum_is_refused(self):
        record = make_reconfig_record(
            1, remove=tuple(replica_id(i) for i in range(1, 5)))
        ok, reason = self._check(record)
        assert not ok and str(MIN_MEMBERSHIP) in reason

    def test_quorum_continuity_is_enforced(self):
        # Removing f+1 = 3 of 7 leaves 4 survivors < 2f+1 = 5: the exact
        # record the colluding-reconfig-abuse behaviour fabricates.
        record = make_reconfig_record(
            1, remove=tuple(replica_id(i) for i in range(3)))
        ok, reason = self._check(record)
        assert not ok and "quorum continuity" in reason

    def test_seven_to_four_needs_two_steps(self):
        # 7 -> 4 in one record breaks continuity (4 survivors < 5) ...
        one_shot = make_reconfig_record(
            1, remove=tuple(replica_id(i) for i in range(4, 7)))
        ok, _ = self._check(one_shot)
        assert not ok
        # ... but chaining 7 -> 5 -> 4 keeps every hand-off certifiable.
        first = make_reconfig_record(
            1, remove=(replica_id(5), replica_id(6)))
        ok, reason = self._check(first)
        assert ok, reason
        survivors = apply_reconfig(MEMBERS_7, (), first.remove)
        second = make_reconfig_record(2, remove=(replica_id(4),))
        ok, reason = self._check(second, epoch=1, membership=survivors)
        assert ok, reason


class TestEpochLogValidation:
    def _log(self):
        genesis = genesis_entry(MEMBERS_7)
        grown = EpochEntry(
            epoch=1, activation_sequence=4,
            members=apply_reconfig(MEMBERS_7, (replica_id(7),), ()),
            added=(replica_id(7),), committed_at=2)
        return [genesis, grown]

    def test_valid_log_has_no_problems(self):
        assert validate_epoch_log(self._log()) == []

    def test_empty_log_is_invalid(self):
        assert validate_epoch_log([]) == ["empty epoch log"]

    def test_activation_must_follow_commit(self):
        log = self._log()
        log[1] = EpochEntry(
            epoch=1, activation_sequence=1, members=log[1].members,
            added=log[1].added, committed_at=2)
        assert any("before" in p for p in validate_epoch_log(log))

    def test_activations_must_increase(self):
        log = self._log()
        log.append(EpochEntry(
            epoch=2, activation_sequence=4,
            members=apply_reconfig(log[1].members, (replica_id(8),), ()),
            added=(replica_id(8),), committed_at=4))
        assert any("must increase" in p for p in validate_epoch_log(log))

    def test_membership_must_match_the_delta(self):
        log = self._log()
        log[1] = EpochEntry(
            epoch=1, activation_sequence=4, members=MEMBERS_7,
            added=(replica_id(7),), committed_at=2)
        assert any("delta" in p for p in validate_epoch_log(log))


# -------------------------------------------------------------------- runs
@pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
@pytest.mark.parametrize("scenario", NEW_ROWS)
def test_new_matrix_rows_are_live_and_safe(protocol, scenario):
    outcome = run_scenario(protocol, scenario)
    assert outcome.live, (
        f"{protocol} × {scenario}: stalled at "
        f"{outcome.completed_batches}/{outcome.expected_batches}")
    assert outcome.safe, outcome.audit.summary()


@pytest.mark.parametrize("seed", (3, 7, 42, 99))
@pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
@pytest.mark.parametrize("scenario", NEW_ROWS)
def test_new_matrix_rows_survive_a_seed_sweep(scenario, protocol, seed):
    outcome = run_scenario(protocol, scenario,
                           dataclasses.replace(MATRIX_DEPLOYMENT, seed=seed))
    assert outcome.live and outcome.safe, (
        f"{protocol} × {scenario} @ seed {seed}: live={outcome.live} "
        f"{outcome.audit.summary()}")


def run_plan(protocol, num_replicas, plan, total_batches=30, seed=11,
             byzantine=()):
    config = ClusterConfig(
        protocol=protocol, num_replicas=num_replicas, batch_size=10,
        client_outstanding=4, total_batches=total_batches,
        request_timeout_ms=100.0, checkpoint_interval=5,
        byzantine=tuple(byzantine),
        reconfig=plan, seed=seed)
    cluster = Cluster(config)
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=60_000)
    return cluster, auditor.report()


GROW_7_TO_10 = ReconfigPlan(steps=(
    ReconfigStep(at_ms=2.0, add=(7, 8, 9)),))
SHRINK_7_TO_4 = ReconfigPlan(steps=(
    ReconfigStep(at_ms=2.0, remove=(5, 6)),
    ReconfigStep(at_ms=8.0, remove=(4,)),))


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "hotstuff"])
def test_grow_seven_to_ten(protocol):
    cluster, report = run_plan(protocol, 7, GROW_7_TO_10)
    assert report.ok, report.summary()
    assert all(pool.is_done() for pool in cluster.pools)
    actives = [r for r in cluster.replicas if not r.crashed]
    assert len(actives) == 10
    assert {r.epoch for r in actives} == {1}
    assert cluster.replicas[0].config.membership(1) == tuple(
        replica_id(i) for i in range(10))


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "hotstuff"])
def test_shrink_seven_to_four_in_two_steps(protocol):
    cluster, report = run_plan(protocol, 7, SHRINK_7_TO_4)
    assert report.ok, report.summary()
    assert all(pool.is_done() for pool in cluster.pools)
    survivors = {r.node_id for r in cluster.replicas if not r.crashed}
    assert survivors == {replica_id(i) for i in range(4)}
    # The evicted replicas halted themselves at their removal epoch's
    # activation boundary rather than lingering as zombie voters.
    evicted = [r for r in cluster.replicas if r.node_id not in survivors]
    assert evicted and all(r.crashed for r in evicted)


def test_joiners_catch_up_and_vote():
    plan = ReconfigPlan(steps=(ReconfigStep(at_ms=2.0, add=(4, 5)),))
    cluster, report = run_plan("poe-mac", 4, plan)
    assert report.ok, report.summary()
    founders = [r for r in cluster.replicas
                if r.node_id in {replica_id(i) for i in range(4)}]
    joiners = [r for r in cluster.replicas
               if r.node_id in {replica_id(4), replica_id(5)}]
    assert len(joiners) == 2
    head = max(r.executor.last_executed_sequence for r in founders)
    for joiner in joiners:
        assert not joiner.crashed
        assert joiner.epoch == 1
        # Vouched state transfer + live participation: the joiner's
        # executed prefix reaches the founders' head, not just its
        # bootstrap snapshot.
        assert joiner.executor.last_executed_sequence == head
        assert joiner.blockchain.head.sequence == head


def test_unsafe_record_is_refused_and_journaled():
    plan = ReconfigPlan(steps=(ReconfigStep(at_ms=10.0, add=(7, 8)),))
    byz = ByzantineSpec(behavior="colluding-reconfig-abuse", replica_index=0)
    cluster, report = run_plan("poe-mac", 7, plan, total_batches=20,
                               byzantine=(byz,))
    assert report.ok, report.summary()
    honest = [r for r in cluster.replicas
              if r.node_id not in cluster.byzantine_ids and not r.crashed]
    assert honest
    founders = {replica_id(i) for i in range(7)}
    for replica in honest:
        if replica.node_id in founders:
            # The fabricated evict-f+1 record committed as a no-op, with
            # the violated rule on the record.  (Joiners bootstrap past
            # the refused slot via state transfer, so only replicas that
            # executed it journal the refusal.)
            assert replica.reconfig_refusals, replica.node_id
            reasons = [r for (_, _, r) in replica.reconfig_refusals]
            assert any("quorum continuity" in reason for reason in reasons)
        # The legitimate grow that followed still activated everywhere.
        assert replica.epoch == 1


# ------------------------------------------------------------ revert demos
class TestRevertDemos:
    """Layered reverts: each protection, removed, is caught by the auditor."""

    UNSAFE_SHRINK = ReconfigPlan(steps=(
        ReconfigStep(at_ms=2.0, remove=(1, 2, 3, 4)),))

    def test_control_refuses_the_unsafe_shrink(self):
        cluster, report = run_plan("poe-mac", 7, self.UNSAFE_SHRINK,
                                   total_batches=20)
        assert report.ok, report.summary()
        refusing = [r for r in cluster.replicas if r.reconfig_refusals]
        assert refusing, "the unsafe record must be refused, not ignored"
        assert all(r.epoch == 0 for r in cluster.replicas)

    def test_reverted_admission_check_fails_the_auditor(self, monkeypatch):
        """Revert layer 1: replicas that rubber-stamp admissibility
        activate an epoch below the membership floor — the auditor
        re-validates every activated log from genesis (through its own
        import-time binding, which the revert cannot reach) and flags
        it."""
        monkeypatch.setattr(replica_base, "reconfig_record_valid",
                            lambda record, epoch, members: (True, ""))
        cluster, report = run_plan("poe-mac", 7, self.UNSAFE_SHRINK,
                                   total_batches=20)
        kinds = {violation.kind for violation in report.violations}
        assert "invalid-epoch" in kinds, report.summary()
        assert any("below minimum" in violation.detail
                   for violation in report.violations)

    def test_control_grow_completes_under_the_new_quorum(self):
        cluster, report = run_plan("poe-mac", 7, GROW_7_TO_10)
        assert report.ok, report.summary()
        assert all(pool.is_done() for pool in cluster.pools)

    def test_reverted_epoch_quorum_fails_the_auditor(self, monkeypatch):
        """Revert layer 2: pools that keep counting the boot epoch's
        completion quorum accept post-grow batches on too few matching
        replies; the auditor re-counts replies delivered by completion
        time against the epoch of each completed sequence and flags
        the shortfall."""
        monkeypatch.setattr(
            clients.ClientPool, "quorum_for_sequence",
            lambda self, sequence: self.completion_quorum)
        cluster, report = run_plan("poe-mac", 7, GROW_7_TO_10)
        kinds = {violation.kind for violation in report.violations}
        assert "inform-quorum" in kinds, report.summary()

"""Multi-group sharding: cross-shard 2PC, the shard-aware auditor, and
the Byzantine-coordinator scenarios.

The sharded fabric partitions the keyspace across independent consensus
groups (each running one of the single-group protocols) on one
deterministic simulator; cross-shard transactions run two-phase commit
whose prepare/decide records are themselves consensus-committed inside
every touched shard.  These tests pin:

* liveness + safety of the happy path for PoE-MAC and PBFT shards (and
  a mixed deployment), including uniform cross-shard outcomes;
* every sharded fault-matrix scenario across the acceptance seeds;
* the presumed-abort recovery path when the coordinator crashes mid-2PC;
* the revert demo: with the replicas' decide-certificate validation
  knocked out (the guard an equivocating coordinator is held back by),
  the shard-aware auditor still detects the split commit/abort — its own
  validator is bound at import time precisely so it cannot be disabled
  together with the runtime one.
"""

import pytest

from repro.fabric.audit import ShardedSafetyAuditor, audit_sharded_cluster
from repro.fabric.scenarios import (
    SCENARIO_DEFS,
    SHARDED_MATRIX_PROTOCOLS,
    SHARDED_SCENARIOS,
    ScenarioParams,
    ShardedScenarioDef,
    default_matrix_scenarios,
    run_scenario,
)
from repro.fabric import sharding
from repro.fabric.sharding import (
    ShardCoordinator,
    ShardedCluster,
    ShardedClusterConfig,
    coordinator_id,
    hub_node_config,
    layout_for_config,
    pool_id,
    sharded_fingerprint,
)
from repro.ledger.execution import SpeculativeExecutor
from repro.net.faults import FaultSchedule
from repro.protocols.client_messages import ClientReplyMessage
from repro.workload.clients import ShardedClientPool
from repro.workload.xshard import (
    ABORT,
    COMMIT,
    PREPARE,
    CoordSubmit,
    CrossShardPlan,
    control_batch_id,
    control_result_digest,
    decide_record_valid,
    decide_round,
    make_control_batch,
)

#: The acceptance seeds every sharded matrix cell must pass on.
ACCEPTANCE_SEEDS = (3, 7, 42, 99)


def _run(config: ShardedClusterConfig, max_ms: float = 600_000.0):
    cluster = ShardedCluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return cluster


def _assert_uniform_outcomes(cluster: ShardedCluster) -> int:
    """Every completed cross-shard txn decided the same way everywhere."""
    cross = 0
    for pool in cluster.pools:
        for txn, outcomes in pool.xshard_outcomes.items():
            assert len(set(outcomes.values())) == 1, (
                f"{txn} split across shards: {outcomes}")
            cross += 1
    return cross


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft"])
def test_two_shard_2pc_live_and_safe(protocol):
    cluster = _run(ShardedClusterConfig(
        num_shards=2, protocols=protocol, num_replicas=4, batch_size=10,
        total_batches=20, cross_shard_fraction=0.3, seed=7,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    report = audit_sharded_cluster(cluster)
    assert report.ok, report.summary()
    assert _assert_uniform_outcomes(cluster) > 0, (
        "the workload must actually exercise cross-shard 2PC")


def test_mixed_protocol_shards():
    """A PoE shard and a PBFT shard cooperate through the same 2PC layer:
    the coordinator only sees client-level replies, so shard protocols
    compose freely."""
    cluster = _run(ShardedClusterConfig(
        num_shards=2, protocols=("poe-mac", "pbft"), num_replicas=4,
        batch_size=10, total_batches=15, cross_shard_fraction=0.3, seed=11,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    report = audit_sharded_cluster(cluster)
    assert report.ok, report.summary()
    assert _assert_uniform_outcomes(cluster) > 0


def test_three_shards_with_coordinator():
    cluster = _run(ShardedClusterConfig(
        num_shards=3, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=12, cross_shard_fraction=0.25, seed=3,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    assert audit_sharded_cluster(cluster).ok
    # The coordinator journals every decision it certified.
    assert cluster.coordinator is not None
    assert cluster.coordinator.journal


def test_ycsb_payload_slices_apply_on_commit_only(monkeypatch):
    """Real YCSB payload across two shards: a committed cross-shard
    transaction's slice is written on every replica of both touched shards,
    an aborted one's on none, and the replicas of a shard end on one state."""
    config = ShardedClusterConfig(
        num_shards=2, num_replicas=4, total_batches=20,
        cross_shard_fraction=0.2, execute_operations=True,
        use_ycsb_payload=True, seed=3)
    plans = {}
    make_source = sharding.ycsb_sharded_source

    def recording_source(*args, **kwargs):
        factory = make_source(*args, **kwargs)

        def draw(index, now_ms):
            item = factory(index, now_ms)
            if isinstance(item, CrossShardPlan):
                plans[item.txn] = item
            return item
        return draw

    # A replica that finds a slice in its shard's execution memo applies
    # no transaction itself, so the slices are recorded where every
    # replica applies one: the executor's payload step.
    applied = {}
    apply_payload = SpeculativeExecutor.apply_payload

    def recording_apply_payload(executor, record, transactions):
        applied.setdefault(id(executor.store), set()).update(
            txn.txn_id for txn in transactions)
        return apply_payload(executor, record, transactions)

    monkeypatch.setattr(sharding, "ycsb_sharded_source", recording_source)
    monkeypatch.setattr(SpeculativeExecutor, "apply_payload",
                        recording_apply_payload)
    cluster = _run(config)
    assert all(pool.is_done() for pool in cluster.pools)

    journal = cluster.coordinator.journal
    assert set(journal) == set(plans)
    assert COMMIT in {entry["decision"] for entry in journal.values()}
    for txn, entry in journal.items():
        plan = plans[txn]
        for shard in plan.shards:
            slice_ids = {t.txn_id for t in plan.slice_for(shard)}
            assert slice_ids
            for replica in cluster.shard_clusters[shard].replicas:
                written = slice_ids <= applied.get(id(replica.store), set())
                assert written == (entry["decision"] == COMMIT), (
                    txn, shard, replica.node_id)
    for shard_cluster in cluster.shard_clusters:
        digests = {replica.executor.state_digest()
                   for replica in shard_cluster.replicas}
        assert len(digests) == 1
    monkeypatch.undo()
    assert (sharded_fingerprint(config)
            == sharded_fingerprint(config, driver="parallel"))


def test_sbft_shards_are_rejected():
    """SBFT's single-reply collector path cannot give the pool the f+1
    matching attestations 2PC certificates are built from."""
    with pytest.raises(ValueError, match="sbft"):
        ShardedCluster(ShardedClusterConfig(num_shards=2, protocols="sbft"))


def test_coordinator_crash_mid_2pc_presumed_abort():
    """Crashing the coordinator right after startup forces every pool
    onto the probe path: unprepared txns are presumed aborted, prepared
    ones are driven to a uniform decision by the pool itself."""
    cluster = _run(ShardedClusterConfig(
        num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=15, cross_shard_fraction=0.4,
        request_timeout_ms=100.0,
        hub_faults=FaultSchedule().add_crash(coordinator_id(), at_ms=3.0),
        seed=42,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    report = audit_sharded_cluster(cluster)
    assert report.ok, report.summary()
    _assert_uniform_outcomes(cluster)
    assert any(pool.coordinator_suspect for pool in cluster.pools), (
        "pools should have given up on the crashed coordinator")


# ------------------------------------------------------------ matrix cells
@pytest.mark.parametrize("seed", ACCEPTANCE_SEEDS)
@pytest.mark.parametrize("protocol", SHARDED_MATRIX_PROTOCOLS)
def test_sharded_matrix_cells_across_seeds(protocol, seed):
    """Every sharded scenario × shard protocol is live and safe on all
    acceptance seeds (the matrix itself runs one seed; this is the sweep
    behind the recorded expectations)."""
    for scenario in SHARDED_SCENARIOS:
        outcome = run_scenario(protocol, scenario, ScenarioParams(
            total_batches=12, request_timeout_ms=100.0, seed=seed))
        assert outcome.live, (
            f"{protocol} × {scenario} seed={seed} stalled at "
            f"{outcome.completed_batches}/{outcome.expected_batches}")
        assert outcome.safe, (
            f"{protocol} × {scenario} seed={seed}: "
            + outcome.audit.summary())


def test_shard_primary_crash_triggers_view_change():
    outcome = run_scenario("poe-mac", "xshard-shard-primary-crash",
                           ScenarioParams(total_batches=12,
                                          request_timeout_ms=100.0, seed=7))
    assert outcome.live and outcome.safe
    assert outcome.view_changes >= 1, (
        "the reused primary-crash recipe must force a real view change "
        "inside shard 0")


# ------------------------------------------------------------- revert demo
def test_revert_demo_auditor_catches_split_decision(monkeypatch):
    """Knock out the replicas' decide-certificate validation — the exact
    guard that stops an equivocating coordinator — and the forged abort
    lands on one shard while the other commits.  The shard-aware auditor
    must still catch it: it bound the real validator at import time, so
    reverting the runtime check cannot blind the audit."""
    import repro.workload.xshard as xshard

    monkeypatch.setattr(xshard, "decide_record_valid",
                        lambda batch, layout: True)
    outcome = run_scenario("poe-mac", "xshard-coordinator-equivocate",
                           ScenarioParams(total_batches=12,
                                          request_timeout_ms=100.0, seed=42))
    assert not outcome.safe, (
        "with certificate validation reverted, the equivocating "
        "coordinator must produce an audit violation")
    kinds = {violation.kind for violation in outcome.audit.violations}
    assert kinds & {"cross-shard-atomicity", "forged-decide"}, kinds


def test_equivocating_coordinator_is_contained_by_validation():
    """The unreverted counterpart: with validation in place the same
    behaviour is harmless — the forged abort is rejected, pools recover
    through probes, and the audit stays clean."""
    outcome = run_scenario("poe-mac", "xshard-coordinator-equivocate",
                           ScenarioParams(total_batches=12,
                                          request_timeout_ms=100.0, seed=42))
    assert outcome.live and outcome.safe, outcome.audit.summary()


# ---------------------------------------------------------------- registry
def test_sharded_registry_extends_the_single_group_one():
    """Every scenario is catalogued, and the sharded registry extends —
    does not overlap — the single-group names."""
    assert all(SCENARIO_DEFS[name].description for name in SCENARIO_DEFS)
    assert not set(SCENARIO_DEFS) & set(SHARDED_SCENARIOS)
    assert default_matrix_scenarios() == \
        tuple(SCENARIO_DEFS) + tuple(SHARDED_SCENARIOS)


def test_sharded_auditor_attaches_like_the_single_group_one():
    config = ShardedClusterConfig(
        num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=10, cross_shard_fraction=0.3, seed=5,
    )
    cluster = ShardedCluster(config)
    auditor = ShardedSafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=600_000.0)
    report = auditor.check()  # raises on violation
    assert report.ok


# ------------------------------------------------------- the shared 2PC round
A, B, C = ("s0/replica:0", "s0/replica:1"), ("s1/replica:0", "s1/replica:1"), \
    ("s2/replica:0", "s2/replica:1")


@pytest.mark.parametrize("phase_results,decided_claims,decision,cert", [
    # every shard prepared -> commit, certified by the prepare votes
    ({0: ("prepared", A), 1: ("prepared", B)}, {},
     COMMIT, ((0, "prepared", A), (1, "prepared", B))),
    # any refusal -> abort (presumed abort)
    ({0: ("prepared", A), 1: ("refused", B)}, {},
     ABORT, ((0, "prepared", A), (1, "refused", B))),
    ({0: ("aborted", A), 1: ("prepared", B)}, {},
     ABORT, ((0, "aborted", A), (1, "prepared", B))),
    # a committed shard outranks a refusal: a commit certificate existed
    ({0: ("committed", A), 1: ("refused", B)}, {},
     COMMIT, ((0, "committed", A), (1, "refused", B))),
    # a shard already in ``decided`` attests through its decide voters
    ({1: ("prepared", B)}, {0: ("committed", A)},
     COMMIT, ((0, "committed", A), (1, "prepared", B))),
    ({0: ("prepared", A), 2: ("prepared", C)}, {1: ("aborted", B)},
     ABORT, ((0, "prepared", A), (1, "aborted", B), (2, "prepared", C))),
    # a fresh vote is preferred over the decide claim of the same shard
    ({0: ("prepared", A), 1: ("prepared", B)}, {1: ("committed", B)},
     COMMIT, ((0, "prepared", A), (1, "prepared", B))),
])
def test_decide_round_rule_and_certificate(phase_results, decided_claims,
                                           decision, cert):
    shards = tuple(sorted(set(phase_results) | set(decided_claims)))
    assert decide_round(shards, phase_results, decided_claims) == (decision, cert)


def test_decide_round_certificates_validate():
    """Whatever the rule decides, the certificate it assembles is the one
    the replicas' validator accepts for that decision."""
    layout = layout_for_config(ShardedClusterConfig(num_shards=2))
    for outcomes in (("prepared", "prepared"), ("prepared", "refused"),
                     ("committed", "prepared"), ("aborted", "refused")):
        results = {shard: (outcome, layout.replicas(shard)[:2])
                   for shard, outcome in enumerate(outcomes)}
        decision, cert = decide_round((0, 1), results, {})
        record = make_control_batch("t", decision, 0, (0, 1), cert=cert)
        assert decide_record_valid(record, layout), (outcomes, decision)


def test_both_drivers_decide_through_the_shared_round(monkeypatch):
    """The coordinator and a self-driving pool reach their decision in the
    same code: one call each to ``decide_round``, and the decide records
    they send carry exactly the certificate it returned."""
    import repro.workload.xshard as xshard

    config = ShardedClusterConfig(num_shards=2, request_timeout_ms=100.0)
    layout = layout_for_config(config)
    node_config = hub_node_config(config, layout)
    plan = CrossShardPlan(txn="pool:0:x:0", shards=(0, 1))
    calls = []

    def spy(shards, phase_results, decided_claims):
        calls.append(xshard_decide_round(shards, phase_results, decided_claims))
        return calls[-1]

    xshard_decide_round = xshard.decide_round
    monkeypatch.setattr(xshard, "decide_round", spy)

    def prepare_quorums(driver):
        """Deliver a prepared-quorum from every shard; the last step's output."""
        for shard in plan.shards:
            for rid in layout.replicas(shard)[:layout.reply_quorum(shard)]:
                output = driver.deliver(rid, ClientReplyMessage(
                    batch_id=control_batch_id(plan.txn, PREPARE, shard),
                    sequence=1, replica_id=rid,
                    result_digest=control_result_digest(
                        plan.txn, PREPARE, shard, "prepared")), 1.0)
        return output

    coordinator = ShardCoordinator(coordinator_id(), node_config, layout)
    coordinator.deliver(pool_id(0), CoordSubmit(plan=plan, reply_to=pool_id(0)), 0.0)
    pool = ShardedClientPool(pool_id(0), node_config, layout,
                             batch_source=lambda index, now_ms: plan,
                             coordinator_id=coordinator_id(),
                             target_outstanding=1, total_batches=1)
    pool.coordinator_suspect = True   # the pool drives its own prepares
    pool.start(0.0)
    for driver in (coordinator, pool):
        del calls[:]
        decides = [send.message.batch for send in prepare_quorums(driver).sends()]
        assert len(calls) == 1
        decision, cert = calls[0]
        assert decision == COMMIT
        assert sorted(batch.shard for batch in decides) == [0, 1]
        assert all(batch.control_phase == COMMIT and batch.cert == cert
                   and batch.reply_to == pool_id(0) for batch in decides)
        if driver is coordinator:
            assert coordinator.journal[plan.txn]["cert"] == cert


# ------------------------------------------------- per-shard recipe coverage
def test_per_shard_recipe_asking_for_more_than_a_shard_takes_is_rejected(monkeypatch):
    """A per-shard recipe may set ``faults`` and one ``byzantine`` spec; one
    that also wants co-conspirators, a resize, a reconfiguration or its own
    network used to run silently truncated."""
    monkeypatch.setitem(SHARDED_SCENARIOS, "xshard-throwaway", ShardedScenarioDef(
        name="xshard-throwaway", per_shard=((0, "colluding-equivocate"),)))
    with pytest.raises(ValueError, match="more than one byzantine spec"):
        run_scenario("poe-mac", "xshard-throwaway")
    monkeypatch.setitem(SHARDED_SCENARIOS, "xshard-throwaway", ShardedScenarioDef(
        name="xshard-throwaway", per_shard=((1, "epoch-grow"),)))
    with pytest.raises(ValueError, match="reconfig"):
        run_scenario("poe-mac", "xshard-throwaway")


# ------------------------------------------------ recorded input, timestamped
def test_completion_stamped_before_its_reply_quorum_is_flagged():
    """The auditor reads one recorder, and it is timestamped: replies that
    reach the pool after ``completed_at_ms`` cannot justify a completion —
    for single-shard batches and for cross-shard decide quorums alike."""
    import dataclasses

    cluster = ShardedCluster(ShardedClusterConfig(
        num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=10, cross_shard_fraction=0.3, seed=5))
    auditor = ShardedSafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=600_000.0)
    assert auditor.report().ok
    pool = cluster.pools[0]
    for wanted_xshard in (False, True):
        index, record = next(
            (i, r) for i, r in enumerate(pool.completions)
            if (r.batch_id in pool.xshard_plans) == wanted_xshard)
        honest = list(pool.completions)
        # As if the pool had completed the request the moment it sent it.
        pool.completions[index] = dataclasses.replace(
            record, completed_at_ms=record.submitted_at_ms)
        report = auditor.report()
        pool.completions[:] = honest
        assert {v.kind for v in report.violations} == {"inform-quorum"}
        assert all(record.batch_id in v.detail for v in report.violations)

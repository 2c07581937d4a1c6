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
    default_matrix_scenarios,
    run_scenario,
)
from repro.fabric.sharding import (
    ShardedCluster,
    ShardedClusterConfig,
    coordinator_id,
)
from repro.net.faults import FaultSchedule

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

"""Same-seed reproducibility of full cluster runs.

The simulator guarantees that events scheduled for the same instant fire
in insertion order; these tests pin that property end to end by running
identical seeded deployments twice and demanding byte-identical outcomes
(completion records, event counts, final clock and summary metrics).
Any hot-path rewrite that silently perturbs tie-breaking fails here.
"""

import hashlib

import pytest

from repro.fabric.fingerprint import run_fingerprint
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.net.byzantine import ByzantineSpec
from repro.net.faults import FaultSchedule


def _config(protocol: str, seed: int = 13) -> ClusterConfig:
    return ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=20,
        num_clients=2, client_outstanding=8, total_batches=25, seed=seed,
    )


def _byzantine_config(protocol: str, behavior: str, seed: int = 13) -> ClusterConfig:
    return ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=10,
        total_batches=10, request_timeout_ms=100.0, checkpoint_interval=5,
        byzantine=(ByzantineSpec(behavior=behavior, replica_index=0),), seed=seed,
    )


@pytest.mark.parametrize("protocol", ["poe", "poe-mac"])
def test_same_seed_runs_are_identical(protocol):
    first = run_fingerprint(_config(protocol))
    second = run_fingerprint(_config(protocol))
    records, events, now, throughput, latency = first
    assert records, "the run must actually complete batches"
    assert events > 0
    assert first == second


def test_different_seeds_diverge():
    # Sanity check that the fingerprint is sensitive at all: different
    # network jitter must move at least one completion timestamp.
    base = run_fingerprint(_config("poe", seed=13))
    other = run_fingerprint(_config("poe", seed=14))
    assert base != other


@pytest.mark.parametrize("protocol,num_replicas", [
    # The zero-allocation step path at both deployment sizes: n=4 (the
    # paper's MAC sweet spot) and n=32, where the n² SUPPORT/PREPARE
    # floods dominate and almost every step leaves no action to take.
    ("poe-mac", 4),
    ("poe-mac", 32),
    ("pbft", 32),
])
def test_zero_allocation_step_path_is_deterministic(protocol, num_replicas):
    config = ClusterConfig(
        protocol=protocol, num_replicas=num_replicas, batch_size=10,
        total_batches=6, checkpoint_interval=5, seed=21,
    )
    first = run_fingerprint(config)
    second = run_fingerprint(ClusterConfig(
        protocol=protocol, num_replicas=num_replicas, batch_size=10,
        total_batches=6, checkpoint_interval=5, seed=21,
    ))
    assert first == second
    records, events, now, throughput, latency = first
    assert records, "the run must complete its batches"


@pytest.mark.parametrize("protocol,behavior", [
    ("poe-mac", "equivocate-spoof"),
    ("poe-ts", "equivocate"),
    ("poe-ts", "stale-certify"),
    ("pbft", "equivocate-spoof"),
    ("hotstuff", "equivocate"),
    ("poe-mac", "replay"),
    # The baseline recovery paths: these runs exercise the SBFT and
    # Zyzzyva view-change message types (VIEW-CHANGE/NEW-VIEW, and for
    # Zyzzyva the client proof of misbehaviour) end to end.
    ("sbft", "equivocate"),
    ("zyzzyva", "equivocate"),
])
def test_byzantine_scenarios_are_deterministic(protocol, behavior):
    """Byzantine runs must be byte-identical across same-seed executions:
    behaviours draw randomness only from their bound, seeded RNG."""
    first = run_fingerprint(_byzantine_config(protocol, behavior))
    second = run_fingerprint(_byzantine_config(protocol, behavior))
    assert first == second
    records, events, now, throughput, latency = first
    assert events > 0


def _scenario_config(protocol: str, scenario: str, seed: int = 11) -> ClusterConfig:
    """A cluster config mirroring one fault-matrix cell (faults + spec +
    network conditions)."""
    from repro.fabric.scenarios import SCENARIO_DEFS, ScenarioParams

    plan = SCENARIO_DEFS[scenario].recipe(ScenarioParams(seed=seed))
    return ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=10,
        total_batches=10, request_timeout_ms=100.0, checkpoint_interval=5,
        conditions=plan.conditions, faults=plan.faults,
        byzantine=plan.byzantine, seed=seed,
    )


@pytest.mark.parametrize("protocol,scenario", [
    # The replica-level behaviours: forged VC histories (incl. the
    # fabricated POM and the anchor-digest repair machinery), lying
    # checkpointer (state-transfer validation and parked responses), and
    # wrong execution (same-height divergence repair + resync).
    ("zyzzyva", "forge-history"),
    ("pbft", "lying-checkpoint"),
    ("poe-mac", "wrong-exec"),
])
def test_replica_level_byzantine_runs_are_deterministic(protocol, scenario):
    """Replica-level behaviours (installed into the state machine) must be
    as seed-stable as the network-boundary ones: the install hook derives
    everything from the behaviour's bound RNG and the replica's own
    deterministic state."""
    first = run_fingerprint(_scenario_config(protocol, scenario))
    second = run_fingerprint(_scenario_config(protocol, scenario))
    assert first == second
    records, events, now, throughput, latency = first
    assert events > 0


@pytest.mark.parametrize("protocol,scenario", [
    # The robustness tier: an adaptive behaviour reading live protocol
    # state (its decisions must be functions of virtual time and the
    # replica's deterministic state only), membership churn (leave +
    # rejoin through checkpoint state transfer), and a drifting geo
    # topology (piecewise-deterministic latency drift).
    ("poe-mac", "adaptive-primary"),
    ("pbft", "churn"),
    ("hotstuff", "geo-drift"),
])
def test_adaptive_churn_and_drift_runs_are_deterministic(protocol, scenario):
    """The adaptive/churn/topology scenarios must be byte-identical on
    same-seed reruns: adaptive behaviours may only consult virtual time
    and their replica's own state, and topology drift is a deterministic
    function of virtual time."""
    first = run_fingerprint(_scenario_config(protocol, scenario))
    second = run_fingerprint(_scenario_config(protocol, scenario))
    assert first == second
    records, events, now, throughput, latency = first
    assert events > 0


def _scenario_config_ex(protocol: str, scenario: str, seed: int = 11) -> ClusterConfig:
    """Like :func:`_scenario_config`, also honouring the plan's
    reconfiguration steps and deployment resizes."""
    from repro.fabric.scenarios import SCENARIO_DEFS, ScenarioParams

    params = ScenarioParams(seed=seed)
    plan = SCENARIO_DEFS[scenario].recipe(params)
    return ClusterConfig(
        protocol=protocol,
        num_replicas=plan.num_replicas or params.num_replicas,
        batch_size=10,
        total_batches=plan.total_batches or 10,
        request_timeout_ms=100.0, checkpoint_interval=5,
        conditions=plan.conditions, faults=plan.faults,
        byzantine=plan.byzantine,
        reconfig=plan.reconfig,
        seed=seed,
    )


@pytest.mark.parametrize("protocol,scenario", [
    # The reconfiguration tier: a mid-run membership grow (joiner
    # provisioning, vouched state transfer with the epoch log, boundary
    # activation) and the colluding cabal (two behaviours coordinating
    # through a shared playbook) must both be byte-identical on
    # same-seed reruns — the admin injector and the playbook introduce
    # no randomness of their own.
    ("poe-mac", "epoch-grow"),
    ("hotstuff", "epoch-grow"),
    ("poe-mac", "colluding-equivocate"),
    ("pbft", "colluding-equivocate"),
])
def test_reconfig_and_colluding_runs_are_deterministic(protocol, scenario):
    first = run_fingerprint(_scenario_config_ex(protocol, scenario))
    second = run_fingerprint(_scenario_config_ex(protocol, scenario))
    assert first == second
    records, events, now, throughput, latency = first
    assert records, "the run must complete batches across the epoch change"
    assert events > 0


def _primary_crash_config(protocol: str, seed: int = 13) -> ClusterConfig:
    return ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=10,
        total_batches=10, request_timeout_ms=100.0, checkpoint_interval=5,
        faults=FaultSchedule.primary_crash(replica_id(0), at_ms=2.0), seed=seed,
    )


@pytest.mark.parametrize("protocol", ["sbft", "zyzzyva"])
def test_baseline_view_change_runs_are_deterministic(protocol):
    """Crash-triggered baseline view changes (the flipped matrix cells)
    must also be byte-identical across same-seed runs."""
    first = run_fingerprint(_primary_crash_config(protocol))
    second = run_fingerprint(_primary_crash_config(protocol))
    assert first == second
    records, events, now, throughput, latency = first
    assert records, "the run must complete batches through the view change"


def test_byzantine_different_seeds_diverge():
    base = run_fingerprint(_byzantine_config("poe-mac", "equivocate-spoof", seed=13))
    other = run_fingerprint(_byzantine_config("poe-mac", "equivocate-spoof", seed=14))
    assert base != other


def _sharded_config(seed: int = 13, crash_coordinator: bool = False):
    from repro.fabric.sharding import ShardedClusterConfig, coordinator_id

    hub_faults = FaultSchedule()
    if crash_coordinator:
        hub_faults.add_crash(coordinator_id(), at_ms=3.0)
    return ShardedClusterConfig(
        num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=15, cross_shard_fraction=0.3,
        request_timeout_ms=100.0, hub_faults=hub_faults, seed=seed,
    )


def test_sharded_runs_are_deterministic():
    """A two-shard PoE run — per-shard consensus, the shared hub network
    and the 2PC coordinator all on one simulator — must be byte-identical
    across same-seed executions (ledger heads, 2PC journals, completions)."""
    from repro.fabric.sharding import sharded_fingerprint

    first = sharded_fingerprint(_sharded_config())
    second = sharded_fingerprint(_sharded_config())
    assert first == second


def test_sharded_different_seeds_diverge():
    from repro.fabric.sharding import sharded_fingerprint

    assert sharded_fingerprint(_sharded_config(seed=13)) != \
        sharded_fingerprint(_sharded_config(seed=14))


def test_crash_mid_2pc_is_deterministic():
    """Crashing the coordinator mid-2PC forces the client pool onto the
    probe/presumed-abort recovery path; that recovery (timer-driven, across
    two shards) must be exactly as seed-stable as the happy path."""
    from repro.fabric.sharding import sharded_fingerprint

    first = sharded_fingerprint(_sharded_config(crash_coordinator=True))
    second = sharded_fingerprint(_sharded_config(crash_coordinator=True))
    assert first == second


def test_completion_order_is_stable_across_runs():
    # The full record sequence (not just the set) must match: order is
    # where insertion-order tie-breaking shows first.
    def batch_ids(config):
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=120_000.0)
        return [record.batch_id for record in cluster.completions()]

    assert batch_ids(_config("poe-mac")) == batch_ids(_config("poe-mac"))


# ------------------------------------------------------------ golden pins
# "Refactors move no events" as a test: each row's whole-run fingerprint,
# hashed.  A row moves only when behaviour moves; the commit that moves one
# updates it here and says why in CHANGES.md.

def _fingerprint_digest(fingerprint) -> str:
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()[:16]


def _poebench_fingerprint(workload: str) -> str:
    """One poebench workload's deployments at 1/20 budget, seed 3."""
    import sys
    from pathlib import Path

    from repro.fabric.sharding import ShardedClusterConfig, sharded_fingerprint

    poebench = str(Path(__file__).resolve().parent.parent / "poebench")
    if poebench not in sys.path:
        sys.path.insert(0, poebench)
    from workloads import WORKLOADS

    return _fingerprint_digest(tuple(
        sharded_fingerprint(config) if isinstance(config, ShardedClusterConfig)
        else run_fingerprint(config)
        for config in WORKLOADS[workload].configs(3, 0.05)))


GOLDEN_POEBENCH = {
    "mac_flood_n32": "3260d6a535eb6e9e",
    "ts_linear_n32": "333f2f8c034b80b1",
    "ycsb_exec_n4": "37ab5b6ca5d410a3",
    "primary_crash_n16": "ee1e0c0fd5afe0f6",
    "xshard_2sh_x20": "16830dff5e26ce66",
    "six_protocols_n16": "fbc01123b36b86a2",
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_POEBENCH))
def test_golden_poebench_shapes(workload):
    assert _poebench_fingerprint(workload) == GOLDEN_POEBENCH[workload]


GOLDEN_SCENARIOS = {
    # One view-change row per leader-based protocol, the equivocation row
    # that exercises the MAC-mode vote rule, and an epoch row on HotStuff.
    # Every sbft row here and in GOLDEN_MATRIX_CELLS was re-pinned by the
    # checkpoint-boundary fix: a stable checkpoint no longer deletes the
    # boundary slot under the executor's state shares, so the batches at
    # sequences 4, 9, 14, ... stopped completing through the client's
    # 100 ms retransmission (epoch-shrink: last completion 108.7 -> 28.7 ms,
    # none slow; forge-history-vc: 101.2 -> 61.0 ms).
    ("poe-mac", "primary-crash"): "559299d01658ba38",
    ("poe-ts", "primary-crash"): "ac93120a12ccad55",
    ("pbft", "primary-crash"): "acef397bc13acd8d",
    ("sbft", "primary-crash"): "b9afde6c7b30eba7",
    ("zyzzyva", "primary-crash"): "b5533676743b779e",
    ("poe-mac", "equivocate"): "2dc480aa394c3ee0",
    ("hotstuff", "epoch-shrink"): "5da95872ff48b06d",
    # The primary-backup layer's shared paths, one row per protocol that
    # runs them.  Evicted-voter purge at an epoch boundary, alone and
    # racing a view change:
    ("poe-mac", "epoch-shrink"): "a3f57a6c7033701c",
    ("poe-ts", "epoch-shrink"): "f5e222e01acdc871",
    ("pbft", "epoch-shrink"): "3dbb9610abaaffff",
    ("sbft", "epoch-shrink"): "47777a3d16dd7611",
    ("zyzzyva", "epoch-shrink"): "0f50f659c11aa453",
    ("poe-mac", "epoch-under-vc"): "842bd1fe9a998f3a",
    ("poe-ts", "epoch-under-vc"): "c963996a565d6b4b",
    ("pbft", "epoch-under-vc"): "0a951335f814440c",
    ("sbft", "epoch-under-vc"): "f060999ece4e81b4",
    ("zyzzyva", "epoch-under-vc"): "82fb1a1924a9af5f",
    # Proposal admission under a forger and an equivocating primary; new-view
    # adoption with rollback to the last agreement (Zyzzyva rolls back 12
    # and 14 batches on its equivocate rows, PoE-TS one on churn).  At this
    # batch budget the forge-history-vc rows finish before the primary
    # crashes; GOLDEN_MATRIX_CELLS below pins the cells that reach it.
    ("poe-ts", "forge-history-vc"): "61a6ac637628ac50",
    ("pbft", "forge-history-vc"): "1c10169497cd1ce6",
    ("sbft", "forge-history-vc"): "d86625a794367df8",
    ("zyzzyva", "forge-history-vc"): "3462b68aef5ee897",
    ("pbft", "equivocate"): "65eaa3ea484f1dc9",
    ("sbft", "equivocate"): "eff3ef29ec5b8275",
    ("zyzzyva", "equivocate"): "ebc4a79c29aa078b",
    ("zyzzyva", "checkpoint-equivocate"): "0b744000e226201b",
    ("poe-ts", "churn"): "5d49422c2f5b19db",
    # Stable-checkpoint pruning at a contested boundary.
    ("poe-mac", "checkpoint-equivocate"): "6dd08cd611950ef4",
    ("pbft", "checkpoint-equivocate"): "74d010585e9c8aa1",
    # The non-speculative ablation's commit_votes tally.
    ("poe-nospec", "no-fault"): "07eebc407c261178",
}


@pytest.mark.parametrize("protocol,scenario", sorted(GOLDEN_SCENARIOS))
def test_golden_scenario_rows(protocol, scenario):
    fingerprint = run_fingerprint(_scenario_config_ex(protocol, scenario))
    assert _fingerprint_digest(fingerprint) == GOLDEN_SCENARIOS[(protocol, scenario)]


GOLDEN_MATRIX_CELLS = {
    # The fault matrix's own deployment of a cell (one client, four
    # outstanding, 20 batches): slow enough on these two protocols that the
    # primary crash lands mid-run, so the view change adopts a history a
    # forger contested while one replica lags (Zyzzyva rolls back 6).
    ("sbft", "forge-history-vc"): "b374f601e6a7e7ad",
    ("zyzzyva", "forge-history-vc"): "504ed922ec7b2f2f",
    # On these three the 20-batch cell ends before the 150 ms crash, so the
    # forger never sees a request to rewrite (0 forged, view_changes 0 in
    # MATRIX_EXPECTATIONS.json).  At the budgets in MATRIX_CELL_BUDGETS the
    # crash lands mid-run and the forger rewrites 3 / 6 / 3 requests inside
    # one real view change (counted, seeds 3 and 11) — the only rows that
    # run the PoE and PBFT request forgers.
    ("poe-mac", "forge-history-vc"): "9a9c67dae4bb7095",
    ("poe-ts", "forge-history-vc"): "f7a99e8d9461b55e",
    ("pbft", "forge-history-vc"): "f61259c8f031e426",
    # TimeoutStaller recognises a view-change request of each leader-based
    # protocol by its type; every row stalls exactly one request.
    ("poe-mac", "timeout-stall"): "d18b5a9e2d8e4ef3",
    ("pbft", "timeout-stall"): "8e8965920eed1d00",
    ("sbft", "timeout-stall"): "485476a08a6f6d9c",
    ("zyzzyva", "timeout-stall"): "29bd48e0811b7a79",
    # A view change under the non-speculative ablation: the slot's log
    # entry is the proof its commit phase hands to execution.
    ("poe-nospec", "primary-crash"): "4543665701255b0f",
    # Checkpoint votes, the f+1 vouching rule and state transfer: a dark
    # replica catches up through 4 installed transfers per run (HotStuff
    # instead fetches 7 proposals and resyncs its chain once) ...
    ("poe-mac", "dark-replicas"): "1eb61c788ab841ff",
    ("poe-ts", "dark-replicas"): "d364ea7d6acf8635",
    ("pbft", "dark-replicas"): "ecbaff66784b1474",
    ("sbft", "dark-replicas"): "607a29eca2cc85d3",
    ("zyzzyva", "dark-replicas"): "dd0062da6a622a6f",
    ("hotstuff", "dark-replicas"): "1db083d7f53e44fb",
    # ... while a liar fabricates boundaries and poisons responses: the same
    # 4 installs plus 6 / 8 / 4 / 5 / 4 rejected responses (HotStuff: 7
    # fetched, 1 resync) ...
    ("poe-mac", "lying-checkpoint"): "84d928efcd287cd2",
    ("poe-ts", "lying-checkpoint"): "075ab74c810e7494",
    ("pbft", "lying-checkpoint"): "d1b7d27b955f76d1",
    ("sbft", "lying-checkpoint"): "2bb0db2cb5967ecf",
    ("zyzzyva", "lying-checkpoint"): "5565c7172de68399",
    ("hotstuff", "lying-checkpoint"): "6dd17df72c00a241",
    # ... and after executing a fabricated batch: one same-height repair out
    # of 2 installs, read from the boundary journal.
    ("poe-mac", "wrong-exec"): "b6360219fb642b09",
    ("pbft", "wrong-exec"): "38303386bdcbc7a0",
    ("sbft", "wrong-exec"): "4e6b9bbecde619d6",
    ("hotstuff", "wrong-exec"): "b930d8316d51d010",
    # HotStuff's per-round record under fetch, late-certificate resync and
    # the pacemaker: 2 fetched / 3 resyncs / 8 timeouts, 2 / 2 / 8, and 60
    # timeouts each with a crashed replica in the rotation.
    ("hotstuff", "churn"): "3097b3eadf4e61f7",
    ("hotstuff", "forge-history"): "4285c5db357f92e9",
    ("hotstuff", "backup-crash"): "c29fbdd1baee05db",
    ("hotstuff", "primary-crash"): "5b689130a9f8047c",
    # The paper's failure configuration on Zyzzyva: every one of the 20
    # batches completes through a client commit certificate.
    ("zyzzyva", "backup-crash"): "09e79faab2370a85",
}

#: Per-pool batch budget of a pinned cell where the matrix's 20 is too few.
MATRIX_CELL_BUDGETS = {
    ("poe-mac", "forge-history-vc"): 480,
    ("poe-ts", "forge-history-vc"): 240,
    ("pbft", "forge-history-vc"): 240,
}


@pytest.mark.parametrize("protocol,scenario", sorted(GOLDEN_MATRIX_CELLS))
def test_golden_matrix_cells(protocol, scenario):
    from repro.fabric.scenarios import ScenarioParams, scenario_cluster_config

    params = ScenarioParams(
        seed=11, total_batches=MATRIX_CELL_BUDGETS.get((protocol, scenario), 20))
    fingerprint = run_fingerprint(
        scenario_cluster_config(protocol, scenario, params))
    assert _fingerprint_digest(fingerprint) == GOLDEN_MATRIX_CELLS[(protocol, scenario)]


def _xshard_scenario_config(protocol: str, scenario: str, seed: int = 11):
    """A sharded config mirroring one xshard fault-matrix cell."""
    from repro.fabric.scenarios import (
        SHARDED_SCENARIOS,
        ScenarioParams,
        sharded_cluster_config,
    )

    return sharded_cluster_config(
        protocol, SHARDED_SCENARIOS[scenario], ScenarioParams(seed=seed))


GOLDEN_XSHARD_CRASH_2PC = "0b0c7db90d254b75"


def test_golden_xshard_crash_2pc():
    from repro.fabric.sharding import sharded_fingerprint

    fingerprint = sharded_fingerprint(
        _xshard_scenario_config("poe-mac", "xshard-crash-2pc"))
    assert _fingerprint_digest(fingerprint) == GOLDEN_XSHARD_CRASH_2PC


GOLDEN_XSHARD = {
    # The rows that run the pool's probe -> decide path (a forged abort is
    # rejected, a stalled coordinator is suspected) and the coordinator's
    # retransmit path (a shard primary is dark while prepares are out).
    ("poe-mac", "xshard-coordinator-equivocate"): "2797c7d5d6a25431",
    ("pbft", "xshard-coordinator-equivocate"): "9e8b896a2684feb4",
    ("poe-mac", "xshard-coordinator-stall"): "852230f1c299d60a",
    ("pbft", "xshard-coordinator-stall"): "461d708118119908",
    ("poe-mac", "xshard-shard-primary-crash"): "3faa07fd36e341a1",
    ("pbft", "xshard-shard-primary-crash"): "d89e160741a89c6e",
}


@pytest.mark.parametrize("protocol,scenario", sorted(GOLDEN_XSHARD))
def test_golden_xshard_rows(protocol, scenario):
    from repro.fabric.sharding import sharded_fingerprint

    fingerprint = sharded_fingerprint(_xshard_scenario_config(protocol, scenario))
    assert _fingerprint_digest(fingerprint) == GOLDEN_XSHARD[(protocol, scenario)]


# ------------------------------------------------- digest and state pins
# ``run_fingerprint`` sees completion records, the event count, the clock
# and two rates: no digest, no ledger hash, no store state.  A change to
# how transactions are built, signed or executed is invisible to every
# golden above, so the bytes themselves are pinned here.

def _pinned_values():
    from repro.crypto.keys import generate_system_keys
    from repro.crypto.signatures import SignatureScheme, build_registry
    from repro.ledger.store import result_digest
    from repro.workload.transactions import (
        Operation,
        OpType,
        RequestBatch,
        Transaction,
    )
    from repro.workload.ycsb import YcsbConfig, YcsbWorkload

    read = Operation(OpType.READ, "user7")
    write = Operation(OpType.WRITE, "user42", "w0-" + "x" * 16)
    transactions = {
        "txn.read": Transaction("c:txn:0", "c", (read,)),
        "txn.write": Transaction("c:txn:1", "c", (write,)),
        "txn.two_ops": Transaction("c:txn:2", "c", (write, read)),
        "txn.no_ops": Transaction("c:txn:3", "c"),
    }
    keystores = generate_system_keys(["replica:0"], ["c"], seed=b"pin")
    scheme = SignatureScheme(keystores["c"], build_registry(keystores))
    over_txn = scheme.sign(transactions["txn.write"].digest())
    over_values = scheme.sign("view-change", 3)
    values = {name: txn.digest() for name, txn in transactions.items()}
    values.update({
        "batch": RequestBatch("c:batch:0", tuple(transactions.values())).digest(),
        "batch.empty": RequestBatch("c:batch:1", ()).digest(),
        "result.no_reads": result_digest("c:txn:1", (), 1),
        "result.hit": result_digest("c:txn:0", (("user7", "value-7"),), 0),
        "result.miss": result_digest("c:txn:0", (("user7", None),), 0),
        "op.read": read.canonical_bytes(),
        "op.write": write.canonical_bytes(),
        "sign.txn.payload_digest": over_txn.payload_digest,
        "sign.txn.tag": over_txn.tag,
        "sign.values.payload_digest": over_values.payload_digest,
        "sign.values.tag": over_values.tag,
    })
    # The generator's three entry points interleaved on one workload: the
    # order of its Zipfian and write/read draws, and the value format.
    workload = YcsbWorkload(YcsbConfig.small(seed=5), client_id="c")
    drawn = []
    for _ in range(20):
        drawn.extend(workload.next_batch(1).transactions)
        drawn.extend(workload.next_batch_for_shard(1, 2, 1).transactions)
        drawn.extend(workload.next_cross_shard_operations([0, 1], 2).values())
    values["ycsb.draws"] = hashlib.sha256(repr(
        [(txn.txn_id, txn.operations) for txn in drawn]).encode()).digest()
    return {name: value.hex() for name, value in values.items()}


# The eight entries that contain an operation's bytes (``op.*``, the three
# ``txn.*`` with operations, ``batch``, ``sign.txn.*``) were re-pinned when
# ``Operation.canonical_bytes`` became injective; so were ``heads``,
# ``states`` and ``tags`` of every GOLDEN_REAL_EXECUTION row, while their
# ``stores`` and ``results`` (no operation bytes in either) stayed.
GOLDEN_BYTES = {
    "txn.read": "cb70a0f1cf2f29423cc1b647eb4579d5dade1ed6d1987ced1d3f9466017fc43c",
    "txn.write": "0a232aeba19cb61490735ef56c1fb9098cba6792587a5983915dba20562d60f5",
    "txn.two_ops": "7fc0b4be4e789f3b297f66f42b07be08ef7eb468b5527fbdefcba1ab76ed3475",
    "txn.no_ops": "fd626ce278fdec887556248f22fd7f7a25f86f795aee20efce5a7044243f5b2c",
    "batch": "0e96aace6b002d2da68561d337640b323436977e4d01e66505620ca517e720e9",
    "batch.empty": "e11cb666bc5456e5f9fdd01f6a72a8f12a4e3af67e4ce0caeec6b3c1cfaa3d67",
    "result.no_reads": "964bf60a3a1b769847dcfff5abf3f270032d18fb8cd2f50d89ff586a9c45323f",
    "result.hit": "1c3bef4d3c73943ec158a19859548a37c9c9314ecc52e9de1cc69fcbf5f6b66a",
    "result.miss": "c634f4bdaa6a4c69b1b9a7fe40777e79353dc25a2628e1ee3d3046392e715a6a",
    "op.read": b"read|5|user7".hex(),
    "op.write": b"write|6|user42|w0-xxxxxxxxxxxxxxxx".hex(),
    "sign.txn.payload_digest":
        "9f66cbd4cde5219d05e676ec91303bd0611d6da74ff0165cfef977b0cc17b463",
    "sign.txn.tag": "f8d0d8ba35ec9c636622273dd5523966afcd337aad5afec86f8ffb51730907b2",
    "sign.values.payload_digest":
        "edbaca944ece77cf78b76d175b60af2fe4f29edb2d4f8bb83ab5581be2867bce",
    "sign.values.tag": "3ca969a9c2e24310de97a8aad334f053d8dcd3edb779aaaafe33d73f221e1a95",
    "ycsb.draws": "8d31a86ed15aa2ededd62721421f66b70a24d05f4f8a1ce0de7c82144b21b01a",
}


def test_golden_digest_and_signature_bytes():
    assert _pinned_values() == GOLDEN_BYTES


def _real_execution_state(config: ClusterConfig) -> dict:
    """What a real-execution run left on every replica, hashed by part:
    ledger heads, tables, state digests, every executed slot's result
    digest, and the signature tags of the first executed batch."""
    cluster = Cluster(config)
    # A record lets go of its batch below a stable checkpoint: keep the
    # first batch replica 1 executes.
    executor = cluster.replicas[1].executor
    execute, first_batch = executor.execute, []

    def journalling_execute(sequence, view, batch, proof=None):
        if sequence == 0:
            first_batch.append(batch)
        return execute(sequence, view, batch, proof)

    executor.execute = journalling_execute
    cluster.start()
    cluster.run_until_done(max_ms=60_000.0)
    parts = {name: hashlib.sha256()
             for name in ("heads", "stores", "states", "results", "tags")}
    for replica in cluster.replicas:
        executor = replica.executor
        parts["heads"].update(replica.blockchain.head.block_hash)
        parts["stores"].update(executor.store.snapshot_digest())
        parts["states"].update(executor.state_digest())
        for sequence in range(executor.last_executed_sequence + 1):
            parts["results"].update(executor.executed(sequence).result_digest)
    for txn in first_batch[-1].transactions:
        parts["tags"].update(txn.signature.tag)
    state = {name: part.hexdigest()[:16] for name, part in parts.items()}
    state["executed"] = [r.executor.last_executed_sequence for r in cluster.replicas]
    state["view_changes"] = max(r.view_changes_completed for r in cluster.replicas)
    return state


def _ycsb_exec_config(seed: int, crash_primary: bool = False) -> ClusterConfig:
    """poebench's ``ycsb_exec_n4`` deployment at 1/20 budget."""
    import dataclasses

    config = ClusterConfig(
        protocol="poe-mac", num_replicas=4, batch_size=100, total_batches=16,
        use_ycsb_payload=True, execute_operations=True, seed=seed)
    if crash_primary:
        # Four outstanding so the crash leaves batches unproposed, and a
        # checkpoint every five so undo logs are pruned mid-run.
        config = dataclasses.replace(
            config, client_outstanding=4, request_timeout_ms=100.0,
            checkpoint_interval=5,
            faults=FaultSchedule.primary_crash(replica_id(0), at_ms=3.0))
    return config


GOLDEN_REAL_EXECUTION = {
    (3, False): {
        "heads": "7aa74956382106a2", "stores": "e498f2d0a5daf852",
        "states": "88de0b7505df06b4", "results": "2dabef7e507b5385",
        "tags": "eccc3e2c7a37001c",
        "executed": [15, 15, 15, 15], "view_changes": 0},
    (11, False): {
        "heads": "0335bff55827f0ea", "stores": "8313aee8699fcaa1",
        "states": "c99c386914ab6172", "results": "5eceec3cbe7f5c45",
        "tags": "b396bf78d69c2aaf",
        "executed": [15, 15, 15, 15], "view_changes": 0},
    # The primary dies with four batches executed; the others finish the
    # run in view 1 and prune their undo logs at three checkpoints.
    (3, True): {
        "heads": "53cae85088eda6f7", "stores": "4a119b2413597d29",
        "states": "beaa453771dc1700", "results": "838f547312213b43",
        "tags": "eb7abf3b275189e5",
        "executed": [3, 15, 15, 15], "view_changes": 1},
}


@pytest.mark.parametrize("seed,crash_primary", sorted(GOLDEN_REAL_EXECUTION))
def test_golden_real_execution_state(seed, crash_primary):
    state = _real_execution_state(_ycsb_exec_config(seed, crash_primary))
    assert state == GOLDEN_REAL_EXECUTION[(seed, crash_primary)]

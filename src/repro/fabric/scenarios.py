"""Adversarial scenario matrix: protocols × fault scenarios, audited.

The ROADMAP's north star asks for "as many scenarios as you can
imagine"; this module is the harness that makes those scenarios cheap to
add and impossible to run without a safety check.  A *scenario* is a
named recipe that maps a deployment (a
:class:`~repro.fabric.cluster.ClusterConfig`, by default
:data:`MATRIX_DEPLOYMENT`) to the same deployment with its fault
schedule, Byzantine replicas, network or reconfiguration plan;
:func:`run_scenario` builds that cluster, attaches the
:class:`~repro.fabric.audit.SafetyAuditor`, runs to completion (or a
virtual-time bound, for combinations that are expected to stall) and
returns a structured outcome.

:func:`run_matrix` sweeps protocols × scenarios — the default protocol
list covers the paper's five protocols with PoE in both of its
authentication schemes (MACs and threshold signatures; the baselines are
tied to their native scheme) — and :func:`format_matrix` renders the
liveness/safety table.

Every cell must be live and safe unless ``MATRIX_EXPECTATIONS.json``
pins it otherwise; that table, diffed on every column of
:class:`ScenarioOutcome` by ``examples/fault_matrix.py --expected``, is
the matrix's only expectation.  Since the baseline recovery subsystem
landed (SBFT and Zyzzyva view changes over
:class:`~repro.protocols.recovery.PrimaryBackupReplica`, including
Zyzzyva's client proof-of-misbehaviour path) it pins no deviation: the
cells that used to be expected-stall (``sbft``/``zyzzyva`` × faulty
primary) and expected-unsafe (``zyzzyva × equivocate``) now recover and
must pass the auditor like every other cell.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fabric.audit import AuditReport, SafetyAuditor, ShardedSafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, ReconfigPlan, ReconfigStep
from repro.fabric.experiments import backup_crash
from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig, coordinator_id
from repro.net.byzantine import ByzantineSpec
from repro.net.conditions import DriftPhase, LatencyTopology, NetworkConditions
from repro.net.faults import FaultSchedule
from repro.protocols.base import fault_bound

#: Protocol keys swept by default: the paper's five protocols, with PoE in
#: both authentication schemes (ingredient I3).  PBFT is MAC-native; SBFT
#: and HotStuff are threshold-native; Zyzzyva is MAC-native.
MATRIX_PROTOCOLS: Tuple[str, ...] = (
    "poe-mac", "poe-ts", "pbft", "sbft", "zyzzyva", "hotstuff",
)


#: The deployment every matrix cell starts from: n = 4, 10-transaction
#: batches with 4 in flight, 20 of them, a 100 ms timeout and a checkpoint
#: every 5 slots.  A cell is this with its protocol and its recipe applied;
#: ``fault_matrix.py --replicas/--batches/--seed`` and the tests replace
#: fields of it.
MATRIX_DEPLOYMENT = ClusterConfig(
    num_replicas=4, batch_size=10, client_outstanding=4, total_batches=20,
    request_timeout_ms=100.0, checkpoint_interval=5, seed=11)

#: A recipe maps a deployment to the deployment its scenario describes:
#: ``dataclasses.replace(base, faults=..., byzantine=..., ...)``.  Replica
#: ids come from ``base.replica_ids()``, so a recipe run on a shard's
#: namespace (``namespace="s2/"``) names shard 2's replicas: the whole
#: single-group library is reusable per shard without modification.
ScenarioRecipe = Callable[[ClusterConfig], ClusterConfig]


@dataclass(frozen=True)
class ScenarioDef:
    """One registered scenario: the recipe plus its catalogue entry."""

    name: str
    recipe: ScenarioRecipe
    description: str = ""


#: The scenario registry, populated by :func:`register_scenario` in
#: definition order (which is the matrix's column order).
SCENARIO_DEFS: Dict[str, ScenarioDef] = {}


def register_scenario(name: str, description: str = ""
                      ) -> Callable[[ScenarioRecipe], ScenarioRecipe]:
    """Register a scenario recipe under *name* (decorator)."""

    def wrap(recipe: ScenarioRecipe) -> ScenarioRecipe:
        SCENARIO_DEFS[name] = ScenarioDef(
            name=name, recipe=recipe, description=description)
        return recipe

    return wrap


@register_scenario("no-fault", "clean run, LAN conditions")
def _no_fault(base: ClusterConfig) -> ClusterConfig:
    return base


# The paper's standard single-backup-failure configuration.
register_scenario("backup-crash", "one backup crashes at start")(backup_crash)


@register_scenario("primary-crash", "primary crashes mid-workload; view change required")
def _primary_crash(base: ClusterConfig) -> ClusterConfig:
    # Crash the primary with most of the workload still outstanding, so
    # recovery requires a view change (paper, Figure 10).
    return replace(base, faults=FaultSchedule.primary_crash(
        base.replica_ids()[0], at_ms=2.0))


@register_scenario("dark-replicas", "malicious primary keeps f replicas in the dark")
def _dark_replicas(base: ClusterConfig) -> ClusterConfig:
    # A malicious primary keeps f replicas in the dark (paper, Example 3
    # case 2); they must catch up through checkpoint state transfer.
    ids = base.replica_ids()
    return replace(base, faults=FaultSchedule().add_dark_replicas(
        ids[0], ids[len(ids) - fault_bound(base.num_replicas):]))


@register_scenario("equivocate", "primary equivocates with forged votes")
def _equivocate(base: ClusterConfig) -> ClusterConfig:
    # The primary proposes conflicting batches to disjoint halves and
    # fabricates the dark half's votes under forged identities.
    return replace(base, byzantine=(ByzantineSpec("equivocate-spoof", 0),))


@register_scenario("partition-heal", "f replicas partitioned away, then healed")
def _partition_heal(base: ClusterConfig) -> ClusterConfig:
    # Sever f replicas from the majority for a window, then heal; the
    # majority retains an nf quorum throughout.
    ids = base.replica_ids()
    split = len(ids) - fault_bound(base.num_replicas)
    return replace(base, faults=FaultSchedule().add_partition(
        ids[:split], ids[split:], at_ms=50.0, until_ms=600.0))


@register_scenario("forge-history", "backup forges view-change histories below the anchor")
def _forge_history(base: ClusterConfig) -> ClusterConfig:
    # Replica-level: a backup forges view-change histories below the
    # durable anchor (and, for Zyzzyva, fabricates the POM that starts the
    # view change once the partition heals).  The last replica is
    # partitioned away for an initial window, so when the forged view
    # change fires right after the heal a lagging honest replica exists
    # that has not yet heard enough checkpoint votes to self-heal — the
    # exact shape the forged sub-anchor entries prey on.  The window is
    # bounded (unlike a permanent double-dark link, which would silence
    # half of HotStuff's leadership line and push every protocol outside
    # the fault model the matrix is designed around).
    ids = base.replica_ids()
    faults = FaultSchedule().add_partition(
        ids[:-1], ids[-1:], at_ms=0.0, until_ms=base.request_timeout_ms * 1.5)
    return replace(base, faults=faults,
                   byzantine=(ByzantineSpec("forge-history", 2),))


@register_scenario("lying-checkpoint", "backup poisons state transfers and fabricates checkpoints")
def _lying_checkpoint(base: ClusterConfig) -> ClusterConfig:
    # Replica-level: an up-to-date backup poisons the state transfers it
    # serves and pushes fabricated future checkpoints at every peer; the
    # dark replica guarantees real transfer traffic exists to poison.
    ids = base.replica_ids()
    return replace(base, faults=FaultSchedule().add_dark_replicas(ids[0], ids[-1:]),
                   byzantine=(ByzantineSpec("lying-checkpoint", 1),))


@register_scenario("wrong-exec", "backup executes a fabricated batch and must resync")
def _wrong_exec(base: ClusterConfig) -> ClusterConfig:
    # Replica-level: one backup executes a fabricated batch at one slot —
    # same height as the quorum, divergent state — and must detect the
    # stable checkpoint contradicting its own digest and resync.
    return replace(base, byzantine=(ByzantineSpec("wrong-exec", 2),))


@register_scenario("adaptive-primary", "adversary re-targets whoever is primary now")
def _adaptive_primary(base: ClusterConfig) -> ClusterConfig:
    # Adaptive: a backup partitions whoever is primary *now*, re-targeting
    # after each view change it observes through its own replica's state.
    # The partition windows are bounded (1.5 timeouts), and the attack
    # budget is two primaries, so the third view's primary runs unmolested.
    return replace(base, byzantine=(ByzantineSpec("adaptive-primary", 2),))


@register_scenario("checkpoint-equivocate", "equivocation aimed at checkpoint boundaries")
def _checkpoint_equivocate(base: ClusterConfig) -> ClusterConfig:
    # Adaptive: the primary equivocates only on the last two slots before
    # each checkpoint boundary — the exact window where a divergent batch
    # would be laundered into a stable checkpoint if checkpoint votes did
    # not require f + 1 matching digests.
    return replace(base, byzantine=(ByzantineSpec("checkpoint-equivocate", 0),))


@register_scenario("timeout-stall", "quorum-critical view-change vote withheld to the deadline")
def _timeout_stall(base: ClusterConfig) -> ClusterConfig:
    # Adaptive: the primary crashes, and one backup withholds its
    # VIEW-CHANGE vote until just before the honest replicas' retry
    # deadline — riding the exponential backoff schedule it reads off its
    # own replica.  With n = 4 the stalled vote is quorum-critical, so
    # recovery is delayed by almost a full retry period but must still
    # complete (the stall budget is bounded).
    return replace(base,
                   faults=FaultSchedule.primary_crash(base.replica_ids()[0], at_ms=2.0),
                   byzantine=(ByzantineSpec("timeout-stall", 2),))


@register_scenario("churn", "bounded leave/rejoin membership churn")
def _churn(base: ClusterConfig) -> ClusterConfig:
    # Membership churn: bounded leave/rejoin windows.  A backup leaves
    # almost immediately and the primary follows, so the cluster drops to
    # n - 2 live replicas (below quorum — progress stalls) until the
    # backup rejoins mid-view-change; the deposed primary rejoins last,
    # behind both the view and the checkpoint horizon, and must catch up
    # through deferred messages and checkpoint state transfer.
    ids, timeout = base.replica_ids(), base.request_timeout_ms
    faults = (FaultSchedule()
              .add_crash(ids[-1], at_ms=5.0, until_ms=5.0 + 0.9 * timeout)
              .add_crash(ids[0], at_ms=2.0, until_ms=2.0 + 1.6 * timeout))
    return replace(base, faults=faults)


GEO_REGIONS: Tuple[str, ...] = ("us-east", "eu-west", "ap-south")


def geo_topology(base: ClusterConfig) -> LatencyTopology:
    """Three-region WAN topology with a scheduled mid-run drift.

    Replicas round-robin across three regions; links are directional (and
    mildly asymmetric).  The drift schedule doubles every inter-region
    latency early in the run, then eases off while tripling one specific
    link, then heals — all deterministic functions of virtual time.
    """
    regions = {rid: GEO_REGIONS[i % len(GEO_REGIONS)]
               for i, rid in enumerate(base.replica_ids())}
    return LatencyTopology(
        regions=regions,
        intra_ms=0.3,
        link_ms={
            ("us-east", "eu-west"): 7.0,
            ("eu-west", "us-east"): 8.0,
            ("us-east", "ap-south"): 11.0,
            ("eu-west", "ap-south"): 9.0,
        },
        default_inter_ms=10.0,
        default_region="us-east",
        drift=(
            DriftPhase(at_ms=0.0, scale=1.0),
            DriftPhase(at_ms=40.0, scale=2.0),
            DriftPhase(at_ms=120.0, scale=1.3,
                       link_scale={("us-east", "ap-south"): 3.0}),
            DriftPhase(at_ms=260.0, scale=1.0),
        ),
    )


@register_scenario("geo-drift", "three-region WAN with scheduled latency drift")
def _geo_drift(base: ClusterConfig) -> ClusterConfig:
    # Topology: no faults, no Byzantine replica — the adversary is the
    # network itself.  Inter-region latencies double mid-run and one link
    # degrades 3x before healing; the protocols must absorb the drift
    # without spurious view changes turning into safety violations.
    return replace(base, conditions=NetworkConditions(
        latency_ms=0.5, jitter_ms=0.05, bandwidth_mbps=2000.0,
        topology=geo_topology(base), seed=base.seed,
    ))


@register_scenario("forge-history-vc", "forged history competing inside a real view change")
def _forge_history_vc(base: ClusterConfig) -> ClusterConfig:
    # The forged-history corner, aimed at the view change itself: the
    # partition creates a lagging honest replica, and the primary crashes
    # permanently the moment the partition heals — so every protocol runs
    # a *real* view change in which the forger's fabricated request
    # (stable checkpoint -1, invented history from slot 0) competes
    # against honest requests while one participant is still behind.
    # Support-ranked selection must keep the forged sub-anchor entries
    # out of the adopted prefix.
    ids = base.replica_ids()
    window_ms = base.request_timeout_ms * 1.5
    faults = (FaultSchedule()
              .add_partition(ids[:-1], ids[-1:], at_ms=0.0, until_ms=window_ms)
              .add_crash(ids[0], at_ms=window_ms))
    return replace(base, faults=faults,
                   byzantine=(ByzantineSpec("forge-history", 2),))


# The reconfiguration scenarios set total_batches: they need enough
# batches left *after* the record lands for the activation boundary to be
# reached on every protocol (Zyzzyva speculatively orders the default 20
# in under 10 ms).

@register_scenario("epoch-grow", "consensus-committed growth: two fresh replicas join mid-run")
def _epoch_grow(base: ClusterConfig) -> ClusterConfig:
    # Reconfiguration: a signed ReconfigRecord adding two never-before-seen
    # replicas is ordered through the normal batch path and activates at
    # the next checkpoint boundary; the joiners bootstrap via vouched
    # state transfer carrying the epoch log and then vote.  The record is
    # injected early (2 ms) with 30 batches of runway.
    n = base.num_replicas
    plan = ReconfigPlan(steps=(ReconfigStep(at_ms=2.0, add=(n, n + 1)),))
    return replace(base, reconfig=plan, total_batches=30)


@register_scenario("epoch-shrink", "grow then shrink back: evicted replicas self-halt at the boundary")
def _epoch_shrink(base: ClusterConfig) -> ClusterConfig:
    # Two chained reconfigurations: grow n -> n+2, then remove one joiner
    # and one founding member.  The second record must validate against
    # the *post-grow* membership (new_epoch = 2), the evicted replicas
    # self-halt at the activation boundary, and the auditor re-validates
    # every stable checkpoint against the quorum of its epoch.
    n = base.num_replicas
    plan = ReconfigPlan(steps=(
        ReconfigStep(at_ms=2.0, add=(n, n + 1)),
        ReconfigStep(at_ms=8.0, remove=(n + 1, n - 1)),
    ))
    return replace(base, reconfig=plan, total_batches=30)


@register_scenario("epoch-under-vc", "primary crashes while a membership change is in flight")
def _epoch_under_vc(base: ClusterConfig) -> ClusterConfig:
    # Reconfiguration under recovery: the primary crashes with most of
    # the workload outstanding, and the grow record arrives while the
    # cluster is (or has just finished) view-changing.  The record must
    # survive the view change — either carried in a new-view history or
    # re-proposed from retransmission — and activate exactly once.
    n = base.num_replicas
    plan = ReconfigPlan(steps=(ReconfigStep(at_ms=50.0, add=(n, n + 1)),))
    return replace(base,
                   faults=FaultSchedule.primary_crash(base.replica_ids()[0], at_ms=2.0),
                   reconfig=plan, total_batches=40)


@register_scenario("epoch-cycle", "repeated grow/shrink cycles; per-epoch bookkeeping must plateau")
def _epoch_cycle(base: ClusterConfig) -> ClusterConfig:
    # Churn-style reconfiguration: two full grow/shrink cycles, each
    # admitting fresh replica identities and then evicting them.  On a
    # soak run this is the leak check for the epoch registry: the epoch
    # log grows by exactly one entry per activated record and then
    # plateaus — nothing per-epoch may scale with run length.
    n = base.num_replicas
    plan = ReconfigPlan(steps=(
        ReconfigStep(at_ms=2.0, add=(n, n + 1)),
        ReconfigStep(at_ms=60.0, remove=(n, n + 1)),
        ReconfigStep(at_ms=120.0, add=(n + 2, n + 3)),
        ReconfigStep(at_ms=180.0, remove=(n + 2, n + 3)),
    ))
    return replace(base, reconfig=plan, total_batches=60)


@register_scenario("colluding-equivocate", "cabal equivocates only while a co-conspirator holds the seat")
def _colluding_equivocate(base: ClusterConfig) -> ClusterConfig:
    # Colluding tier: two behaviours share a playbook.  The equivocator
    # forks slots only while the cabal holds the primary seat (so the
    # attack is aimed, not random), and the vote-parker withholds its
    # checkpoint votes over the same windows to starve the boundary the
    # forked slot would have to be laundered through.  n = 7 keeps the
    # two-member cabal within f = 2.
    return replace(base, num_replicas=max(base.num_replicas, 7), byzantine=(
        ByzantineSpec("colluding-equivocate", 0),
        ByzantineSpec("colluding-parker", 2),
    ))


@register_scenario("colluding-reconfig-abuse", "Byzantine proposer's unsafe membership change must be refused")
def _colluding_reconfig_abuse(base: ClusterConfig) -> ClusterConfig:
    # Colluding tier meets reconfiguration: a conspirator fabricates a
    # membership change evicting f+1 honest replicas (breaking quorum
    # continuity) while its partner parks poisoned checkpoint votes
    # around the activation window.  Every honest replica must refuse
    # the unsafe record (journalling why) yet still order and activate
    # the legitimate grow that follows.
    n = max(base.num_replicas, 7)
    plan = ReconfigPlan(steps=(ReconfigStep(at_ms=10.0, add=(n, n + 1)),))
    return replace(base, num_replicas=n, reconfig=plan, byzantine=(
        ByzantineSpec("colluding-reconfig-abuse", 0),
        ByzantineSpec("colluding-parker-poison", 2),
    ))


def unknown_name_message(kind: str, value: str,
                         known: Iterable[str]) -> str:
    """Uniform "unknown X" error text that lists the valid names.

    Every CLI that takes a protocol/scenario/cell name funnels its
    not-found branch through here, so a typo always answers with the
    full valid vocabulary instead of a bare rejection.
    """
    return f"unknown {kind} {value!r}; valid {kind}s: {', '.join(known)}"


# ------------------------------------------------------------------ sharded
#: Protocols swept against the sharded scenario columns.  The acceptance
#: bar is PoE and PBFT shards; the other protocols still work as shard
#: protocols (SBFT excepted) but are not part of the default matrix.
SHARDED_MATRIX_PROTOCOLS: Tuple[str, ...] = ("poe-mac", "pbft")


@dataclass(frozen=True)
class ShardedScenarioDef:
    """One sharded scenario: per-shard recipes plus 2PC-level adversity.

    ``per_shard`` maps a shard index to a *single-group* scenario name
    from :data:`SCENARIO_DEFS`; the recipe runs with that shard's
    namespace, so the whole existing scenario library doubles as a
    per-shard fault vocabulary.  Coordinator-level adversity (crash or a
    Byzantine behaviour) lives on the hub network.
    """

    name: str
    description: str = ""
    num_shards: int = 2
    cross_shard_fraction: float = 0.35
    per_shard: Tuple[Tuple[int, str], ...] = ()
    coordinator_crash_at_ms: Optional[float] = None
    coordinator_behavior: Optional[str] = None


SHARDED_SCENARIOS: Dict[str, ShardedScenarioDef] = {}


def register_sharded_scenario(sdef: ShardedScenarioDef) -> ShardedScenarioDef:
    SHARDED_SCENARIOS[sdef.name] = sdef
    return sdef


register_sharded_scenario(ShardedScenarioDef(
    name="xshard-no-fault",
    description="two clean shards, 35% cross-shard transactions",
))
register_sharded_scenario(ShardedScenarioDef(
    name="xshard-crash-2pc",
    description="coordinator crashes mid-2PC; pools probe and decide",
    coordinator_crash_at_ms=3.0,
))
register_sharded_scenario(ShardedScenarioDef(
    name="xshard-coordinator-equivocate",
    description="Byzantine coordinator sends commit to one shard, a forged "
                "abort to the other; certificate validation must hold the line",
    coordinator_behavior="equivocate-coordinator",
))
register_sharded_scenario(ShardedScenarioDef(
    name="xshard-coordinator-stall",
    description="Byzantine coordinator prepares, then withholds every decide",
    coordinator_behavior="stall-coordinator",
))
register_sharded_scenario(ShardedScenarioDef(
    name="xshard-shard-primary-crash",
    description="shard 0's primary crashes mid-2PC (reuses the single-group "
                "primary-crash recipe inside the shard)",
    per_shard=((0, "primary-crash"),),
))


@dataclass
class ScenarioOutcome:
    """Result of one (protocol, scenario) cell of the matrix."""

    protocol: str
    scenario: str
    n: int
    completed_batches: int
    expected_batches: int
    live: bool
    safe: bool
    view_changes: int
    epochs: int = 0
    audit: AuditReport = field(repr=False, default=None)

    def cell(self) -> str:
        safety = "safe" if self.safe else "UNSAFE"
        liveness = "live" if self.live else "stall"
        return f"{liveness}/{safety}"


def scenario_cluster_config(protocol: str, scenario: str,
                            base: ClusterConfig = MATRIX_DEPLOYMENT) -> ClusterConfig:
    """The single-group deployment *scenario* describes over *base*, run
    with *protocol*."""
    try:
        sdef = SCENARIO_DEFS[scenario]
    except KeyError:
        raise KeyError(f"unknown scenario {scenario!r}; "
                       f"known: {sorted(SCENARIO_DEFS) + sorted(SHARDED_SCENARIOS)}") from None
    return sdef.recipe(replace(base, protocol=protocol))


def sharded_cluster_config(protocol: str, sdef: ShardedScenarioDef,
                           base: ClusterConfig = MATRIX_DEPLOYMENT) -> ShardedClusterConfig:
    """The sharded deployment *sdef* describes, each shard sized and
    executing like *base*.

    Every shard runs *protocol*; per-shard recipes come from the
    single-group registry, run on *base* under the shard's namespace.  A
    shard takes a recipe's fault schedule; a recipe that changes anything
    else is rejected rather than run truncated.
    """
    shard_faults: Dict[int, FaultSchedule] = {}
    for shard, recipe_name in sdef.per_shard:
        shard_base = replace(base, namespace=f"s{shard}/")
        planned = SCENARIO_DEFS[recipe_name].recipe(shard_base)
        changed = [f.name for f in dataclasses.fields(planned) if f.name != "faults"
                   and getattr(planned, f.name) != getattr(shard_base, f.name)]
        if changed:
            raise ValueError(
                f"sharded scenario {sdef.name!r}: per-shard recipe "
                f"{recipe_name!r} sets {', '.join(changed)}, which a shard "
                f"cannot take (only faults apply per shard)")
        if planned.faults is not None:
            shard_faults[shard] = planned.faults
    hub_faults = None
    if sdef.coordinator_crash_at_ms is not None:
        hub_faults = FaultSchedule().add_crash(
            coordinator_id(), at_ms=sdef.coordinator_crash_at_ms)
    return ShardedClusterConfig(
        num_shards=sdef.num_shards,
        protocols=protocol,
        num_replicas=base.num_replicas,
        batch_size=base.batch_size,
        client_outstanding=base.client_outstanding,
        total_batches=base.total_batches,
        cross_shard_fraction=sdef.cross_shard_fraction,
        request_timeout_ms=base.request_timeout_ms,
        checkpoint_interval=base.checkpoint_interval,
        execute_operations=base.execute_operations,
        use_ycsb_payload=base.use_ycsb_payload,
        shard_faults=shard_faults,
        hub_faults=hub_faults,
        coordinator_behavior=sdef.coordinator_behavior,
        seed=base.seed,
    )


def _outcome(protocol: str, scenario: str, n: int, expected_batches: int,
             replicas: Sequence[object], pools: Sequence[object],
             report: AuditReport) -> ScenarioOutcome:
    """Classify one finished, audited run (single-group or sharded)."""
    return ScenarioOutcome(
        protocol=protocol,
        scenario=scenario,
        n=n,
        completed_batches=sum(pool.completed_batches for pool in pools),
        expected_batches=expected_batches,
        live=all(pool.is_done() for pool in pools),
        safe=report.ok,
        view_changes=max(
            (getattr(replica, "view_changes_completed", 0)
             for replica in replicas if not replica.crashed),
            default=0,
        ),
        epochs=max((getattr(replica, "epoch", 0) for replica in replicas),
                   default=0),
        audit=report,
    )


def run_scenario(protocol: str, scenario: str,
                 base: ClusterConfig = MATRIX_DEPLOYMENT,
                 max_ms: float = 60_000.0) -> ScenarioOutcome:
    """Run one audited (protocol, scenario) cell over *base* for at most
    *max_ms* of virtual time, and classify the outcome."""
    if scenario in SHARDED_SCENARIOS:
        return run_sharded_scenario(protocol, scenario, base, max_ms=max_ms)
    config = scenario_cluster_config(protocol, scenario, base)
    cluster = Cluster(config)
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return _outcome(protocol, scenario, config.num_replicas,
                    config.total_batches * config.num_clients,
                    cluster.replicas, cluster.pools, auditor.report())


def run_sharded_scenario(protocol: str, scenario: str,
                         base: ClusterConfig = MATRIX_DEPLOYMENT,
                         max_ms: float = 60_000.0) -> ScenarioOutcome:
    """Run one audited (shard protocol, sharded scenario) cell over
    :func:`sharded_cluster_config`'s deployment."""
    try:
        sdef = SHARDED_SCENARIOS[scenario]
    except KeyError:
        raise KeyError(f"unknown sharded scenario {scenario!r}; "
                       f"known: {sorted(SHARDED_SCENARIOS)}") from None
    config = sharded_cluster_config(protocol, sdef, base)
    run = ShardedCluster(config)
    auditor = ShardedSafetyAuditor.attach(run)
    run.start()
    run.run_until_done(max_ms=max_ms)
    replicas = [replica for shard_cluster in run.shard_clusters
                for replica in shard_cluster.replicas]
    return _outcome(protocol, scenario, sdef.num_shards * config.num_replicas,
                    config.total_batches * config.num_pools,
                    replicas, run.pools, auditor.report())


def default_matrix_scenarios() -> Tuple[str, ...]:
    """The default column list: single-group scenarios, then sharded ones."""
    return tuple(SCENARIO_DEFS) + tuple(SHARDED_SCENARIOS)


def run_matrix(protocols: Sequence[str] = MATRIX_PROTOCOLS,
               scenarios: Optional[Sequence[str]] = None,
               base: ClusterConfig = MATRIX_DEPLOYMENT,
               max_ms: float = 60_000.0) -> List[ScenarioOutcome]:
    """Sweep protocols × scenarios over *base*, each cell audited.

    Sharded scenario columns only run for the protocols in
    :data:`SHARDED_MATRIX_PROTOCOLS`; the other (protocol, sharded
    scenario) combinations are skipped rather than reported as cells.
    """
    if scenarios is None:
        scenarios = default_matrix_scenarios()
    outcomes: List[ScenarioOutcome] = []
    for protocol in protocols:
        for scenario in scenarios:
            if (scenario in SHARDED_SCENARIOS
                    and protocol not in SHARDED_MATRIX_PROTOCOLS):
                continue
            outcomes.append(run_scenario(protocol, scenario, base,
                                         max_ms=max_ms))
    return outcomes


def format_matrix(outcomes: Sequence[ScenarioOutcome]) -> str:
    """Render outcomes as a protocols × scenarios text table."""
    protocols = list(dict.fromkeys(outcome.protocol for outcome in outcomes))
    scenarios = list(dict.fromkeys(outcome.scenario for outcome in outcomes))
    by_cell = {(o.protocol, o.scenario): o for o in outcomes}
    width = max(12, max(len(s) for s in scenarios) + 2)
    name_width = max(len(p) for p in protocols) + 2
    lines = ["".join([" " * name_width] + [s.rjust(width) for s in scenarios])]
    for protocol in protocols:
        cells = []
        for scenario in scenarios:
            outcome = by_cell.get((protocol, scenario))
            cells.append((outcome.cell() if outcome else "-").rjust(width))
        lines.append(protocol.ljust(name_width) + "".join(cells))
    return "\n".join(lines)


def unexpected_outcomes(outcomes: Sequence[ScenarioOutcome]) -> List[ScenarioOutcome]:
    """The cells that are not live and safe.

    The one rule that holds without a pinned table; a cell expected to
    stall or to break safety is recorded in ``MATRIX_EXPECTATIONS.json``
    and judged by ``examples/fault_matrix.py --expected`` instead.
    """
    return [outcome for outcome in outcomes
            if not (outcome.live and outcome.safe)]


# ---------------------------------------------------------------------- soak
#: The containers that grow with run length *by design*, each with its
#: reason.  Every other one :func:`node_state_sizes` finds must plateau at
#: the checkpoint/retention window — a new map needs no entry anywhere.
BY_DESIGN_GROWTH: Dict[str, str] = {
    "completions": "the pool's result: one record per completed batch",
    "blockchain._blocks": "the ledger: one block per executed batch",
    "epoch_log": "audit trail: one entry per activated reconfiguration",
    "rollback_log": "audit trail: one entry per rollback",
    "repair_log": "audit trail: one entry per same-height repair",
    "reconfig_refusals": "audit trail: one entry per refused reconfiguration",
    "executor._executed": "rollback_target and Zyzzyva's certificate admission "
                          "read a record's batch id and digest below the "
                          "stable checkpoint (its transactions and undo log "
                          "are dropped there), so bounding the count is a "
                          "behaviour decision (see ROADMAP)",
}

_CONTAINERS = (dict, set, list, deque)


def node_state_sizes(node) -> Dict[str, int]:
    """Size of every container *node* holds: its own attributes and, one
    level down, those of its component objects from this package
    (``executor._executed``, ``checkpoints._votes``)."""
    sizes: Dict[str, int] = {}
    for name, value in vars(node).items():
        if isinstance(value, _CONTAINERS):
            sizes[name] = len(value)
        elif type(value).__module__.startswith("repro."):
            sizes.update((f"{name}.{inner}", len(held))
                         for inner, held in getattr(value, "__dict__", {}).items()
                         if isinstance(held, _CONTAINERS))
    return sizes


@dataclass
class SoakSample:
    """One point-in-time snapshot of container sizes."""

    now_ms: float
    completed_batches: int
    sizes: Dict[str, int]  # container name -> its largest size on any node


@dataclass
class SoakReport:
    """Outcome of a bounded-horizon soak run."""

    protocol: str
    scenario: str
    steps: int
    completed_batches: int
    live: bool
    safe: bool
    samples: List[SoakSample]
    epochs: int = 0
    audit: AuditReport = field(repr=False, default=None)

    def tracked_names(self) -> List[str]:
        return sorted(set().union(*(sample.sizes for sample in self.samples)))

    def growers(self) -> List[Tuple[str, int, int]]:
        """``(name, plateau, final size)`` of every container outside
        :data:`BY_DESIGN_GROWTH` that outgrew its plateau — its size at the
        second sample, when every protocol is past the first reply-retention
        window — by more than half plus 64 (the sampling phase relative to
        checkpoint boundaries)."""
        plateau, final = self.samples[min(1, len(self.samples) - 1)].sizes, self.samples[-1].sizes
        return [(name, plateau.get(name, 0), size) for name, size in sorted(final.items())
                if name not in BY_DESIGN_GROWTH
                and size > plateau.get(name, 0) * 1.5 + 64]


#: The deployment soak runs start from: the matrix's, with the client
#: timeout shortened so the run spans several reply retention windows
#: (``request_timeout_ms * REPLY_RETENTION_TIMEOUTS``) of virtual time — a
#: soak that finishes inside one window could not observe the reply-state
#: GC at all.  :func:`run_soak` sets the batch budget.
SOAK_DEPLOYMENT = replace(MATRIX_DEPLOYMENT, request_timeout_ms=25.0)


#: Snapshots a soak run takes, evenly spaced over its batch budget.
SOAK_SAMPLES = 5


def run_soak(protocol: str, scenario: str = "no-fault", steps: int = 2000,
             base: ClusterConfig = SOAK_DEPLOYMENT,
             max_ms: float = 600_000.0) -> SoakReport:
    """Run *steps* batches over *base*, for at most *max_ms* of virtual
    time, sampling container sizes along the way.

    The samples let callers assert (:meth:`SoakReport.growers`) that every
    container is bounded by the checkpoint/retention window rather than
    the number of executed batches.
    """
    if scenario in SHARDED_SCENARIOS:
        raise ValueError(f"soak runs are single-group only; {scenario!r} "
                         f"is a sharded scenario")
    # A recipe may set the batch budget, but the soak horizon always wins
    # over it: *steps* is the point of the run.
    config = replace(scenario_cluster_config(protocol, scenario, base),
                     total_batches=steps)
    cluster = Cluster(config)
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    marks = [steps * (i + 1) // SOAK_SAMPLES for i in range(SOAK_SAMPLES)]
    samples: List[SoakSample] = []

    def completed() -> int:
        return sum(pool.completed_batches for pool in cluster.pools)

    def snapshot() -> None:
        sizes: Dict[str, int] = {}
        for node in list(cluster.replicas) + list(cluster.pools):
            for name, size in node_state_sizes(node).items():
                sizes[name] = max(size, sizes.get(name, 0))
        samples.append(SoakSample(cluster.simulator.now, completed(), sizes))

    while (cluster.simulator.now < max_ms
           and not all(pool.is_done() for pool in cluster.pools)):
        cluster.run_for(25.0)
        while marks and completed() >= marks[0]:
            marks.pop(0)
            snapshot()
    snapshot()
    report = auditor.report()
    return SoakReport(
        protocol=protocol,
        scenario=scenario,
        steps=steps,
        completed_batches=completed(),
        live=all(pool.is_done() for pool in cluster.pools),
        safe=report.ok,
        samples=samples,
        epochs=max((getattr(replica, "epoch", 0)
                    for replica in cluster.replicas), default=0),
        audit=report,
    )

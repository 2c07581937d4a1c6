"""The robustness tier: adaptive adversaries, churn and topology drift.

PR 6 makes the fault matrix fight back.  The adaptive behaviours react to
live protocol state (target whoever is primary *now*, equivocate only
near checkpoint boundaries, ride the view-change retry schedule), the
churn column cycles replicas out of and back into the membership, and
the geo topology drifts its inter-region latencies mid-run.  Every new
cell must stay live and safe across seeds and at n = 7; each behaviour
has an engagement check proving the attack really fires, and a
revert-demo showing which fix keeps the cell green when it is
monkeypatched back out.

The sharpest corner is the forged view-change history raced against the
*first* checkpoint: with no stable checkpoint the reconciliation anchor
is -1 and every slot sits in the "speculative tail", where a single
honest witness used to be enough — and a forged history tying it came
down to a digest tiebreak.  The contested-slot rule in
``longest_consecutive_prefix`` closes that hole; its revert-demo shows
pbft executing fabricated batches without it.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

import repro.protocols.pbft as pbft_module
import repro.protocols.sbft as sbft_module
from repro.core.view_change import _best_supported_entry
from repro.fabric.audit import SafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.scenarios import (
    MATRIX_DEPLOYMENT,
    MATRIX_PROTOCOLS,
    geo_topology,
    scenario_cluster_config,
)
from repro.net.byzantine import (
    ByzantineSpec,
    EquivocatingPrimary,
    PrimaryTargeter,
    TimeoutStaller,
    make_behavior,
)
from repro.net.conditions import DriftPhase, LatencyTopology, NetworkConditions
from repro.net.faults import FaultSchedule
from repro.protocols.checkpoint import CheckpointTracker
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.recovery import PrimaryBackupReplica, ViewChangeRequest
from repro.protocols.replica_base import BatchingReplica

NEW_SCENARIOS = ("adaptive-primary", "checkpoint-equivocate", "timeout-stall",
                 "churn", "geo-drift", "forge-history-vc")


def run_cell(protocol, scenario, total_batches=20, seed=11, num_replicas=4,
             max_ms=60_000.0):
    """Run one fault-matrix cell and return (cluster, auditor)."""
    base = dataclasses.replace(MATRIX_DEPLOYMENT, num_replicas=num_replicas,
                               total_batches=total_batches, seed=seed)
    cluster = Cluster(scenario_cluster_config(protocol, scenario, base))
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return cluster, auditor


def run_early_crash_forged_vc(protocol, seed=11, total_batches=20):
    """The anchor = -1 forged-history corner: the primary crashes *before*
    the first checkpoint can stabilise, so the ensuing view change
    reconciles histories with no anchor at all — every slot is in the
    speculative tail where the forger's fabricated entries compete
    against honest ones.  Returns (cluster, auditor)."""
    faults = (FaultSchedule()
              .add_partition([replica_id(i) for i in range(3)], [replica_id(3)],
                             at_ms=0.0, until_ms=150.0)
              .add_crash(replica_id(0), at_ms=5.0))
    config = ClusterConfig(
        protocol=protocol, num_replicas=4, batch_size=10, num_clients=1,
        client_outstanding=4, total_batches=total_batches,
        request_timeout_ms=100.0, checkpoint_interval=5,
        faults=faults,
        byzantine=(ByzantineSpec(behavior="forge-history", replica_index=2),),
        seed=seed,
    )
    cluster = Cluster(config)
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=60_000.0)
    return cluster, auditor


def completed(cluster):
    return len(cluster.completions())


def _old_prefix_selector(requests, f=0, trust_certificates=False):
    """The pre-contested-slot selector: above the anchor a single request
    always suffices, ties broken on the smallest digest — the hole the
    anchor = -1 forgery exploits."""
    max_checkpoint = max((r.stable_checkpoint for r in requests), default=-1)
    support, certified = {}, {}
    for request in requests:
        for entry in request.executed:
            batch_digest = entry.batch.digest()
            by_digest = support.setdefault(entry.sequence, {})
            by_digest.setdefault(batch_digest, []).append(entry)
            if trust_certificates and entry.proof is not None:
                certified.setdefault(entry.sequence, {})[batch_digest] = True
    prefix = {}
    for sequence in sorted(s for s in support if s <= max_checkpoint):
        entry = _best_supported_entry(support, certified, sequence, f + 1)
        if entry is not None:
            prefix[sequence] = entry
    kmax = max_checkpoint
    while True:
        entry = _best_supported_entry(support, certified, kmax + 1, 1)
        if entry is None:
            break
        kmax += 1
        prefix[kmax] = entry
    return prefix, kmax


# --------------------------------------------------------------------------
# Adaptive behaviour layer units.
# --------------------------------------------------------------------------

class TestAdaptiveBehaviourLayer:
    def test_registry_knows_adaptive_behaviors(self):
        assert isinstance(make_behavior("adaptive-primary"), PrimaryTargeter)
        equivocator = make_behavior("checkpoint-equivocate")
        assert isinstance(equivocator, EquivocatingPrimary)
        assert equivocator.trigger == "checkpoint"
        assert isinstance(make_behavior("timeout-stall"), TimeoutStaller)

    def test_equivocating_primary_rejects_unknown_trigger(self):
        with pytest.raises(ValueError, match="unknown equivocation trigger"):
            EquivocatingPrimary(trigger="bribe")

    def test_checkpoint_equivocator_forks_only_the_boundary_window(self):
        behavior = EquivocatingPrimary(trigger="checkpoint")
        behavior.node = SimpleNamespace(
            config=SimpleNamespace(checkpoint_interval=5))
        active = [behavior._equivocation_active(SimpleNamespace(view=0, sequence=s))
                  for s in range(10)]
        # Boundaries close at sequences 4 and 9; the last two slots of
        # each interval (3, 4 and 8, 9) are inside the window.
        assert active == [False, False, False, True, True,
                          False, False, False, True, True]

    def test_checkpoint_equivocator_without_interval_is_always_active(self):
        behavior = EquivocatingPrimary(trigger="checkpoint")
        behavior.node = SimpleNamespace(
            config=SimpleNamespace(checkpoint_interval=0))
        assert behavior._equivocation_active(SimpleNamespace(view=0, sequence=1))


# --------------------------------------------------------------------------
# Engagement: the adaptive attacks really fire inside their cells.
# --------------------------------------------------------------------------

class TestAdaptiveEngagement:
    def test_primary_targeter_retargets_across_view_changes(self):
        # 40 batches: long enough that the second attack window (opened
        # only after the targeter's replica observes the first view
        # change) fires before the clients drain.
        cluster, auditor = run_cell("poe-mac", "adaptive-primary",
                                    total_batches=40)
        behavior = cluster.network._nodes[replica_id(2)].behavior
        assert completed(cluster) == 40
        assert auditor.report().ok
        # The campaign attacked two *distinct* primaries: view 0's, then —
        # after observing the view change through its own replica — the
        # newly elected one.  A static schedule can only ever name one.
        assert len(behavior.attacked) == 2
        assert behavior.attacked[0] == replica_id(0)
        assert len(set(behavior.attacked)) == 2
        assert any(replica.view > 0 for replica in cluster.replicas)

    def test_checkpoint_equivocator_forks_boundary_slots(self, monkeypatch):
        forked = []
        original = EquivocatingPrimary._equivocate

        def recording(self, message):
            forked.append(getattr(message, "sequence",
                                  getattr(message, "round_number", None)))
            return original(self, message)

        monkeypatch.setattr(EquivocatingPrimary, "_equivocate", recording)
        cluster, auditor = run_cell("pbft", "checkpoint-equivocate")
        assert completed(cluster) == 20
        assert auditor.report().ok
        assert forked, "the equivocator must actually fork proposals"
        interval = cluster.replicas[0].config.checkpoint_interval
        # Every forked slot sits in the two-slot window before a boundary.
        assert all(interval - 1 - (s % interval) < 2 for s in forked)

    @pytest.mark.parametrize("protocol", [protocol for protocol in MATRIX_PROTOCOLS
                                          if protocol != "hotstuff"])
    def test_timeout_staller_rides_the_retry_delay_its_replica_armed(
            self, protocol, monkeypatch):
        """Each stalled VIEW-CHANGE is held back by the retry delay its
        replica armed with it, less ``LEAD_MS``; every other fan-out passes
        untouched, and each view is stalled once, within the budget."""
        armed = {}
        set_timer = PrimaryBackupReplica.set_timer

        def arming(self, name, delay_ms, payload=None):
            if name == PrimaryBackupReplica.VIEW_CHANGE_TIMER:
                armed[self.node_id] = delay_ms
            set_timer(self, name, delay_ms, payload)

        transform = TimeoutStaller.transform
        stalls = []

        def watched(self, deliveries, now_ms):
            out = transform(self, deliveries, now_ms)
            if out is not deliveries:
                message = deliveries[0].message
                assert isinstance(message, ViewChangeRequest)
                assert ([(d.receiver, d.message) for d in out]
                        == [(d.receiver, d.message) for d in deliveries])
                stalls.append((message.view, armed[self.node_id],
                               {after.delay_ms - before.delay_ms
                                for before, after in zip(deliveries, out)}))
            return out

        monkeypatch.setattr(PrimaryBackupReplica, "set_timer", arming)
        monkeypatch.setattr(TimeoutStaller, "transform", watched)
        cluster, auditor = run_cell(protocol, "timeout-stall")
        assert completed(cluster) == 20
        assert auditor.report().ok
        assert any(replica.view > 0 for replica in cluster.replicas
                   if not replica.crashed)
        assert 1 <= len(stalls) <= TimeoutStaller.MAX_STALLS
        assert len({view for view, _, _ in stalls}) == len(stalls)
        for _, retry_ms, held_ms in stalls:
            assert held_ms == {retry_ms - TimeoutStaller.LEAD_MS}

    @staticmethod
    def _run_two_primaries_down(protocol, num_replicas, staller, monkeypatch):
        """The first two primaries crash at 2 ms and a backup runs the
        staller, so the view change to view 1 fails and the one to view 2
        retries on a doubled delay.  Returns ``(cluster, auditor,
        behaviour, fan-outs)``: per VIEW-CHANGE fan-out the staller saw,
        its view, how long it was held, and the replica's ``vc_retry_ms``
        and ``_vc_failed_attempts`` then."""
        transform = TimeoutStaller.transform
        fanouts = []

        def watched(self, deliveries, now_ms):
            out = transform(self, deliveries, now_ms)
            if deliveries and isinstance(deliveries[0].message, ViewChangeRequest):
                held_ms = {after.delay_ms - before.delay_ms
                           for before, after in zip(deliveries, out)}
                fanouts.append((deliveries[0].message.view, held_ms,
                                self.node.vc_retry_ms, self.node._vc_failed_attempts))
            return out

        monkeypatch.setattr(TimeoutStaller, "transform", watched)
        faults = (FaultSchedule().add_crash(replica_id(0), at_ms=2.0)
                  .add_crash(replica_id(1), at_ms=2.0))
        config = dataclasses.replace(
            MATRIX_DEPLOYMENT, protocol=protocol, num_replicas=num_replicas,
            faults=faults, byzantine=(ByzantineSpec("timeout-stall", staller),))
        cluster = Cluster(config)
        auditor = SafetyAuditor.attach(cluster)
        cluster.start()
        cluster.run_until_done(max_ms=60_000.0)
        behavior = cluster.network._nodes[replica_id(staller)].behavior
        return cluster, auditor, behavior, fanouts

    @pytest.mark.parametrize("protocol", [protocol for protocol in MATRIX_PROTOCOLS
                                          if protocol != "hotstuff"])
    def test_timeout_staller_rides_the_doubled_retry_delay(self, protocol,
                                                          monkeypatch):
        """n = 10 (f = 3) with two crashed primaries and the staller: both
        view changes are stalled, the second on the 400 ms delay its
        replica armed after one failed attempt, and the cell stays live
        and safe."""
        cluster, auditor, behavior, fanouts = self._run_two_primaries_down(
            protocol, 10, 3, monkeypatch)
        assert completed(cluster) == 20
        assert auditor.report().ok
        assert behavior._stalled_views == {0, 1}
        retry_ms = 2 * MATRIX_DEPLOYMENT.request_timeout_ms
        lead_ms = TimeoutStaller.LEAD_MS
        assert fanouts == [(0, {retry_ms - lead_ms}, retry_ms, 0),
                           (1, {2 * retry_ms - lead_ms}, 2 * retry_ms, 1)]

    def test_timeout_staller_turns_honest_past_its_budget(self, monkeypatch):
        """At n = 7 (f = 2) the staller is a third fault on top of two
        crashed primaries, outside the envelope, so only safety is owed:
        it stalls views 0 and 1, then its budget of two is spent and its
        view-2 and view-3 requests leave undelayed."""
        cluster, auditor, behavior, fanouts = self._run_two_primaries_down(
            "pbft", 7, 2, monkeypatch)
        assert auditor.report().ok
        assert behavior._stalled_views == {0, 1}
        assert len(behavior._stalled_views) == TimeoutStaller.MAX_STALLS
        assert [(view, held_ms != {0.0}) for view, held_ms, _, _ in fanouts] == [
            (0, True), (1, True), (2, False), (3, False)]


# --------------------------------------------------------------------------
# Churn and topology.
# --------------------------------------------------------------------------

class TestChurnAndTopology:
    def test_churned_replicas_rejoin_and_catch_up(self):
        cluster, auditor = run_cell("pbft", "churn")
        assert completed(cluster) == 20
        assert auditor.report().ok
        # Both churned replicas are back in the membership and caught up:
        # the deposed primary rejoined behind the checkpoint horizon and
        # recovered through state transfer + deferred replay.
        for index in (0, 3):
            replica = cluster.network.node(replica_id(index))
            assert not replica.crashed
            assert replica.last_executed_sequence >= 0
        heights = sorted(r.last_executed_sequence for r in cluster.replicas)
        interval = cluster.replicas[0].config.checkpoint_interval
        assert heights[-1] - heights[0] <= 2 * interval

    def test_topology_intra_region_is_cheap(self):
        topology = geo_topology(MATRIX_DEPLOYMENT)
        # replicas 0 and 3 share us-east (round-robin over three regions).
        assert topology.latency_ms("replica:0", "replica:3", 0.0) == 0.3

    def test_topology_links_are_directional_and_asymmetric(self):
        topology = geo_topology(MATRIX_DEPLOYMENT)
        # us-east -> eu-west is 7ms while the reverse is 8ms.
        assert topology.latency_ms("replica:0", "replica:1", 0.0) == 7.0
        assert topology.latency_ms("replica:1", "replica:0", 0.0) == 8.0

    def test_topology_missing_direction_falls_back_to_reverse(self):
        topology = geo_topology(MATRIX_DEPLOYMENT)
        # Only us-east -> ap-south is configured; the reverse reuses it.
        assert topology.latency_ms("replica:2", "replica:0", 0.0) == 11.0

    def test_topology_unknown_nodes_use_the_default_region(self):
        topology = geo_topology(MATRIX_DEPLOYMENT)
        # Clients are unmapped, hence us-east: reaching eu-west costs the
        # configured 7ms, and another default-region node is intra.
        assert topology.latency_ms("client:0", "replica:1", 0.0) == 7.0
        assert topology.latency_ms("client:0", "replica:0", 0.0) == 0.3

    def test_topology_unconfigured_pair_uses_default_inter(self):
        topology = LatencyTopology(
            regions={"a": "r1", "b": "r2"}, default_inter_ms=42.0)
        assert topology.latency_ms("a", "b", 0.0) == 42.0

    def test_drift_phases_scale_latencies_deterministically(self):
        topology = geo_topology(MATRIX_DEPLOYMENT)
        base = topology.latency_ms("replica:0", "replica:1", 0.0)
        assert topology.latency_ms("replica:0", "replica:1", 50.0) == base * 2.0
        # Phase three eases the global scale but triples one specific
        # directional link (us-east -> ap-south).
        assert topology.latency_ms("replica:0", "replica:1", 150.0) == base * 1.3
        assert topology.latency_ms("replica:0", "replica:2", 150.0) \
            == pytest.approx(11.0 * 1.3 * 3.0)
        assert topology.latency_ms("replica:2", "replica:0", 150.0) \
            == pytest.approx(11.0 * 1.3)
        # The final phase heals everything.
        assert topology.latency_ms("replica:0", "replica:1", 300.0) == base

    def test_drift_schedule_is_sorted_on_construction(self):
        topology = LatencyTopology(
            regions={"a": "r1", "b": "r2"}, default_inter_ms=10.0,
            drift=(DriftPhase(at_ms=100.0, scale=3.0),
                   DriftPhase(at_ms=0.0, scale=1.0)))
        assert [phase.at_ms for phase in topology.drift] == [0.0, 100.0]
        assert topology.latency_ms("a", "b", 150.0) == 30.0

    def test_conditions_route_propagation_through_the_topology(self):
        conditions = NetworkConditions(
            latency_ms=0.5, jitter_ms=0.0, bandwidth_mbps=None,
            topology=geo_topology(MATRIX_DEPLOYMENT), seed=1)
        early = conditions.propagation_ms("replica:0", "replica:1", 0.0, random.random)
        drifted = conditions.propagation_ms("replica:0", "replica:1", 50.0, random.random)
        assert early == 7.0
        assert drifted == 14.0


# --------------------------------------------------------------------------
# Every new cell: live and safe across seeds and at n = 7.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
@pytest.mark.parametrize("scenario", NEW_SCENARIOS)
def test_new_cells_live_and_safe_across_seeds(protocol, scenario):
    from repro.fabric.scenarios import run_scenario

    for seed in (3, 7, 42, 99):
        outcome = run_scenario(protocol, scenario,
                               dataclasses.replace(MATRIX_DEPLOYMENT, seed=seed))
        assert outcome.live and outcome.safe, (protocol, scenario, seed)
    outcome = run_scenario(protocol, scenario,
                           dataclasses.replace(MATRIX_DEPLOYMENT, num_replicas=7))
    assert outcome.live and outcome.safe, (protocol, scenario, "n=7")


# --------------------------------------------------------------------------
# The anchor = -1 forged-history corner.
# --------------------------------------------------------------------------

class TestForgedHistoryBeforeFirstCheckpoint:
    @pytest.mark.parametrize("protocol", ["poe-mac", "poe-ts", "pbft",
                                          "sbft", "hotstuff"])
    def test_early_crash_forged_vc_is_live_and_safe(self, protocol):
        cluster, auditor = run_early_crash_forged_vc(protocol)
        assert completed(cluster) == 20
        assert auditor.report().ok

    def test_pbft_runs_a_real_view_change_with_no_anchor(self):
        cluster, auditor = run_early_crash_forged_vc("pbft")
        assert completed(cluster) == 20
        assert auditor.report().ok
        survivors = [r for r in cluster.replicas if not r.crashed]
        assert any(replica.view >= 1 for replica in survivors)

    def test_zyzzyva_stalls_safely_beyond_its_fault_budget(self):
        # Two nominal faults (crashed primary + Byzantine forger) exceed
        # f = 1, so Zyzzyva owes no liveness here: replica 3 never
        # executed the speculative slots (it was dark while they ran), the
        # client can collect only two of the 2f + 1 local-commit acks its
        # certificate needs, and no checkpoint ever stabilises to open a
        # state-transfer path.  Safety must still hold — which is exactly
        # the speculation/recovery trade-off the paper's Figure 1 pins on
        # Zyzzyva — and the documented justification lives in
        # SCENARIOS.md (the matrix keeps the later-crash variant, where
        # all six protocols recover).
        cluster, auditor = run_early_crash_forged_vc("zyzzyva")
        assert completed(cluster) < 20
        assert auditor.report().ok

    def test_revert_demo_uncontested_tail_admits_the_forgery(self, monkeypatch):
        # Revert: restore the selector that let a lone forged history tie
        # a lone honest witness above the anchor and win on the digest
        # tiebreak.  With no stable checkpoint the anchor is -1, so the
        # forged sub-zero history is adopted wholesale and honest replicas
        # execute fabricated batches — the auditor must catch it.
        monkeypatch.setattr(pbft_module, "longest_consecutive_prefix",
                            _old_prefix_selector)
        monkeypatch.setattr(sbft_module, "longest_consecutive_prefix",
                            _old_prefix_selector)
        cluster, auditor = run_early_crash_forged_vc("pbft")
        report = auditor.report()
        assert not report.ok
        assert any(v.kind == "divergent-prefix" for v in report.violations)


# --------------------------------------------------------------------------
# Revert-demos: each closure is load-bearing for its cell.
# --------------------------------------------------------------------------

class TestRevertDemos:
    def test_revert_demo_blind_settle_loses_certified_blocks(self, monkeypatch):
        # Revert: the old HotStuff settle path queried the membership for
        # a missing QC only when it also missed the proposal.  Holding the
        # proposal proves nothing — the signed QC may exist only in the
        # next leader's local state when its pacemaker outran vote
        # aggregation — so under the adaptive primary attack a replica
        # settles past a certified block and forks the chain.
        original = HotStuffReplica._request_missing_proposal

        def only_when_proposal_missing(self, round_number, block_digest):
            state = self._rounds.get(round_number)
            if state is not None and state.proposal is not None:
                return
            original(self, round_number, block_digest)

        monkeypatch.setattr(HotStuffReplica, "_request_missing_proposal",
                            only_when_proposal_missing)
        broken = False
        for seed in (3, 11):
            cluster, auditor = run_cell("hotstuff", "adaptive-primary",
                                        seed=seed)
            report = auditor.report()
            if not report.ok or completed(cluster) < 20:
                broken = True
                break
        assert broken

    def test_staller_measurably_delays_recovery(self):
        # The staller never needed a new closure — its votes are
        # well-formed and merely late, and the existing retry/backoff
        # machinery absorbs them — so the demonstration here is that the
        # attack has *teeth*: against the identical crash schedule,
        # recovery with the staller finishes a large fraction of a backoff
        # window later than without it.  (No revert-demo exists for this
        # behaviour by construction: reverting the retry machinery does
        # not break the cell, because the stalled vote lands ``LEAD_MS``
        # before the deadline by design.)
        cluster, auditor = run_cell("sbft", "timeout-stall")
        assert completed(cluster) == 20
        assert auditor.report().ok
        stalled_done = max(r.completed_at_ms for r in cluster.completions())

        config = ClusterConfig(
            protocol="sbft", num_replicas=4, batch_size=10, num_clients=1,
            client_outstanding=4, total_batches=20, request_timeout_ms=100.0,
            checkpoint_interval=5,
            faults=FaultSchedule.primary_crash(replica_id(0), at_ms=2.0),
            seed=11,
        )
        honest = Cluster(config)
        SafetyAuditor.attach(honest)
        honest.start()
        honest.run_until_done(max_ms=60_000.0)
        honest_done = max(r.completed_at_ms for r in honest.completions())
        assert stalled_done > honest_done + 100.0

    def test_revert_demo_without_readvertising_the_dark_replica_wedges(
            self, monkeypatch):
        # Revert: drop the checkpoint re-advertisement on view-change
        # completion.  The replica partitioned through the checkpoint
        # boundary can never validate a state transfer and the cluster
        # wedges below quorum once the primary crashes.
        monkeypatch.setattr(BatchingReplica, "readvertise_stable_checkpoint",
                            lambda self: None)
        cluster, auditor = run_cell("zyzzyva", "forge-history-vc")
        assert completed(cluster) < 20
        assert auditor.report().ok

    def test_revert_demo_rearmed_timers_wedge_the_lagging_replica(
            self, monkeypatch):
        # Revert: let retransmissions of already-executed batches re-arm
        # the progress timer.  The healed replica keeps suspecting a
        # primary that long since served those batches, escalates view
        # changes nobody joins, and drifts its view out of the quorum.
        def rearm_always(self, batch_id, now_ms):
            if batch_id in self._progress_timers or batch_id in self._replied:
                return
            self._progress_timers.add(batch_id)
            self.set_timer(f"progress:{batch_id}",
                           self.config.request_timeout_ms, payload=batch_id)

        monkeypatch.setattr(BatchingReplica, "start_progress_timer",
                            rearm_always)
        cluster, auditor = run_cell("zyzzyva", "forge-history-vc")
        assert completed(cluster) < 20
        assert auditor.report().ok

    def test_revert_demo_transfer_without_batch_ids_breaks_sbft(
            self, monkeypatch):
        # Revert: strip the executed-batch-id journal from state-transfer
        # responses.  The catching-up replica installs the state but not
        # the dedup horizon, so retransmitted batches it "missed" are
        # re-proposed and re-executed behind the transferred prefix.
        #
        # The cell makes clients retransmit for a legitimate reason: the
        # executor of view 0 — replica 1, also the next primary — is
        # partitioned away, so no execute-ack forms and every batch the
        # other three execute is retransmitted.  The partition heals,
        # replica 1 catches up through a state transfer, and the primary
        # crashes; as primary of view 1 it is then handed retransmissions
        # of batches the transferred prefix already consumed.
        def run(seed):
            rest = [replica_id(i) for i in (0, 2, 3)]
            faults = (FaultSchedule()
                      .add_partition(rest, [replica_id(1)], at_ms=0.0, until_ms=150.0)
                      .add_crash(replica_id(0), at_ms=160.0))
            cluster = Cluster(ClusterConfig(
                protocol="sbft", num_replicas=4, batch_size=10, num_clients=1,
                client_outstanding=4, total_batches=20, request_timeout_ms=100.0,
                checkpoint_interval=5, faults=faults, seed=seed))
            auditor = SafetyAuditor.attach(cluster)
            cluster.start()
            cluster.run_until_done(max_ms=60_000.0)
            return cluster, auditor.report()

        seeds = (3, 11, 42)
        for seed in seeds:
            cluster, report = run(seed)
            assert report.ok and completed(cluster) == 20
        original = BatchingReplica.handle_state_transfer_response

        def stripped(self, sender, message, now_ms):
            bare = dataclasses.replace(message, executed_batch_ids=())
            return original(self, sender, bare, now_ms)

        monkeypatch.setattr(BatchingReplica, "handle_state_transfer_response",
                            stripped)
        for seed in seeds:
            _, report = run(seed)
            assert "duplicate-execution" in {v.kind for v in report.violations}

    def test_revert_demo_checkpoint_votes_must_match_digests(self):
        # Unit-level revert for the boundary equivocator: the tracker
        # counts votes per (sequence, digest) pair, so a fork split across
        # the boundary can never be laundered into a stable checkpoint.
        # A lax tracker counting votes per sequence alone — the revert —
        # stabilises the forked boundary from the same vote stream.
        tracker = CheckpointTracker(quorum=3)
        tracker.record_vote(4, b"digest-a", "replica:0")
        tracker.record_vote(4, b"digest-a", "replica:1")
        tracker.record_vote(4, b"digest-b", "replica:2")
        assert tracker.stable_sequence == -1

        class LaxTracker(CheckpointTracker):
            def record_vote(self, sequence, state_digest, replica_id):
                return super().record_vote(sequence, b"", replica_id)

        lax = LaxTracker(quorum=3)
        lax.record_vote(4, b"digest-a", "replica:0")
        lax.record_vote(4, b"digest-a", "replica:1")
        lax.record_vote(4, b"digest-b", "replica:2")
        assert lax.stable_sequence == 4

"""Tests for the evaluation fabric: metrics, registry, cluster, experiments."""

from dataclasses import replace

import pytest

from repro.crypto.cost import CryptoCostModel
from repro.fabric.cluster import Cluster, ClusterConfig, client_id, replica_id
from repro.fabric.experiments import (
    FIGURE_DEPLOYMENT,
    backup_crash,
    run_experiment,
    run_protocol_comparison,
    sequential,
)
from repro.fabric.metrics import (
    MetricsWindow,
    RunResult,
    ThroughputTimeline,
    percentile,
    summarize,
)
from repro.fabric.registry import PROTOCOLS, get_spec, protocol_names
from repro.fabric.scenarios import SCENARIO_DEFS
from repro.fabric.timeline import TIMELINE_DEPLOYMENT, run_view_change_timeline
from repro.fabric.upper_bound import run_upper_bound
from repro.workload.clients import CompletionRecord


def record(batch_id, completed_at, submitted_at=0.0, num_txns=10):
    return CompletionRecord(batch_id=batch_id, num_txns=num_txns,
                            submitted_at_ms=submitted_at,
                            completed_at_ms=completed_at, view=0, sequence=0)


class TestMetrics:
    def test_throughput_is_txns_over_window(self):
        records = [record(f"b{i}", completed_at=100.0 + i * 100) for i in range(10)]
        window = MetricsWindow(start_ms=0.0, end_ms=1000.0)
        result = summarize("PoE", 4, records, window=window)
        assert result.completed_txns == 100
        assert result.throughput_txn_per_s == pytest.approx(100.0)

    def test_warmup_records_excluded(self):
        records = [record("warm", completed_at=50.0),
                   record("measured", completed_at=500.0)]
        window = MetricsWindow(start_ms=100.0, end_ms=1000.0)
        result = summarize("PoE", 4, records, window=window)
        assert result.completed_batches == 1

    def test_latency_statistics(self):
        records = [record(f"b{i}", completed_at=10.0 * (i + 1), submitted_at=0.0)
                   for i in range(10)]
        result = summarize("PoE", 4, records)
        assert result.avg_latency_ms == pytest.approx(55.0)
        assert result.p50_latency_ms == pytest.approx(50.0)
        assert result.p99_latency_ms == pytest.approx(100.0)

    def test_empty_run_is_all_zero(self):
        result = summarize("PoE", 4, [])
        assert result.throughput_txn_per_s == 0.0
        assert result.completed_txns == 0

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile([], 0.5) == 0.0

    def test_row_flattens_metadata(self):
        result = RunResult(protocol="PoE", n=4, throughput_txn_per_s=1.0,
                           avg_latency_ms=2.0, p50_latency_ms=2.0,
                           p99_latency_ms=3.0, completed_txns=10,
                           completed_batches=1, duration_ms=100.0,
                           metadata={"batch_size": 100})
        row = result.row()
        assert row["protocol"] == "PoE"
        assert row["batch_size"] == 100

    def test_timeline_buckets_transactions_per_second(self):
        records = [record("a", completed_at=500.0),
                   record("b", completed_at=700.0),
                   record("c", completed_at=1500.0)]
        timeline = ThroughputTimeline.from_completions(records, bucket_ms=1000.0,
                                                       end_ms=2000.0)
        assert len(timeline.buckets) == 2
        assert timeline.buckets[0] == pytest.approx(20.0)
        assert timeline.buckets[1] == pytest.approx(10.0)

    def test_timeline_series_shape(self):
        timeline = ThroughputTimeline.from_completions(
            [record("a", completed_at=100.0)], bucket_ms=500.0, end_ms=1000.0)
        series = timeline.series()
        assert series[0]["time_s"] == pytest.approx(0.5)
        assert "throughput_txn_per_s" in series[0]


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        for key in ["poe", "pbft", "zyzzyva", "sbft", "hotstuff"]:
            assert key in PROTOCOLS

    def test_protocol_names_order_matches_paper(self):
        assert protocol_names() == ["poe", "pbft", "sbft", "hotstuff", "zyzzyva"]

    def test_lookup_is_case_insensitive(self):
        assert get_spec("PoE").name == "PoE"

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            get_spec("raft")

    def test_protocol_info_matches_figure_1(self):
        """The static metadata regenerates the paper's Figure 1 rows."""
        assert get_spec("poe").info.phases == 3
        assert get_spec("pbft").info.messages == "O(n + 2n^2)"
        assert get_spec("zyzzyva").info.resilience == "0"
        assert get_spec("sbft").info.requirements == "Twin paths"
        assert get_spec("hotstuff").info.requirements == "Sequential Consensuses"


class TestCluster:
    def test_identifiers(self):
        assert replica_id(3) == "replica:3"
        assert client_id(0) == "client:0"

    def test_cluster_builds_requested_topology(self):
        config = ClusterConfig(protocol="poe", num_replicas=7, num_clients=2,
                               total_batches=1)
        cluster = Cluster(config)
        assert len(cluster.replicas) == 7
        assert len(cluster.pools) == 2
        assert cluster.node_config.f == 2

    def test_run_until_done_completes_all_pools(self):
        config = ClusterConfig(protocol="poe", num_replicas=4, batch_size=10,
                               total_batches=5, client_outstanding=2, seed=21)
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        assert all(pool.is_done() for pool in cluster.pools)
        result = cluster.result(warmup_fraction=0.0)
        assert result.completed_batches == 5
        assert result.completed_txns == 50

    def test_result_metadata_reports_configuration(self):
        config = ClusterConfig(protocol="pbft", num_replicas=4, batch_size=10,
                               total_batches=3, seed=22)
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        result = cluster.result(metadata={"note": "test"})
        assert result.protocol == "PBFT"
        assert result.metadata["batch_size"] == 10
        assert result.metadata["note"] == "test"


def figure_point(**changes):
    return replace(FIGURE_DEPLOYMENT, **changes)


class TestExperiments:
    def test_run_describes_its_point(self):
        result = run_experiment(backup_crash(figure_point(
            num_replicas=4, total_batches=5, zero_payload=True)))
        text = result.metadata["description"]
        assert "poe" in text and "zero payload" in text and "crashed" in text

    def test_single_backup_failure_crashes_exactly_one_backup(self):
        cluster = Cluster(backup_crash(
            figure_point(num_replicas=4, total_batches=5)))
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        crashed = [replica for replica in cluster.replicas if replica.crashed]
        assert len(crashed) == 1
        assert crashed[0].node_id == replica_id(3)
        assert all(pool.is_done() for pool in cluster.pools)

    def test_the_matrix_crashes_the_same_backup(self):
        assert SCENARIO_DEFS["backup-crash"].recipe is backup_crash

    def test_out_of_order_disabled_uses_closed_loop_clients(self):
        cluster = Cluster(sequential(figure_point(num_replicas=4, total_batches=5)))
        assert not cluster.node_config.out_of_order
        assert cluster.pools[0].target_outstanding == 1
        hotstuff = Cluster(sequential(figure_point(
            protocol="hotstuff", num_replicas=4, total_batches=5)))
        assert hotstuff.pools[0].target_outstanding == 4

    def test_cost_model_is_part_of_the_experiment_point(self):
        default = Cluster(figure_point(num_replicas=4, total_batches=5))
        assert default.config.cost_model == CryptoCostModel.cmac()
        free = Cluster(figure_point(num_replicas=4, total_batches=5,
                                    cost_model=CryptoCostModel.none()))
        assert free.config.cost_model.scale == 0.0

    def test_run_experiment_produces_result(self):
        result = run_experiment(figure_point(num_replicas=4, total_batches=20,
                                             batch_size=20))
        assert result.protocol == "PoE"
        assert result.completed_txns > 0
        assert result.throughput_txn_per_s > 0

    def test_one_preset_runs_alike_twice(self):
        """Each run draws its jitter from its own network's stream, seeded
        from the preset's conditions, so a second run repeats the first."""
        config = figure_point(num_replicas=4, total_batches=20)
        first, second = run_experiment(config), run_experiment(config)
        assert first.avg_latency_ms == second.avg_latency_ms
        assert first.metadata["messages_sent"] == second.metadata["messages_sent"]

    def test_result_says_whether_the_batch_budget_was_met(self):
        """Regression: a run cut short by ``max_ms`` read like a finished one."""
        config = figure_point(num_replicas=4, total_batches=50)
        finished = run_experiment(config)
        assert finished.metadata["budget_met"] is True
        assert finished.metadata["completed_batches"] == 50
        before_first_completion = run_experiment(config, max_ms=1.0)
        assert before_first_completion.metadata["budget_met"] is False
        assert before_first_completion.metadata["completed_batches"] == 0
        midway = run_experiment(config, max_ms=10.0)
        assert midway.throughput_txn_per_s > 0
        assert midway.metadata["budget_met"] is False
        assert 0 < midway.metadata["completed_batches"] < 50

    def test_protocol_comparison_shapes_under_failure(self):
        """The paper's headline: with one crashed backup PoE beats PBFT, and
        Zyzzyva collapses."""
        base = backup_crash(figure_point(num_replicas=4, total_batches=25,
                                         batch_size=50))
        results = run_protocol_comparison(base, protocols=["poe", "pbft", "zyzzyva"])
        poe = results["poe"].throughput_txn_per_s
        pbft = results["pbft"].throughput_txn_per_s
        zyzzyva = results["zyzzyva"].throughput_txn_per_s
        assert poe > pbft
        assert pbft > zyzzyva * 2

    def test_zero_payload_shrinks_proposals(self):
        cluster = Cluster(figure_point(num_replicas=4, total_batches=5,
                                       zero_payload=True))
        assert cluster.node_config.zero_payload
        assert cluster.node_config.proposal_size_bytes(100) == 250


class TestUpperBound:
    def test_no_execution_is_at_least_as_fast_as_execution(self):
        no_exec = run_upper_bound(execute=False, num_batches=100, batch_size=50)
        with_exec = run_upper_bound(execute=True, num_batches=100, batch_size=50)
        assert no_exec.throughput_txn_per_s >= with_exec.throughput_txn_per_s
        assert with_exec.throughput_txn_per_s > 0

    def test_upper_bound_exceeds_consensus_throughput(self):
        """Figure 7's point: the fabric without consensus is faster than any
        consensus protocol running on it."""
        bound = run_upper_bound(execute=True, num_batches=100, batch_size=50)
        poe = run_experiment(figure_point(num_replicas=4, total_batches=25,
                                          batch_size=50))
        assert bound.throughput_txn_per_s > poe.throughput_txn_per_s


class TestViewChangeTimeline:
    def test_timeline_shows_dip_and_recovery(self):
        timeline = run_view_change_timeline(
            replace(TIMELINE_DEPLOYMENT, num_replicas=4, batch_size=20,
                    request_timeout_ms=200.0, client_outstanding=4),
            crash_at_ms=500.0, duration_ms=2500.0, bucket_ms=250.0)
        buckets = timeline.timeline.buckets
        assert timeline.view_changes_completed >= 1
        assert timeline.new_view >= 1
        before = buckets[0]
        during = min(buckets[2:6])
        after = buckets[-1]
        assert before > 0
        assert during < before * 0.5
        assert after > before * 0.5

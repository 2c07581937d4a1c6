"""Parallel sharded driver: fingerprint equality and failure behaviour.

The parallel driver forks one worker per shard and exchanges boundary
events at conservative window barriers; the sequential ``ShardedCluster``
advances the *same* runtimes through the *same* window loop in-process.
These tests pin the acceptance criterion — the parallel fingerprint is
byte-identical to the sequential one for the same config — across the
canonical cross-shard scenarios and seeds, and that a crashing or hung
worker surfaces a clean, shard-naming error instead of hanging the
barrier.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.bench.perf import parse_sharded_label
from repro.fabric.audit import ShardedSafetyAuditor
from repro.fabric import parallel
from repro.fabric.parallel import WorkerCrash, run_parallel
from repro.fabric.scenarios import ScenarioParams, run_scenario
from repro.fabric.sharding import (
    ShardRuntime,
    ShardedClusterConfig,
    coordinator_id,
    sharded_fingerprint,
)
from repro.net.faults import FaultSchedule

SEEDS = (3, 7, 42)


def _config(scenario: str, seed: int, num_shards: int = 2) -> ShardedClusterConfig:
    """The config shapes behind the canonical cross-shard scenarios,
    at test-sized batch budgets."""
    hub_faults = None
    coordinator_behavior = None
    if scenario == "xshard-crash-2pc":
        hub_faults = FaultSchedule().add_crash(coordinator_id(), at_ms=3.0)
    elif scenario == "xshard-coordinator-equivocate":
        coordinator_behavior = "equivocate-coordinator"
    else:
        assert scenario == "xshard-no-fault"
    return ShardedClusterConfig(
        num_shards=num_shards, protocols="poe-mac", num_replicas=4,
        batch_size=10, total_batches=12, cross_shard_fraction=0.3,
        request_timeout_ms=100.0, hub_faults=hub_faults,
        coordinator_behavior=coordinator_behavior, seed=seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", [
    "xshard-no-fault", "xshard-crash-2pc", "xshard-coordinator-equivocate",
])
def test_parallel_fingerprint_matches_sequential(scenario, seed):
    config = _config(scenario, seed)
    sequential = sharded_fingerprint(config)
    parallel = sharded_fingerprint(config, driver="parallel")
    assert sequential == parallel


def test_parallel_fingerprint_four_shards():
    config = _config("xshard-no-fault", seed=3, num_shards=4)
    assert (sharded_fingerprint(config)
            == sharded_fingerprint(config, driver="parallel"))


def test_unknown_driver_rejected():
    with pytest.raises(ValueError, match="driver"):
        sharded_fingerprint(_config("xshard-no-fault", 3), driver="threads")


def test_parallel_run_audits_clean_from_artifacts():
    # The workers record wire observations; the parent-side auditor built
    # over the shipped artifacts must reach the live auditor's verdict.
    run = run_parallel(_config("xshard-coordinator-equivocate", seed=7))
    report = ShardedSafetyAuditor.from_recorded(run).report()
    assert report.ok, report.summary()
    assert report.completions_checked > 0


def test_parallel_scenario_outcome_matches_sequential():
    params = ScenarioParams(total_batches=10)
    sequential = run_scenario("poe-mac", "xshard-crash-2pc", params)
    parallel = run_scenario("poe-mac", "xshard-crash-2pc", params,
                            driver="parallel")
    assert parallel.live == sequential.live
    assert parallel.safe == sequential.safe
    assert parallel.completed_batches == sequential.completed_batches
    assert parallel.view_changes == sequential.view_changes


def test_single_group_scenarios_are_sequential_only():
    with pytest.raises(ValueError, match="sequential-only"):
        run_scenario("poe", "steady-state", driver="parallel")


def test_worker_exception_surfaces_clean_error(monkeypatch):
    # Fork inherits the patched class, so every worker's first window
    # raises; the parent must fail fast with the shard named — not hang
    # waiting on a barrier that will never complete.
    def boom(self, edge_ms, inbox):
        raise RuntimeError("injected worker fault")

    monkeypatch.setattr(ShardRuntime, "window", boom)
    with pytest.raises(WorkerCrash, match=r"shard \d+ worker failed"):
        run_parallel(_config("xshard-no-fault", seed=3))


def test_worker_hard_death_surfaces_clean_error(monkeypatch):
    # A worker that dies without reporting (segfault stand-in) must
    # surface as a WorkerCrash via the closed pipe, again without hanging.
    def die(self, edge_ms, inbox):
        os._exit(17)

    monkeypatch.setattr(ShardRuntime, "window", die)
    with pytest.raises(WorkerCrash, match=r"shard \d+ worker died"):
        run_parallel(_config("xshard-no-fault", seed=3))


def test_hung_worker_fails_the_barrier_deadline(monkeypatch):
    # Shard 1's worker stops itself at its first window and never answers;
    # the parent must give up at the barrier deadline with the shard named
    # and leave no child behind, the stopped one included.
    window = ShardRuntime.window

    def stall(self, edge_ms, inbox):
        if self.shard == 1:
            os.kill(os.getpid(), signal.SIGSTOP)
        return window(self, edge_ms, inbox)

    monkeypatch.setattr(ShardRuntime, "window", stall)
    monkeypatch.setattr(parallel, "BARRIER_TIMEOUT_S", 1.0)
    started = time.monotonic()
    with pytest.raises(WorkerCrash, match=r"shard 1 worker missed the 1 s barrier"):
        run_parallel(_config("xshard-no-fault", seed=3))
    assert time.monotonic() - started < 5.0
    assert multiprocessing.active_children() == []


def test_parse_sharded_label_roundtrip():
    assert parse_sharded_label("poe-2sh-x20") == ("poe", 2, 0.2)
    assert parse_sharded_label("poe-mac-8sh-x0") == ("poe-mac", 8, 0.0)
    assert parse_sharded_label("poe-mac") is None
    assert parse_sharded_label("pbft") is None

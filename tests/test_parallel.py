"""Forked fingerprint check: fingerprint equality and failure behaviour.

``run_parallel`` forks one worker per shard and exchanges boundary events
at conservative window barriers; the in-process ``ShardedCluster``
advances the *same* runtimes through the *same* window loop.  These tests
pin that the fingerprint the workers' parts fold to is byte-identical to
``sharded_fingerprint`` for the same config, across the canonical
cross-shard scenarios and seeds, that a crashing or hung worker surfaces
a clean, shard-naming error instead of hanging the barrier, and that the
windows' lookahead never exceeds a boundary delay.
"""

import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import parallel
from repro.fabric.parallel import WorkerCrash, run_parallel
from repro.fabric.sharding import (
    ShardRuntime,
    ShardedCluster,
    ShardedClusterConfig,
    coordinator_id,
    sharded_fingerprint,
)
from repro.net.conditions import DriftPhase, LatencyTopology, NetworkConditions
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
    assert sharded_fingerprint(config) == run_parallel(config).fingerprint


def test_parallel_fingerprint_four_shards():
    config = _config("xshard-no-fault", seed=3, num_shards=4)
    assert sharded_fingerprint(config) == run_parallel(config).fingerprint


def test_a_forked_run_counts_what_the_in_process_run_counts():
    """The per-shard event counts and clocks are what a forked run's
    caller reads apart from the fingerprint; they must be the in-process
    run's, in shard order, with or without ``record_wire``."""
    config = _config("xshard-crash-2pc", seed=7)
    cluster = ShardedCluster(config)
    cluster.start()
    cluster.run_until_done()
    for record_wire in (True, False):
        run = run_parallel(config, record_wire=record_wire)
        assert run.shard_processed_events == cluster.shard_processed_events
        assert run.shard_clocks == cluster.shard_clocks
        assert all(events > 0 for events in run.shard_processed_events)


def test_a_worker_sends_back_plain_values():
    """What a worker sends at the finish barrier is its fingerprint parts:
    builtin values only, no replica, pool or coordinator object."""
    cluster = ShardedCluster(_config("xshard-crash-2pc", seed=3))
    cluster.start()
    cluster.run_until_done()

    def walk(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        else:
            assert type(value) in (str, int, float, bool, type(None)), value

    for runtime in cluster.runtimes:
        replicas, hub = runtime.fingerprint_parts()
        assert replicas and bool(hub) == (runtime.shard == 0)
        walk((replicas, hub))


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


_NODES = ("s0/replica:0", "s0/replica:1", "s1/replica:0", "s1/replica:1",
          "pool:0", "coord:0")
_REGIONS = ("eu", "us", "ap")
_LATENCY = st.floats(min_value=0.01, max_value=80.0)
_SCALE = st.floats(min_value=0.05, max_value=6.0)
_REGION_PAIR = st.tuples(st.sampled_from(_REGIONS), st.sampled_from(_REGIONS))


@st.composite
def _topologies(draw):
    return LatencyTopology(
        regions=draw(st.dictionaries(st.sampled_from(_NODES),
                                     st.sampled_from(_REGIONS))),
        intra_ms=draw(_LATENCY),
        link_ms=draw(st.dictionaries(_REGION_PAIR, _LATENCY, max_size=6)),
        default_inter_ms=draw(_LATENCY),
        default_region=draw(st.sampled_from(_REGIONS)),
        drift=tuple(draw(st.lists(st.builds(
            DriftPhase, at_ms=st.floats(min_value=0.0, max_value=1_000.0),
            scale=_SCALE,
            link_scale=st.dictionaries(_REGION_PAIR, _SCALE, max_size=4)),
            max_size=4))))


@settings(max_examples=200, deadline=None)
@given(_topologies(), st.lists(st.tuples(
    st.sampled_from(_NODES), st.sampled_from(_NODES),
    st.floats(min_value=0.0, max_value=2_000.0)), min_size=1, max_size=12))
def test_lookahead_never_exceeds_a_boundary_latency(topology, sends):
    """The windows are safe only if no boundary message outruns the
    lookahead: under any topology and drift schedule, every link at every
    time is at least ``min_propagation_ms()`` long."""
    conditions = NetworkConditions(topology=topology)
    lookahead = conditions.min_propagation_ms()
    assert lookahead > 0
    for sender, receiver, now_ms in sends:
        latency = conditions.boundary_latency_ms(sender, receiver, now_ms)
        # The two products round separately: allow one part in 10^12.
        assert lookahead <= latency * (1 + 1e-12), (sender, receiver, now_ms)

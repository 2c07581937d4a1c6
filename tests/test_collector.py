"""A deployment is acyclic; building, starting and driving it pause the
cyclic collector.

Reference counting frees everything a run drops as long as the run makes
no cycle, and then every pass of the cyclic collector during a drive walks
live objects and frees none.  So construction and ``start()`` of
``Cluster`` and ``ShardedCluster``, ``Cluster.run_until_done``,
``Cluster.run_for``, ``ShardedCluster.run_until_done`` and the parallel
worker's build and window loop run inside
:class:`~repro.fabric.cluster.CollectorPaused`, which tenures what the
region left alive on its way out, so no later young pass walks it either.
A deployment itself is acyclic too, but for pending events referencing
the network that scheduled them, which the root (``Cluster``,
``ShardedCluster``) empties when it is dropped: so a dropped deployment,
started or finished, is freed by reference counting, with no collector
pass.  The census below is what makes both sound: every fault-matrix cell,
at the matrix's own deployment, and every poebench shape at 1/20 budget is
driven with the collector saving what it finds, and ``gc.collect()`` right
after the drive, right after dropping the finished deployment, and right
after dropping a freshly started one must find nothing.  A failure names
the cell and the types of the objects a cycle held; a deployment that
starts making cycles must break them (or stop making them) rather than
turn the collector back on.
"""

from __future__ import annotations

import gc
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.fabric.audit import SafetyAuditor, ShardedSafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, CollectorPaused
from repro.fabric.scenarios import (
    MATRIX_PROTOCOLS,
    SCENARIO_DEFS,
    SHARDED_MATRIX_PROTOCOLS,
    SHARDED_SCENARIOS,
    scenario_cluster_config,
    sharded_cluster_config,
)
from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig
from repro.net.byzantine import ByzantineSpec
from repro.net.simulator import Simulator

POEBENCH = str(Path(__file__).resolve().parent.parent / "poebench")


@pytest.fixture()
def collector_on():
    """The collector enabled for the test, the caller's state restored."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _ycsb_cluster() -> Cluster:
    cluster = Cluster(ClusterConfig(
        protocol="poe-mac", num_replicas=4, batch_size=100, total_batches=20,
        use_ycsb_payload=True, execute_operations=True, seed=3))
    cluster.start()
    return cluster


def _sharded_cluster() -> ShardedCluster:
    run = ShardedCluster(ShardedClusterConfig(
        num_shards=2, num_replicas=4, batch_size=4, total_batches=6,
        cross_shard_fraction=0.5, seed=3))
    run.start()
    return run


DRIVES = {
    "run_until_done": lambda: _ycsb_cluster().run_until_done(max_ms=60_000.0),
    "run_for": lambda: _ycsb_cluster().run_for(200.0),
    "sharded run_until_done":
        lambda: _sharded_cluster().run_until_done(max_ms=60_000.0),
}


class TestThePauseRestoresTheCallersState:
    @pytest.mark.parametrize("drive", sorted(DRIVES))
    def test_an_enabled_collector_is_enabled_again(self, collector_on, drive):
        DRIVES[drive]()
        assert gc.isenabled()

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    def test_a_disabled_collector_stays_disabled(self, collector_on, drive):
        gc.disable()
        DRIVES[drive]()
        assert not gc.isenabled()

    def test_the_collector_is_off_inside_and_on_after(self, collector_on):
        with CollectorPaused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_drive_that_raises_restores_it(self, collector_on, monkeypatch):
        cluster = _ycsb_cluster()
        seen = []

        def failing_run(until_ms=None, max_events=None):
            seen.append(gc.isenabled())
            raise RuntimeError("handler bug")

        monkeypatch.setattr(cluster.network, "run", failing_run)
        for drive in (cluster.run_until_done, lambda: cluster.run_for(10.0)):
            with pytest.raises(RuntimeError, match="handler bug"):
                drive()
            assert gc.isenabled()
        assert seen == [False, False]

    def test_a_drive_makes_no_collector_pass(self, collector_on):
        """No pass starts while the event loop runs (unpaused, this drive
        makes six), nor as the drive enters or leaves: set-up and the
        pause both tenure what they leave, so the first allocation after
        either finds the young generation empty."""
        cluster = _ycsb_cluster()
        with _collector_passes() as passes:
            cluster.run_until_done(max_ms=60_000.0)
            [[] for _ in range(10)]  # the first allocations after the drive
        assert all(pool.is_done() for pool in cluster.pools)
        assert passes == []


@contextmanager
def _collector_passes():
    """The generation of every collector pass that starts inside."""
    passes = []

    def on_pass(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(on_pass)
    try:
        yield passes
    finally:
        gc.callbacks.remove(on_pass)


def _bad_byzantine_index() -> Cluster:
    return Cluster(ClusterConfig(protocol="pbft", num_replicas=4,
                                 byzantine=(ByzantineSpec("equivocate", 4),)))


def _sbft_shard() -> ShardedCluster:
    return ShardedCluster(ShardedClusterConfig(num_shards=2, protocols="sbft"))


CONSTRUCTIONS = {
    "Cluster": lambda: Cluster(ClusterConfig(
        protocol="poe-mac", num_replicas=32, total_batches=6)).start(),
    "ShardedCluster": lambda: ShardedCluster(ShardedClusterConfig(
        num_shards=2, num_replicas=16, total_batches=6, seed=3)).start(),
}

FAILING_CONSTRUCTIONS = {
    "byzantine index out of range": _bad_byzantine_index,
    "sbft shard": _sbft_shard,
}


class TestConstructionRunsPaused:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("build", sorted(CONSTRUCTIONS))
    def test_it_restores_the_callers_state(self, collector_on, build, enabled):
        if not enabled:
            gc.disable()
        CONSTRUCTIONS[build]()
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("build", sorted(FAILING_CONSTRUCTIONS))
    def test_a_constructor_that_raises_restores_it(self, collector_on, build,
                                                   enabled):
        if not enabled:
            gc.disable()
        with pytest.raises(ValueError):
            FAILING_CONSTRUCTIONS[build]()
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("build", sorted(CONSTRUCTIONS))
    def test_no_pass_starts_inside_construction_and_start(self, collector_on,
                                                          build):
        """An n = 32 deployment allocates well past the young generation's
        threshold; unpaused, its construction and start make passes."""
        with _collector_passes() as passes:
            CONSTRUCTIONS[build]()
            [[] for _ in range(10)]  # the first allocations after start()
        assert passes == []


class TestTenureHidesNothing:
    def test_nothing_stays_frozen_after_a_paused_region(self, collector_on):
        cluster = _ycsb_cluster()
        assert gc.get_freeze_count() == 0
        cluster.run_for(50.0)
        assert gc.get_freeze_count() == 0
        cluster.run_until_done(max_ms=60_000.0)
        assert gc.get_freeze_count() == 0
        _sharded_cluster().run_until_done(max_ms=60_000.0)
        assert gc.get_freeze_count() == 0

    def test_a_cycle_made_inside_a_drive_is_still_freed(self, collector_on,
                                                        monkeypatch):
        """Tenured is not exempt: the oldest generation, where tenure puts
        a cycle the drive left, is what a full collection examines."""
        class Node:
            pass

        cluster = _ycsb_cluster()
        run = cluster.network.run
        made = []

        def run_making_a_cycle(until_ms=None, max_events=None):
            if not made:
                node = Node()
                node.self = node
                made.append(weakref.ref(node))
            return run(until_ms=until_ms, max_events=max_events)

        monkeypatch.setattr(cluster.network, "run", run_making_a_cycle)
        cluster.run_until_done(max_ms=60_000.0)
        assert made[0]() is not None  # no pass ran since the drive
        gc.collect()
        assert made[0]() is None

    def test_a_callers_frozen_objects_stay_frozen(self, collector_on):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with CollectorPaused():
                pass
            assert gc.get_freeze_count() == frozen > 0
            assert gc.isenabled()
        finally:
            gc.unfreeze()


def test_a_callers_simulator_is_driven_as_a_private_one_and_emptied_on_drop():
    """The ownership rule of ``Cluster``'s docstring: while the caller
    holds the cluster, a simulator it handed in runs exactly as the
    cluster's own would; dropping the cluster empties that simulator's
    event queue, leaves its clock and event count, and frees the
    deployment with no collector pass."""
    config = ClusterConfig(protocol="poe-mac", num_replicas=4, batch_size=10,
                           total_batches=6, client_outstanding=3, seed=7)
    private = Cluster(config)
    simulator = Simulator()
    held = [Cluster(config, simulator=simulator)]
    for cluster in (private, held[0]):
        cluster.start()
        cluster.run_for(3.0)
    del cluster
    assert ((simulator.now, simulator.processed_events, simulator.pending_events)
            == (private.simulator.now, private.simulator.processed_events,
                private.simulator.pending_events))
    assert held[0].completions() == private.completions() != []
    now, events = simulator.now, simulator.processed_events
    assert simulator.pending_events > 0
    garbage = _cyclic_garbage(held.clear)
    assert simulator.pending_events == 0
    assert (simulator.now, simulator.processed_events) == (now, events)
    assert not garbage, dict(garbage.most_common())


# -- the census --------------------------------------------------------------

def _cyclic_garbage(drive) -> Counter:
    """The objects ``gc.collect()`` finds unreachable right after
    *drive()*, by type, with everything before the drive collected first."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        drive()
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)


def _census(name: str, make, max_ms: float) -> None:
    """The three readings: *make()* (built and started) driven, then
    dropped finished, and a second one dropped as soon as it started."""
    held = [make()]
    garbage = _cyclic_garbage(lambda: held[0].run_until_done(max_ms=max_ms))
    assert not garbage, (f"{name}: the drive left reference cycles of "
                         f"{dict(garbage.most_common())}")
    garbage = _cyclic_garbage(held.clear)
    assert not garbage, (f"{name}: the dropped finished deployment left "
                         f"reference cycles of {dict(garbage.most_common())}")
    garbage = _cyclic_garbage(make)
    assert not garbage, (f"{name}: the dropped started deployment left "
                         f"reference cycles of {dict(garbage.most_common())}")


def _matrix_cells():
    cells = [(protocol, scenario) for protocol in MATRIX_PROTOCOLS
             for scenario in SCENARIO_DEFS]
    cells += [(protocol, scenario) for protocol in SHARDED_MATRIX_PROTOCOLS
              for scenario in SHARDED_SCENARIOS]
    return cells


def test_the_census_covers_the_whole_matrix():
    assert len(_matrix_cells()) == 136


@pytest.mark.parametrize("protocol,scenario", _matrix_cells())
def test_a_matrix_cell_makes_no_cycle(protocol, scenario):
    """Each cell built and audited as ``run_scenario`` builds it."""
    def make():
        if scenario in SHARDED_SCENARIOS:
            run = ShardedCluster(sharded_cluster_config(
                protocol, SHARDED_SCENARIOS[scenario]))
            ShardedSafetyAuditor.attach(run)
        else:
            run = Cluster(scenario_cluster_config(protocol, scenario))
            SafetyAuditor.attach(run)
        run.start()
        return run

    _census(f"{protocol} x {scenario}", make, max_ms=60_000.0)


POEBENCH_SHAPES = ("mac_flood_n32", "ts_linear_n32", "ycsb_exec_n4",
                   "primary_crash_n16", "xshard_2sh_x20", "six_protocols_n16")


@pytest.mark.parametrize("workload", POEBENCH_SHAPES)
def test_a_poebench_shape_makes_no_cycle(workload):
    if POEBENCH not in sys.path:
        sys.path.insert(0, POEBENCH)
    from workloads import WORKLOADS, build

    assert set(WORKLOADS) == set(POEBENCH_SHAPES)
    for config in WORKLOADS[workload].configs(3, 0.05):
        _census(workload, lambda: build(config), max_ms=600_000.0)

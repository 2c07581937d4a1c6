"""A deployment is acyclic; drives pause the cyclic collector.

Reference counting frees everything a run drops as long as the run makes
no cycle, and then every pass of the cyclic collector during a drive walks
live objects and frees none.  So ``Cluster.run_until_done``,
``Cluster.run_for``, ``ShardedCluster.run_until_done`` and the parallel
worker's window loop run inside :class:`~repro.fabric.cluster.CollectorPaused`.
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
from collections import Counter
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
        makes six).  One may start as a drive enters or leaves, when the
        first allocation after set-up or after the pause finds the young
        generation full; that pass is not the drive's."""
        cluster = _ycsb_cluster()
        passes = []
        event_loop = Simulator.run.__code__

        def on_pass(phase, info):
            if phase == "start":
                frame = sys._getframe().f_back
                while frame is not None and frame.f_code is not event_loop:
                    frame = frame.f_back
                if frame is not None:
                    passes.append(info["generation"])

        gc.callbacks.append(on_pass)
        try:
            cluster.run_until_done(max_ms=60_000.0)
        finally:
            gc.callbacks.remove(on_pass)
        assert all(pool.is_done() for pool in cluster.pools)
        assert passes == []


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

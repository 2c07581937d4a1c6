"""Differential test: one heap entry per broadcast ≡ one per receiver.

The plain :class:`Simulator` keeps a single live heap entry per broadcast
(``post_fanout``); :class:`ControlledScheduler` overrides that one method
to expand every broadcast into one ``post_at`` per receiver — the shape
the network posted before fan-out entries existed.  Run in timestamp
order, the two must be the same simulation, event for event: the same delivery
sequence (who received what from whom, when, in which order), completion
records, event count, send/drop counters and final clock.

Each case picks a different way through ``SimNetwork._transmit_broadcast``
or interleaves it with the paths that stay per-delivery.  The run loop
steps a broadcast's entry itself, so the same comparison is repeated with
runs that stop in the middle of broadcasts — on a horizon, on an event
budget, one ``step()`` at a time — and asks after every stop that both
schedulers are at the same event and agree on what comes next.
"""

import pytest

from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.fingerprint import completion_records
from repro.net.byzantine import ByzantineSpec
from repro.net.conditions import LatencyTopology, NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.simulator import ControlledScheduler, Simulator


def _lan(n):
    """The topology-free LAN fast path of the broadcast loop."""
    return dict(protocol="poe-mac")


def _all_tied(n):
    """No jitter, no serialization: every delivery of a broadcast — and of
    all broadcasts sent at one instant — ties on time; only seq orders."""
    return dict(protocol="pbft",
                conditions=NetworkConditions.uniform_delay(1.0, seed=5))


def _lossy(n):
    """Scattered drops owned by the fault schedule: the primary keeps one
    backup in the dark and two backups are cut off from each other for a
    while, so fan-outs lose some receivers and not others, dropped
    receivers consume no sequence number, and retransmission timers fill
    the gaps."""
    faults = (FaultSchedule()
              .add_dark_replicas("replica:0", ["replica:1"], at_ms=2.0,
                                 until_ms=9.0)
              .add_partition(["replica:2"], ["replica:3"], at_ms=4.0,
                             until_ms=15.0))
    return dict(protocol="poe-mac", request_timeout_ms=200.0, faults=faults)


def _topology(n):
    """Asymmetric region latencies: the slow branch of the loop
    (``propagation_ms`` per receiver), widely spread delivery times."""
    conditions = NetworkConditions(
        jitter_ms=0.2, seed=5,
        topology=LatencyTopology(
            regions={f"replica:{i}": "east" if i % 2 else "west"
                     for i in range(n)},
            link_ms={("east", "west"): 4.0, ("west", "east"): 6.0}))
    return dict(protocol="pbft", conditions=conditions)


def _crash_window(n):
    """A backup is down for part of the run: the fault gate drops its
    receivers mid-fan-out and deliveries in flight hit a crashed node."""
    return dict(protocol="poe-mac",
                faults=FaultSchedule().add_crash("replica:2", at_ms=3.0,
                                                 until_ms=12.0))


def _byzantine_sender(n):
    """A delaying backup: its traffic takes the unicast path, interleaved
    with everyone else's fan-outs."""
    return dict(protocol="poe-mac",
                byzantine=(ByzantineSpec(behavior="delay", replica_index=1),))


def _include_self(n):
    """HotStuff leaders broadcast proposals to themselves as well."""
    return dict(protocol="hotstuff")


CASES = [_lan, _all_tied, _lossy, _topology, _crash_window,
         _byzantine_sender, _include_self]
#: Cases that must actually lose messages to be testing what they claim.
DROPPING = (_lossy, _crash_window)


def _run(case, n, simulator):
    config = ClusterConfig(num_replicas=n, batch_size=10, total_batches=12,
                           client_outstanding=6, seed=7, **case(n))
    cluster = Cluster(config, simulator=simulator)
    deliveries = []
    cluster.network.add_observer(
        lambda sender, receiver, message, time_ms: deliveries.append(
            (sender, receiver, type(message).__name__, time_ms)))
    cluster.start()
    cluster.run_until_done(max_ms=60_000.0)
    assert all(pool.is_done() for pool in cluster.pools)
    return (completion_records(cluster), simulator.processed_events,
            cluster.network.sent_count, cluster.network.dropped_count,
            simulator.now, deliveries)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__[1:])
def test_fanout_entries_match_per_delivery_entries(case, n):
    fanned_out = _run(case, n, Simulator())
    per_delivery = _run(case, n, ControlledScheduler())
    assert fanned_out == per_delivery
    records, _events, _sent, dropped, _now, _deliveries = fanned_out
    assert len(records) == 12
    assert (dropped > 0) == (case in DROPPING)


def _until(simulator):
    simulator.run(until_ms=simulator.now + 0.07)


def _max_events(simulator):
    simulator.run(max_events=3)


def _step(simulator):
    simulator.step()


def _run_in_stops(case, stop, simulator):
    config = ClusterConfig(num_replicas=4, batch_size=10, total_batches=6,
                           client_outstanding=3, seed=7, **case(4))
    cluster = Cluster(config, simulator=simulator)
    log = []
    cluster.network.add_observer(
        lambda sender, receiver, message, time_ms: log.append(
            (sender, receiver, type(message).__name__, time_ms)))
    cluster.start()
    while (not all(pool.is_done() for pool in cluster.pools)
           and simulator.next_event_time() is not None):
        stop(simulator)
        log.append(("stop", simulator.now, simulator.processed_events,
                    simulator.next_event_time()))
    assert all(pool.is_done() for pool in cluster.pools)
    return (completion_records(cluster), cluster.network.sent_count,
            cluster.network.dropped_count, log)


@pytest.mark.parametrize("stop", [_until, _max_events, _step],
                         ids=lambda stop: stop.__name__[1:])
@pytest.mark.parametrize("case", [_lan, _all_tied, _crash_window],
                         ids=lambda case: case.__name__[1:])
def test_runs_stopped_mid_broadcast_match_per_delivery_entries(case, stop):
    fanned_out = _run_in_stops(case, stop, Simulator())
    per_delivery = _run_in_stops(case, stop, ControlledScheduler())
    assert fanned_out == per_delivery
    stops = [entry for entry in fanned_out[3] if entry[0] == "stop"]
    assert len(stops) > 20

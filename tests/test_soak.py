"""Bounded-horizon soaks: every container a node holds must plateau.

A fault-matrix cell runs tens of batches — long enough to prove a
recovery path works, far too short to notice a map that grows with run
length.  The soak harness runs thousands of batches with a shortened
client timeout so virtual time crosses several reply-retention windows
(``request_timeout_ms * REPLY_RETENTION_TIMEOUTS``), then samples every
container it *discovers* on every node (``node_state_sizes``: no list of
names to keep up to date) at evenly spaced completion marks.  The
invariant: once past the first retention window, sizes are bounded by
the checkpoint/retention horizon — late-run sizes must not exceed the
mid-run plateau by more than a constant — except for the few containers
``BY_DESIGN_GROWTH`` names, each with its reason.

The churn soak adds the reconfiguration angle: replicas leave and
rejoin early in the run, and the checkpoint GC must still bound state
for the rest of the horizon — a rejoiner that kept deferred messages or
dedup entries forever would show up as a grower here.
"""

import dataclasses

import pytest

from repro.fabric.scenarios import (
    BY_DESIGN_GROWTH,
    MATRIX_PROTOCOLS,
    SoakReport,
    node_state_sizes,
    run_soak,
    soak_params,
)
from repro.protocols.replica_base import BatchingReplica

SOAK_STEPS = 4000


def assert_bounded(report: SoakReport, timeout_ms: float = 25.0) -> None:
    assert report.live, f"{report.protocol}/{report.scenario} did not finish"
    assert report.safe, report.audit.summary()
    assert report.completed_batches == report.steps
    # The soak must actually span multiple retention windows (800ms each
    # at the soak timeout), otherwise the GC it is meant to observe never
    # had a chance to run.
    window_ms = timeout_ms * BatchingReplica.REPLY_RETENTION_TIMEOUTS
    assert report.samples[-1].now_ms > 2 * window_ms
    growers = report.growers()
    assert not growers, (
        f"{report.protocol}/{report.scenario}: containers growing with run "
        f"length (name, mid-run, final): {growers}")


@pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
def test_long_run_state_is_bounded(protocol):
    assert_bounded(run_soak(protocol, "no-fault", steps=SOAK_STEPS))


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "zyzzyva"])
def test_long_run_state_is_bounded_with_a_crashed_backup(protocol):
    # The paper's failure configuration (Figure 9(a,b)).  On zyzzyva every
    # request then takes the commit-certificate path, so whatever the
    # client pool keeps per certificate must die with the request.
    assert_bounded(run_soak(protocol, "backup-crash", steps=SOAK_STEPS))


@pytest.mark.parametrize("protocol", ["sbft", "hotstuff"])
def test_crashed_backup_soak_at_a_timeout_above_the_protocols_own(protocol):
    # The soak's 25 ms client timeout is below COLLECTOR_TIMEOUT_MS (50)
    # and PACEMAKER_TIMEOUT_MS (250): with a crashed backup these two
    # livelock there (SCENARIOS.md, "State stays bounded"), and finish at
    # 300 ms.
    timeout_ms = 300.0
    params = dataclasses.replace(soak_params(SOAK_STEPS),
                                 request_timeout_ms=timeout_ms,
                                 max_ms=24_000.0 * timeout_ms)
    assert_bounded(run_soak(protocol, "backup-crash", steps=SOAK_STEPS,
                            params=params), timeout_ms)


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft"])
def test_churn_soak_checkpoint_gc_bounds_state(protocol):
    assert_bounded(run_soak(protocol, "churn", steps=SOAK_STEPS))


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft"])
def test_reconfig_cycle_soak_epoch_state_plateaus(protocol):
    # Two full grow/shrink cycles early in the run, then thousands of
    # batches of steady state: the epoch log must hold exactly one entry
    # per activated reconfiguration (four) and every per-epoch map must
    # plateau with the rest of the bookkeeping — an epoch registry that
    # scaled with run length would be a leak in every long-lived
    # reconfigurable deployment.
    report = run_soak(protocol, "epoch-cycle", steps=SOAK_STEPS)
    assert_bounded(report)
    assert report.epochs == 4, (
        f"expected both grow/shrink cycles to activate, reached "
        f"epoch {report.epochs}")
    final = report.samples[-1].sizes
    # Genesis plus one entry per activated reconfiguration, no more.
    assert final["epoch_log"] == report.epochs + 1
    assert final["_pending_epochs"] == 0


def test_soak_discovers_containers_on_nodes_and_their_components():
    report = run_soak("poe-mac", "no-fault", steps=200)
    assert report.samples, "the soak must sample at least once"
    names = report.tracked_names()
    # Replica maps, pool maps, and one level down: the executor's and the
    # checkpoint tracker's.  Nobody listed these anywhere.
    for expected in ("_replied", "_seen_batch_ids", "_batch_sequence",
                     "_deferred_messages", "_vc_votes", "_boundaries",
                     "_pending", "_completed_ids", "executor._executed",
                     "checkpoints._votes", "checkpoints.stable_digests"):
        assert expected in names


def test_node_state_sizes_finds_containers_without_being_told():
    from collections import deque

    from repro.ledger.store import KeyValueStore

    class Node:
        def __init__(self):
            self.next_year = {"a": 1, "b": 2}        # a map added next year
            self.queue = deque([1])
            self.store = KeyValueStore({"k": "v"})   # a component's own
            self.counter, self.name, self.pair = 3, "n", (1, 2)

    assert node_state_sizes(Node()) == {"next_year": 2, "queue": 1,
                                        "store._table": 1}


def test_every_by_design_exemption_still_exists():
    # A stale exemption is as bad as a missing one: each name on the list
    # must be a container some node really holds, and must say why.
    names = run_soak("poe-mac", "no-fault", steps=50).tracked_names()
    assert set(BY_DESIGN_GROWTH) <= set(names)
    assert all(len(reason) > 20 for reason in BY_DESIGN_GROWTH.values())


def test_a_grower_is_reported_unless_it_is_exempt():
    report = run_soak("poe-mac", "no-fault", steps=SOAK_STEPS)
    assert report.growers() == []
    final = report.samples[-1].sizes
    # The exempt ones do grow with run length ...
    assert final["completions"] == final["executor._executed"] == SOAK_STEPS
    # ... and a container that did the same without being listed is caught.
    for sample in report.samples:
        sample.sizes["_leak"] = sample.completed_batches
    assert [name for name, _, _ in report.growers()] == ["_leak"]


def test_soak_params_span_several_retention_windows():
    params = soak_params(steps=SOAK_STEPS)
    # 25ms timeouts put the reply-retention window at 800ms of virtual
    # time; the deadline must leave room for several of them.
    assert params.request_timeout_ms == 25.0
    assert params.max_ms >= 100 * params.request_timeout_ms

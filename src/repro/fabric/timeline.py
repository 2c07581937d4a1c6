"""Primary-failure / view-change timeline experiment (paper, Figure 10).

The paper lets the primary complete consensus for roughly ten seconds and
then crashes it: clients time out, forward their requests to the backups,
the backups time out waiting for the primary, exchange VC-REQUEST
messages, the new primary sends NV-PROPOSE and the system resumes.  The
figure plots system throughput over time, showing the dip during the
view-change and the recovery afterwards.

:func:`run_view_change_timeline` reproduces that run for PoE or PBFT on
the simulated fabric and returns the per-interval throughput series along
with the observed view-change markers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.metrics import ThroughputTimeline
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule


@dataclass
class ViewChangeTimeline:
    """Result of one primary-failure run."""

    protocol: str
    n: int
    timeline: ThroughputTimeline
    primary_crash_ms: float
    view_changes_completed: int
    new_view: int
    total_txns: int

    def series(self) -> List[Dict[str, float]]:
        return self.timeline.series()


#: The Figure 10 deployment: PoE at n = 32, batches of 100 with 16 in
#: flight and no batch budget (the run is time-bounded), on the
#: :class:`~repro.net.conditions.NetworkConditions` defaults (0.5 ms
#: one-way, 0.05 ms jitter, 1 Gbit/s, seed 1) with a 500 ms timeout.
TIMELINE_DEPLOYMENT = ClusterConfig(
    protocol="poe", num_replicas=32, batch_size=100, client_outstanding=16,
    total_batches=None, request_timeout_ms=500.0, conditions=NetworkConditions())


def run_view_change_timeline(
    config: ClusterConfig = TIMELINE_DEPLOYMENT,
    crash_at_ms: float = 2_000.0,
    duration_ms: float = 8_000.0,
    bucket_ms: float = 250.0,
) -> ViewChangeTimeline:
    """Crash *config*'s primary at *crash_at_ms* and return the throughput
    timeline of the first *duration_ms*.

    The defaults compress the paper's 10-second-plus run into a few
    simulated seconds (with a correspondingly smaller request timeout) so
    the benchmark stays laptop-sized; the shape — steady throughput, dip
    at the crash, recovery after the view-change — is preserved.
    """
    config = replace(config, faults=FaultSchedule.primary_crash(
        config.replica_ids()[0], at_ms=crash_at_ms))
    cluster = Cluster(config)
    cluster.start()
    cluster.run_for(duration_ms)

    completions = cluster.completions()
    timeline = ThroughputTimeline.from_completions(
        completions, bucket_ms=bucket_ms, end_ms=duration_ms)
    view_changes = max(
        (getattr(replica, "view_changes_completed", 0) for replica in cluster.replicas),
        default=0,
    )
    new_view = max((replica.view for replica in cluster.replicas), default=0)
    return ViewChangeTimeline(
        protocol=cluster.spec.name,
        n=config.num_replicas,
        timeline=timeline,
        primary_crash_ms=crash_at_ms,
        view_changes_completed=view_changes,
        new_view=new_view,
        total_txns=sum(record.num_txns for record in completions),
    )

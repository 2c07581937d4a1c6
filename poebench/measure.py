"""Untraced measurement: set-up times, timed reps, virtual metrics, checks.

Every number is read from outside ``src/`` through public entry points:
``run_until_done()``, ``completions()``, ``result()``,
``simulator.processed_events``, ``network.sent_count/dropped_count``,
``audit_cluster``/``audit_sharded_cluster`` and the replicas'
``view_changes_completed``/``rollback_log``.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.audit import audit_cluster, audit_sharded_cluster
from repro.fabric.metrics import percentile
from repro.fabric.sharding import ShardedCluster

from workloads import Config, Deployment, Workload, build

#: Virtual-time budget of one deployment; a batch still open then is failed.
MAX_VIRTUAL_MS = 60_000.0
#: A rep whose CPU time is below this share of its wall time lost the
#: processor to something else while it ran.
CONTENDED_BELOW = 0.9
MIN_REPS = 5
#: Untraced reps a traced run takes for its baseline wall time.
TRACE_MIN_REPS = 3
SETUP_CALLS = 20
REPLACEMENT_REPS = 3
#: Seconds the calibration loop takes on the reference host, the host
#: every host time is reported for.
REFERENCE_S = 0.2

Drive = Callable[[Deployment], None]


# -------------------------------------------------------------- calibration
class _Cell:
    __slots__ = ("value", "seen")

    def __init__(self, value: int) -> None:
        self.value = value
        self.seen = 0


def calibrate() -> float:
    """Wall seconds a fixed pure-Python loop takes right now.

    This host's speed is not steady: for stretches of seconds to minutes
    everything runs up to 1.4x slower, with the process still holding
    its processor (cpu/wall stays at 0.98), so no statistic over the
    reps of one run removes it.  Raw medians of ten runs spread by
    7-29 % (45 % in one set); divided by this loop's time taken right
    before and after each rep they spread by 3-10 %.  The loop has the
    simulator's instruction mix (integer arithmetic, then heap, dict and
    small-object churn) and none of its code, and it runs with the
    collector off and no deployment alive, so neither a change to
    ``src/`` nor the size of the live heap can move it.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(800_000):
            total += i * i % 7
        heap: list = []
        table: dict = {}
        for i in range(120_000):
            cell = _Cell(i)
            heapq.heappush(heap, (i * 7919 % 1000, i, cell))
            table[f"k{i & 1023}"] = cell
            if i & 3 == 3:
                heapq.heappop(heap)
                heapq.heappop(heap)[2].seen = table[f"k{i & 511}"].value
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


# ------------------------------------------------------- deployment readers
def run_until_done(deployment: Deployment) -> None:
    deployment.run_until_done(max_ms=MAX_VIRTUAL_MS)


def groups(deployment: Deployment) -> List[object]:
    """The single-group clusters inside a deployment."""
    if isinstance(deployment, ShardedCluster):
        return list(deployment.shard_clusters)
    return [deployment]


def processed_events(deployment: Deployment) -> int:
    if isinstance(deployment, ShardedCluster):
        return deployment.processed_events
    return deployment.simulator.processed_events


def virtual_now(deployment: Deployment) -> float:
    if isinstance(deployment, ShardedCluster):
        return deployment.now
    return deployment.simulator.now


def _networks(deployment: Deployment) -> List[object]:
    nets = [group.network for group in groups(deployment)]
    if isinstance(deployment, ShardedCluster):
        nets.append(deployment.hub)
    return nets


@dataclass
class Virtual:
    """What the simulated clients saw, pooled over a rep's deployments."""

    budget_batches: int
    done_batches: int
    done_txns: int
    slow_batches: int
    window_txns: int
    window_ms: float
    latencies_ms: List[float]
    longest_gap_ms: float

    @property
    def outage_ms(self) -> float:
        """Time without service: the longest gap between consecutive
        completions, or the median latency if that is longer — a client
        cannot tell a gap shorter than one normal round trip from
        service, and on a no-fault run the longest of thousands of ~1 ms
        gaps varies by a third from seed to seed."""
        return max(self.longest_gap_ms, self.latency_ms(0.50))

    @property
    def ok_op_frac(self) -> float:
        failed = self.budget_batches - self.done_batches + self.slow_batches
        return 1.0 - failed / self.budget_batches

    @property
    def txn_per_s(self) -> float:
        return self.window_txns / (self.window_ms / 1000.0)

    def latency_ms(self, fraction: float) -> float:
        return percentile(self.latencies_ms, fraction)


def virtual_metrics(deployments: Sequence[Deployment]) -> Virtual:
    out = Virtual(0, 0, 0, 0, 0, 0.0, [], 0.0)
    for deployment in deployments:
        config = deployment.config
        out.budget_batches += len(deployment.pools) * config.total_batches
        records = deployment.completions()
        out.done_batches += len(records)
        out.done_txns += sum(r.num_txns for r in records)
        out.slow_batches += sum(
            r.latency_ms >= config.request_timeout_ms for r in records)
        if not records:
            continue
        # Cluster.result() rule: the window opens after the first 10 % of
        # completions; latencies are taken over the same records.
        result = deployment.result()
        out.window_txns += result.completed_txns
        out.window_ms += result.duration_ms
        out.latencies_ms.extend(
            r.latency_ms for r in records[int(len(records) * 0.1):])
        done_at = [r.completed_at_ms for r in records]
        out.longest_gap_ms = max([out.longest_gap_ms] + [
            later - earlier for earlier, later in zip(done_at, done_at[1:])])
    out.latencies_ms.sort()
    return out


def exact_counts(deployments: Sequence[Deployment]) -> Dict[str, int]:
    """Exact per-layer counts, read from public attributes after a rep."""
    all_groups = [g for d in deployments for g in groups(d)]
    replicas = [r for g in all_groups for r in g.replicas]
    nets = [net for d in deployments for net in _networks(d)]
    return {
        "net.simulator.events": sum(processed_events(d) for d in deployments),
        "net.network.msgs_sent": sum(net.sent_count for net in nets),
        "net.network.msgs_dropped": sum(net.dropped_count for net in nets),
        "protocols.recovery.view_changes": sum(
            max(getattr(r, "view_changes_completed", 0) for r in g.replicas)
            for g in all_groups),
        "protocols.recovery.rollbacks": sum(
            len(getattr(r, "rollback_log", ())) for r in replicas),
        "ledger.blocks": sum(
            max(len(r.blockchain) for r in g.replicas) for g in all_groups),
    }


def audit_problems(deployments: Sequence[Deployment]) -> List[str]:
    problems = []
    for deployment in deployments:
        audit = (audit_sharded_cluster if isinstance(deployment, ShardedCluster)
                 else audit_cluster)
        report = audit(deployment)
        if not report.ok:
            problems.append(f"audit: {report.summary()}")
    return problems


# --------------------------------------------------------------------- reps
@dataclass
class Rep:
    """One rep.  Its deployments are read out and dropped before the
    closing calibration, so only one deployment is ever alive."""

    wall_s: float
    cpu_s: float
    calibration_s: Tuple[float, float]
    #: (events, completions, final clock): equal across reps of a seed.
    signature: Tuple[int, int, float]
    shard_events: List[int]
    virtual: Virtual
    counts: Dict[str, int]
    audit: List[str]
    warmup: bool = False

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds this rep would have taken on the reference host."""
        return self.wall_s * REFERENCE_S / statistics.mean(self.calibration_s)

    @property
    def cpu_wall_ratio(self) -> float:
        return self.cpu_s / self.wall_s

    @property
    def contended(self) -> bool:
        return self.cpu_wall_ratio < CONTENDED_BELOW

    def row(self) -> Dict[str, object]:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "calibration_s": list(self.calibration_s),
                "ref_wall_s": self.ref_wall_s,
                "cpu_wall_ratio": self.cpu_wall_ratio,
                "contended": self.contended, "warmup": self.warmup}


def time_setup(workload: Workload, seed: int, scale: float) -> List[float]:
    """Reference-host seconds of each of 20 × (construct + ``start()``)."""
    times = []
    before = calibrate()
    for _ in range(SETUP_CALLS):
        start = time.perf_counter()
        deployments = [build(c) for c in workload.configs(seed, scale)]
        times.append(time.perf_counter() - start)
        del deployments
    factor = REFERENCE_S / statistics.mean((before, calibrate()))
    return [t * factor for t in times]


def run_rep(workload: Workload, seed: int, scale: float,
            make: Callable[[Config], Deployment] = build,
            drive: Drive = run_until_done,
            calibrated: Optional[float] = None,
            audit: bool = False) -> Rep:
    """Calibrate (or take the previous rep's closing calibration), build,
    time the run, read the deployments out, drop them, calibrate."""
    before = calibrate() if calibrated is None else calibrated
    deployments = [make(c) for c in workload.configs(seed, scale)]
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for deployment in deployments:
        drive(deployment)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    virtual = virtual_metrics(deployments)
    signature = (sum(processed_events(d) for d in deployments),
                 virtual.done_batches,
                 sum(virtual_now(d) for d in deployments))
    shard_events = [events for d in deployments
                    for events in getattr(d, "shard_processed_events", ())]
    counts = exact_counts(deployments)
    problems = audit_problems(deployments) if audit else []
    del deployments, deployment
    gc.collect()  # deployments are cyclic: only this frees them
    return Rep(wall, cpu, (before, calibrate()), signature, shard_events,
               virtual, counts, problems)


def timed_reps(workload: Workload, seed: int, scale: float, seconds: float,
               min_reps: int) -> List[Rep]:
    """A warm-up rep (audited, never timed), then reps until *seconds*
    have been measured and at least *min_reps* taken.  If more than one
    rep was contended, up to three replacements follow.  Every rep is
    returned, the warm-up first."""
    reps = [run_rep(workload, seed, scale, audit=True)]
    reps[0].warmup = True

    def take() -> None:
        reps.append(run_rep(workload, seed, scale,
                            calibrated=reps[-1].calibration_s[1]))

    start = time.perf_counter()
    while len(reps) <= min_reps or time.perf_counter() - start < seconds:
        take()
    for _ in range(REPLACEMENT_REPS):
        if sum(rep.contended for rep in reps[1:]) <= 1:
            break
        take()
    return reps


def steady_walls(reps: Sequence[Rep]) -> List[float]:
    """Reference-host wall times the host metrics are taken over: the
    timed reps that were not contended when at least three exist,
    otherwise all timed reps."""
    timed = [rep for rep in reps if not rep.warmup]
    steady = [rep.ref_wall_s for rep in timed if not rep.contended]
    return steady if len(steady) >= 3 else [rep.ref_wall_s for rep in timed]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check(reps: Sequence[Rep]) -> List[str]:
    """Correctness problems of a measured workload (empty = correct).
    *reps* may end with the traced rep: it must reproduce the events."""
    virtual = reps[-1].virtual
    problems = [problem for rep in reps for problem in rep.audit]
    if virtual.done_batches != virtual.budget_batches:
        problems.append(
            f"{virtual.budget_batches - virtual.done_batches} of "
            f"{virtual.budget_batches} batches never completed")
    signatures = {rep.signature for rep in reps}
    if len(signatures) != 1:
        problems.append(f"reps disagree on (events, completions, clock): "
                        f"{sorted(signatures)}")
    return problems

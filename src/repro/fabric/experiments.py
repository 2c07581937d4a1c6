"""The paper's experiment configurations, runnable in one call.

Every throughput/latency experiment in Section IV is a combination of a
few dimensions: protocol, number of replicas, standard vs zero payload,
single-backup failure vs failure free, batch size, and whether
out-of-order processing is available.  :class:`ExperimentConfig` captures
one such point and :func:`run_experiment` executes it on the simulated
fabric, returning a :class:`~repro.fabric.metrics.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional

from repro.crypto.cost import CryptoCostModel
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.metrics import RunResult
from repro.fabric.registry import protocol_names
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule


@dataclass(frozen=True)
class ExperimentConfig:
    """One point in the paper's evaluation space.

    Attributes:
        protocol: protocol key (see :mod:`repro.fabric.registry`).
        num_replicas: number of replicas ``n``.
        batch_size: transactions per consensus slot (paper default 100).
        single_backup_failure: crash one backup replica before the run
            starts (the paper's "Single Failure" configuration).
        zero_payload: proposals carry no request data, replicas execute
            dummy instructions (Figures 9(e)-(h)).
        out_of_order: whether the primary may process requests
            out-of-order; disabling it reproduces Figures 9(k), 9(l).
        num_batches: how many batches the client pool submits; the run is
            count-based and throughput is measured over the completion
            window after warm-up.
        client_outstanding: batches kept in flight by the client pool.
        latency_ms: one-way network delay between replicas.
        bandwidth_mbps: effective per-node uplink goodput; the primary's
            broadcast of standard-payload proposals is charged against it.
        cost_model: CPU time charged per cryptographic operation (CMAC
            by default; Figure 8 compares three, Figure 11 charges nothing).

    Every point runs at seed 1 with the paper's 3 s client/replica
    timeout, the :class:`~repro.fabric.cluster.ClusterConfig` defaults.
    """

    protocol: str = "poe"
    num_replicas: int = 16
    batch_size: int = 100
    single_backup_failure: bool = False
    zero_payload: bool = False
    out_of_order: bool = True
    num_batches: int = 120
    client_outstanding: int = 32
    latency_ms: float = 1.0
    bandwidth_mbps: float = 2000.0
    cost_model: CryptoCostModel = field(default_factory=CryptoCostModel.cmac)

    def describe(self) -> str:
        failure = "1 backup crashed" if self.single_backup_failure else "no failures"
        payload = "zero payload" if self.zero_payload else "standard payload"
        return (f"{self.protocol} n={self.num_replicas} batch={self.batch_size} "
                f"({failure}, {payload})")


def _fault_schedule(config: ExperimentConfig) -> FaultSchedule:
    """Crash the last replica; it is a backup and (for SBFT) not the executor."""
    if not config.single_backup_failure:
        return FaultSchedule.none()
    crashed = replica_id(config.num_replicas - 1)
    return FaultSchedule.single_backup_crash(crashed, at_ms=0.0)


def build_cluster(config: ExperimentConfig) -> Cluster:
    """Build (but do not run) the cluster for one experiment point."""
    conditions = NetworkConditions(
        latency_ms=config.latency_ms,
        jitter_ms=config.latency_ms * 0.1,
        bandwidth_mbps=config.bandwidth_mbps,
    )
    outstanding = config.client_outstanding if config.out_of_order else 1
    if not config.out_of_order and config.protocol == "hotstuff":
        # The paper allows HotStuff four outstanding requests because its
        # chained pipeline spans four rounds.
        outstanding = 4
    cluster_config = ClusterConfig(
        protocol=config.protocol,
        num_replicas=config.num_replicas,
        batch_size=config.batch_size,
        num_clients=1,
        client_outstanding=outstanding,
        total_batches=config.num_batches,
        zero_payload=config.zero_payload,
        out_of_order=config.out_of_order,
        execute_operations=False,
        conditions=conditions,
        faults=_fault_schedule(config),
        cost_model=config.cost_model,
    )
    return Cluster(cluster_config)


def run_experiment(config: ExperimentConfig,
                   max_ms: float = 600_000.0,
                   warmup_fraction: float = 0.1) -> RunResult:
    """Run one experiment point and summarise it."""
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    metadata = {
        "single_backup_failure": config.single_backup_failure,
        "num_batches": config.num_batches,
        "description": config.describe(),
        "messages_sent": cluster.network.sent_count,
        # False when max_ms ran out first: the rates of an unfinished run.
        "budget_met": all(pool.is_done() for pool in cluster.pools),
        "completed_batches": sum(pool.completed_batches for pool in cluster.pools),
    }
    return cluster.result(warmup_fraction=warmup_fraction, metadata=metadata)


def run_protocol_comparison(
    base: ExperimentConfig,
    protocols: Optional[Iterable[str]] = None,
    max_ms: float = 600_000.0,
) -> Dict[str, RunResult]:
    """Run the same experiment point for several protocols."""
    names = protocols if protocols is not None else protocol_names()
    return {name: run_experiment(replace(base, protocol=name), max_ms=max_ms)
            for name in names}

"""The paper's experiment configurations, runnable in one call.

Every throughput/latency experiment in Section IV is a combination of a
few dimensions: protocol, number of replicas, standard vs zero payload,
single-backup failure vs failure free, batch size, and whether
out-of-order processing is available.  One such point is a
:class:`~repro.fabric.cluster.ClusterConfig` over
:data:`FIGURE_DEPLOYMENT`: ``replace`` sets the sweep coordinates,
:func:`backup_crash` adds the failure and :func:`sequential` turns
out-of-order processing off.  :func:`run_experiment` executes it on the
simulated fabric, returning a :class:`~repro.fabric.metrics.RunResult`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional

from repro.crypto.cost import CryptoCostModel
from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.metrics import RunResult
from repro.fabric.registry import protocol_names
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule

#: The deployment every figure point starts from: PoE at n = 16, batches
#: of 100 with 32 in flight, 120 of them, CMAC crypto costs and a 1 ms
#: one-way delay with 0.1 ms jitter over a 2 Gbit/s uplink.  Every point
#: runs at seed 1 with the paper's 3 s client/replica timeout.
FIGURE_DEPLOYMENT = ClusterConfig(
    protocol="poe", num_replicas=16, batch_size=100, client_outstanding=32,
    total_batches=120,
    conditions=NetworkConditions(latency_ms=1.0, jitter_ms=0.1, bandwidth_mbps=2000.0),
    cost_model=CryptoCostModel.cmac())


def backup_crash(config: ClusterConfig) -> ClusterConfig:
    """*config* with its last replica crashed from the start: the paper's
    "Single Failure" configuration.  The last replica is a backup and, for
    SBFT, not the executor."""
    return replace(config, faults=FaultSchedule.single_backup_crash(
        config.replica_ids()[-1], at_ms=0.0))


def sequential(config: ClusterConfig) -> ClusterConfig:
    """*config* without out-of-order processing: the client waits for each
    request before sending the next (Figures 9(k), 9(l)).  HotStuff keeps
    four in flight, as its chained pipeline spans four rounds."""
    return replace(config, out_of_order=False,
                   client_outstanding=4 if config.protocol == "hotstuff" else 1)


def run_experiment(config: ClusterConfig,
                   max_ms: float = 600_000.0,
                   warmup_fraction: float = 0.1) -> RunResult:
    """Run one experiment point and summarise it."""
    cluster = Cluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    crashed = len(config.faults.crashes) if config.faults else 0
    payload = "zero" if config.zero_payload else "standard"
    metadata = {
        "description": (f"{config.protocol} n={config.num_replicas} "
                        f"batch={config.batch_size} ({crashed} crashed, "
                        f"{payload} payload)"),
        "messages_sent": cluster.network.sent_count,
        # False when max_ms ran out first: the rates of an unfinished run.
        "budget_met": all(pool.is_done() for pool in cluster.pools),
        "completed_batches": sum(pool.completed_batches for pool in cluster.pools),
    }
    return cluster.result(warmup_fraction=warmup_fraction, metadata=metadata)


def run_protocol_comparison(
    base: ClusterConfig = FIGURE_DEPLOYMENT,
    protocols: Optional[Iterable[str]] = None,
    max_ms: float = 600_000.0,
) -> Dict[str, RunResult]:
    """Run the same experiment point for several protocols."""
    names = protocols if protocols is not None else protocol_names()
    return {name: run_experiment(replace(base, protocol=name), max_ms=max_ms)
            for name in names}

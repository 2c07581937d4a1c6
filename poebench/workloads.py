"""The six poebench workloads.

A workload is a list of deployments run back to back in one rep; every
workload but ``six_protocols_n16`` has exactly one.  ``seed`` feeds
``ClusterConfig.seed`` only (network jitter, YCSB keys, key material).
``scale`` shrinks the batch budgets for the self-test; the benchmark
itself always runs at scale 1.

Clients are closed loop (the only generator ``src/`` has): each pool
keeps ``client_outstanding`` batches in flight and submits the next one
when one completes.  The injected delay is ``NetworkConditions.lan``
(0.5 ms one-way + U[0, 0.05] ms jitter, 2000 Mbit/s per-node goodput).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig
from repro.net.faults import FaultSchedule

Config = Union[ClusterConfig, ShardedClusterConfig]
Deployment = Union[Cluster, ShardedCluster]

SIX_PROTOCOLS = ("poe-mac", "poe-ts", "pbft", "sbft", "zyzzyva", "hotstuff")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int, float], List[Config]]


def _batches(full: int, scale: float) -> int:
    return max(16, round(full * scale))


def _mac_flood(seed: int, scale: float) -> List[Config]:
    return [ClusterConfig(protocol="poe-mac", num_replicas=32, batch_size=100,
                          total_batches=_batches(240, scale), seed=seed)]


def _ts_linear(seed: int, scale: float) -> List[Config]:
    return [ClusterConfig(protocol="poe-ts", num_replicas=32, batch_size=100,
                          total_batches=_batches(480, scale), seed=seed)]


def _ycsb_exec(seed: int, scale: float) -> List[Config]:
    return [ClusterConfig(protocol="poe-mac", num_replicas=4, batch_size=100,
                          total_batches=_batches(240, scale),
                          use_ycsb_payload=True, execute_operations=True,
                          seed=seed)]


def _primary_crash(seed: int, scale: float) -> List[Config]:
    # The crash time shrinks with the budget so the primary always dies a
    # third of the way into the run, never after it.
    return [ClusterConfig(protocol="poe-mac", num_replicas=16, batch_size=100,
                          total_batches=_batches(600, scale),
                          request_timeout_ms=250.0,
                          faults=FaultSchedule.primary_crash(
                              "replica:0", at_ms=180.0 * scale),
                          seed=seed)]


def _xshard(seed: int, scale: float) -> List[Config]:
    return [ShardedClusterConfig(num_shards=2, protocols="poe-mac",
                                 num_replicas=4, batch_size=16, num_pools=2,
                                 client_outstanding=8,
                                 total_batches=_batches(900, scale),
                                 cross_shard_fraction=0.2, seed=seed)]


def _six_protocols(seed: int, scale: float) -> List[Config]:
    # checkpoint_interval=10, not the default 50: SBFT stalls a batch that
    # sits on a checkpoint boundary with probability ~0.4 per boundary, so
    # at the default a sixth of the seeds show no stall at all and every
    # virtual metric of this workload is bimodal across seeds.  Fifteen
    # boundaries make the stall appear on every seed.
    return [ClusterConfig(protocol=protocol, num_replicas=16, batch_size=100,
                          total_batches=_batches(150, scale),
                          checkpoint_interval=10, seed=seed)
            for protocol in SIX_PROTOCOLS]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mac_flood_n32",
             "n^2 SUPPORT flood at n=32: event heap, network and the vote path",
             _mac_flood),
    Workload("ts_linear_n32",
             "linear threshold-signature PoE at n=32: hashing, shares, "
             "Lagrange aggregation; heap and network are light",
             _ts_linear),
    Workload("ycsb_exec_n4",
             "real Zipfian YCSB batches generated, hashed, executed and "
             "chained at n=4; consensus layers are small",
             _ycsb_exec),
    Workload("primary_crash_n16",
             "primary crashes mid-run: client timeout, view change, resume; "
             "active fault schedule on the network path",
             _primary_crash),
    Workload("xshard_2sh_x20",
             "two PoE shards, 20% cross-shard 2PC: window loop, shard "
             "boundary, coordinator and sharded client pools",
             _xshard),
    Workload("six_protocols_n16",
             "all six protocols back to back at n=16: any protocol module "
             "slowing or changing behaviour shows here",
             _six_protocols),
)}


def construct(config: Config) -> Deployment:
    if isinstance(config, ShardedClusterConfig):
        return ShardedCluster(config)
    return Cluster(config)


def build(config: Config) -> Deployment:
    """Construct and boot one deployment (the unit ``setup_s`` times)."""
    deployment = construct(config)
    deployment.start()
    return deployment


def sizes(workload: Workload, seed: int, scale: float) -> List[Dict[str, object]]:
    """The sizes a result file records so two files can be told apart."""
    rows = []
    for config in workload.configs(seed, scale):
        sharded = isinstance(config, ShardedClusterConfig)
        rows.append({
            "protocol": config.protocols if sharded else config.protocol,
            "shards": config.num_shards if sharded else 1,
            "replicas_per_group": config.num_replicas,
            "batch_size": config.batch_size,
            "pools": config.num_pools if sharded else config.num_clients,
            "outstanding": config.client_outstanding,
            "batches_per_pool": config.total_batches,
            "request_timeout_ms": config.request_timeout_ms,
        })
    return rows

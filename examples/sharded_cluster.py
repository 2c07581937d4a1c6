#!/usr/bin/env python3
"""Multi-group sharding demo: three PoE shards, cross-shard 2PC, audited.

The keyspace is partitioned across three independent PoE consensus
groups (n=4 each), each on its own deterministic simulator, advanced in
lock-step windows.  A client pool drives a mixed YCSB workload that
really executes: most batches touch a single shard and ride that shard's
ordinary consensus path, while a tunable fraction span two shards and
run two-phase commit — the prepare and commit/abort records are
themselves consensus-committed inside every touched shard, a decide is
only accepted with f+1 matching attestations per shard (the guard that
holds the line against a Byzantine coordinator), and a committed
transaction's writes are applied to each touched shard's table only
then.

After the run, every shard's replicas must hold one table, and the
shard-aware safety auditor replays its independent observations: the
full single-group audit inside every shard, plus the cross-shard
invariants (no split commit/abort, certified decides, coordinator
journal consistency, per-shard reply quorums).

Run with::

    python examples/sharded_cluster.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fabric.audit import ShardedSafetyAuditor
from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig

NUM_SHARDS = 3
CROSS_FRACTION = 0.25


def main() -> None:
    config = ShardedClusterConfig(
        num_shards=NUM_SHARDS,
        protocols="poe-mac",
        num_replicas=4,
        batch_size=16,
        total_batches=40,
        cross_shard_fraction=CROSS_FRACTION,
        use_ycsb_payload=True,
        execute_operations=True,
        seed=7,
    )
    cluster = ShardedCluster(config)
    auditor = ShardedSafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done()

    print(f"{NUM_SHARDS} PoE shards (n=4 each), "
          f"{CROSS_FRACTION:.0%} cross-shard transactions")
    print("=" * 60)
    for shard, shard_cluster in enumerate(cluster.shard_clusters):
        heads = {replica.blockchain.head.sequence
                 for replica in shard_cluster.replicas}
        states = {replica.store.snapshot_digest()
                  for replica in shard_cluster.replicas}
        print(f"  shard {shard}: {config.protocol_for(shard):>8}  "
              f"ledger head sequence(s): {sorted(heads)}")
        print(f"  shard {shard}: distinct store states: {len(states)} "
              f"(expected 1)")
        assert len(states) == 1, f"shard {shard}'s replicas diverged"

    summary = cluster.result()
    single, cross = 0, 0
    for pool in cluster.pools:
        cross += len(pool.xshard_outcomes)
        single += len(pool.completions) - len(pool.xshard_outcomes)
    outcomes = {}
    for pool in cluster.pools:
        for txn, per_shard in pool.xshard_outcomes.items():
            outcome = set(per_shard.values())
            assert len(outcome) == 1, f"{txn} split across shards: {per_shard}"
            outcomes[txn] = outcome.pop()
    committed = sum(1 for outcome in outcomes.values() if outcome == "committed")

    print()
    print(f"completed batches:      {single + cross} "
          f"({single} single-shard, {cross} cross-shard)")
    print(f"cross-shard decisions:  {committed} committed, "
          f"{len(outcomes) - committed} aborted — uniform on every shard")
    print(f"coordinator journal:    {len(cluster.coordinator.journal)} "
          f"certified 2PC decisions")
    print(f"virtual duration:       {cluster.now:,.0f} ms "
          f"({summary.throughput_txn_per_s:,.0f} txn/s virtual)")

    print()
    report = auditor.report()
    print("shard-aware safety audit")
    print("-" * 60)
    print(report.summary())
    assert report.ok, "the audit must pass on a fault-free run"
    assert cross > 0, "the workload must exercise cross-shard 2PC"
    print()
    print("every shard kept a consistent prefix, and every cross-shard")
    print("transaction committed or aborted atomically across its shards")


if __name__ == "__main__":
    main()

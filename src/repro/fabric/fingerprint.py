"""Canonical state fingerprints for determinism tests and model checking.

Two kinds of fingerprint live here, both hashable and both independent of
wall-clock:

* :func:`run_fingerprint` — the *whole-run* fingerprint the determinism
  suite pins: every completion record (identity, timing, view, sequence),
  the processed-event count, the final virtual clock and the summary
  metrics.  Any divergence in scheduling order shows up as a mismatch.
  This used to live in ``bench/perf.py``; the perf harness now imports it
  from here so the determinism tests and the benchmark driver hash runs
  the same way.

* :func:`replica_fingerprint` / :func:`cluster_state_fingerprint` — the
  *per-state* fingerprint the bounded model checker
  (:mod:`repro.fabric.modelcheck`) uses for visited-state deduplication:
  per-replica consensus-visible state (view, executed prefix, checkpoint
  state, in-flight view-change state), per-pool completion state, and the
  label multiset of pending scheduler events.  Virtual timestamps are
  deliberately excluded — two states that differ only in the clock are
  the same state to the checker.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.fabric.cluster import Cluster, ClusterConfig


# ------------------------------------------------------------- whole-run
def completion_records(cluster: Cluster) -> Tuple[Tuple, ...]:
    """The canonical per-completion tuple stream of a finished run."""
    return tuple(
        (r.batch_id, r.num_txns, r.submitted_at_ms, r.completed_at_ms,
         r.view, r.sequence)
        for r in cluster.completions()
    )


def run_fingerprint(config: ClusterConfig,
                    max_ms: float = 300_000.0) -> Tuple[Tuple, ...]:
    """Run *config* once and return a hashable fingerprint of the outcome.

    The fingerprint covers every completion record (identity, timing, view
    and sequence), the event count and the final virtual clock, so any
    divergence in scheduling order shows up as a mismatch.
    """
    cluster = Cluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    records = completion_records(cluster)
    summary = cluster.result()
    return (
        records,
        cluster.simulator.processed_events,
        cluster.simulator.now,
        round(summary.throughput_txn_per_s, 9),
        round(summary.avg_latency_ms, 9),
    )


# ------------------------------------------------------------- per-state
def replica_fingerprint(replica) -> Tuple:
    """Consensus-visible state of one replica, as a hashable tuple.

    Covers exactly the state the safety invariants range over: the view,
    the executed prefix (ledger head hash commits to every executed
    batch), checkpoint stability, the rollback audit trail and the
    in-flight view-change bookkeeping of
    :class:`~repro.protocols.recovery.PrimaryBackupReplica`.  Per-slot vote
    tallies and message buffers are *not* included: two states that
    differ only in partially-collected votes behave identically for the
    invariants, and folding them in would defeat deduplication.
    """
    checkpoints = getattr(replica, "checkpoints", None)
    stable_sequence = checkpoints.stable_sequence if checkpoints else -1
    stable_digest = (checkpoints.stable_digests.get(stable_sequence, b"")
                     if checkpoints else b"")
    vc_votes = getattr(replica, "_vc_votes", {})
    committed = getattr(replica, "_committed", {})
    return (
        replica.node_id,
        bool(replica.crashed),
        replica.view,
        getattr(replica, "view_change_in_progress", False),
        getattr(replica, "next_sequence", 0),
        replica.last_executed_sequence,
        replica.blockchain.head.block_hash,
        stable_sequence,
        stable_digest,
        tuple(getattr(replica, "rollback_log", ())),
        getattr(replica, "view_changes_completed", 0),
        getattr(replica, "_vc_failed_attempts", 0),
        tuple(sorted(getattr(replica, "_entered_views", ()))),
        tuple(sorted((view, len(votes)) for view, votes in vc_votes.items())),
        tuple(sorted(committed)),
    )


def pool_fingerprint(pool) -> Tuple:
    """Completion-visible state of one client pool."""
    return (
        pool.node_id,
        pool.completed_batches,
        tuple(record.batch_id for record in pool.completions),
        pool.outstanding,
    )


def cluster_state_fingerprint(cluster: Cluster,
                              pending: Tuple = (),
                              digest: bool = True) -> object:
    """One hashable fingerprint of a whole cluster state.

    *pending* is the (sorted) label multiset of schedulable events — two
    states with identical node state but different undelivered messages
    are different states.  With ``digest=True`` (the default) the tuple is
    collapsed to a hex digest so the visited set stays compact;
    ``digest=False`` returns the raw tuple for debugging.
    """
    state = (
        tuple(replica_fingerprint(replica) for replica in cluster.replicas),
        tuple(pool_fingerprint(pool) for pool in cluster.pools),
        tuple(pending),
    )
    if not digest:
        return state
    return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()


__all__ = [
    "completion_records",
    "run_fingerprint",
    "replica_fingerprint",
    "pool_fingerprint",
    "cluster_state_fingerprint",
]

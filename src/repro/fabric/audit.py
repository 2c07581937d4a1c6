"""Cross-replica safety auditor for cluster runs.

The figure benchmarks measure throughput; nothing in them would notice if
two replicas silently executed *different* batches at the same consensus
slot.  The auditor closes that gap: attach it to a cluster before the run
starts, and after the run it checks the safety invariants the paper
claims for PoE (and that every baseline protocol is expected to uphold
within its own fault model):

* **Agreement** — no two honest, live replicas executed divergent batches
  at the same consensus slot, and no batch was executed at two different
  slots (final state, i.e. after any view-change rollback).
* **Inform quorum** — for every batch a client pool reported complete,
  the network really delivered the pool a quorum of *matching* replies
  from distinct transport-level senders (the auditor counts senders
  itself, so a client-side vote-counting bug cannot hide).
* **Checkpoint-bounded rollback** — no view-change rollback ever crossed
  a stable checkpoint (``rollback_log`` on the replicas).
* **Ledger integrity** — every honest replica's hash chain verifies and
  its executed prefix is consistent with its ledger head.

Replicas that are configured Byzantine or crashed at the end of the run
are excluded from cross-replica checks: the invariants only bind honest
participants.  :meth:`SafetyAuditor.check` raises on any violation;
:meth:`SafetyAuditor.report` returns the findings for tabular use by the
scenario matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.protocols.checkpoint import CheckpointMessage
from repro.protocols.client_messages import ClientReplyMessage
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.zyzzyva import ZyzzyvaClientPool, ZyzzyvaLocalCommit

# Bound at import time on purpose: the auditor's certificate re-validation
# must stay correct even if the replicas' runtime validator is broken or
# monkeypatched away (the revert-demo failure mode).
from repro.workload.xshard import (
    DECIDE_PHASES as _DECIDE_PHASES,
    control_batch_id as _control_batch_id,
    decide_record_valid as _decide_record_valid,
    make_control_batch as _make_control_batch,
)

# Same import-time binding for the epoch machinery: the auditor re-runs
# every admissibility and transition rule itself, so a deployment whose
# replicas activated an inadmissible epoch (because their runtime
# ``reconfig_record_valid`` was reverted or patched away) is still flagged.
from repro.protocols.epoch import (
    validate_epoch_log as _validate_epoch_log,
)


class SafetyViolation(AssertionError):
    """Raised by :meth:`SafetyAuditor.check` when an invariant fails."""


@dataclass(frozen=True)
class AuditViolation:
    """One observed violation of a safety invariant."""

    kind: str
    detail: str


@dataclass
class AuditReport:
    """Everything one audit pass established."""

    violations: List[AuditViolation] = field(default_factory=list)
    replicas_audited: int = 0
    slots_checked: int = 0
    completions_checked: int = 0
    rollbacks_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (f"audited {self.replicas_audited} replicas, "
                f"{self.slots_checked} slots, "
                f"{self.completions_checked} completions, "
                f"{self.rollbacks_checked} rollbacks")
        if self.ok:
            return f"SAFE ({head})"
        lines = [f"UNSAFE ({head}):"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


# --------------------------------------------------------- pure invariants
#
# The three replica-state invariants are pure functions over a list of
# honest replicas: no observer trace, no cluster object, no mutation.
# The post-run auditor calls them once at the end of a run; the bounded
# model checker (fabric/modelcheck.py) calls the same functions at every
# reachable state, so a divergence the checker flags is by construction
# the same finding the auditor would report.

def default_slot_key(block) -> int:
    """Consensus-visible slot of a ledger block (HotStuff uses rounds)."""
    return block.sequence


def hotstuff_slot_key(block) -> int:
    """HotStuff assigns execution sequence numbers locally; the
    consensus-visible slot is the committed round (stored as the block's
    view)."""
    return block.view


def slot_key_for(cluster) -> Callable[[object], int]:
    """The slot key *cluster*'s protocol agrees on (HotStuff: rounds)."""
    if issubclass(cluster.spec.replica_cls, HotStuffReplica):
        return hotstuff_slot_key
    return default_slot_key


def honest_live_replicas(cluster) -> List[object]:
    """The replicas the invariants judge: neither crashed nor Byzantine."""
    excluded = set(getattr(cluster, "byzantine_ids", ()))
    return [replica for replica in cluster.replicas
            if not replica.crashed and replica.node_id not in excluded]


def check_agreement(honest: List[object],
                    slot_key: Callable[[object], int] = default_slot_key,
                    ) -> Tuple[List[AuditViolation], int]:
    """No divergent batches per slot; no batch at two different slots.

    Returns ``(violations, slots_checked)``.
    """
    violations: List[AuditViolation] = []
    slots: Dict[int, Dict[bytes, List[str]]] = {}
    batch_slots: Dict[str, Dict[int, List[str]]] = {}
    for replica in honest:
        for block in replica.blockchain.blocks():
            if block.payload == "checkpoint-sync":
                continue
            slot = slot_key(block)
            slots.setdefault(slot, {}).setdefault(
                block.batch_digest, []).append(replica.node_id)
            if block.payload:
                batch_slots.setdefault(str(block.payload), {}).setdefault(
                    slot, []).append(replica.node_id)
    for slot in sorted(slots):
        by_digest = slots[slot]
        if len(by_digest) > 1:
            placement = "; ".join(
                f"{digest.hex()[:12]} on {sorted(replicas)}"
                for digest, replicas in sorted(by_digest.items())
            )
            violations.append(AuditViolation(
                kind="divergent-prefix",
                detail=f"slot {slot} executed divergently: {placement}",
            ))
    for batch_id, placements in sorted(batch_slots.items()):
        if len(placements) > 1:
            where = "; ".join(f"slot {slot} on {sorted(replicas)}"
                              for slot, replicas in sorted(placements.items()))
            violations.append(AuditViolation(
                kind="duplicate-execution",
                detail=f"batch {batch_id} executed at multiple slots: {where}",
            ))
    return violations, len(slots)


def check_ledgers(honest: List[object]) -> List[AuditViolation]:
    """Every honest chain verifies and its head matches the executed prefix."""
    violations: List[AuditViolation] = []
    for replica in honest:
        if not replica.blockchain.verify_chain():
            violations.append(AuditViolation(
                kind="broken-chain",
                detail=f"{replica.node_id}: ledger hash chain does not verify",
            ))
        head = replica.blockchain.head.sequence
        if head != replica.last_executed_sequence:
            violations.append(AuditViolation(
                kind="ledger-state-skew",
                detail=(f"{replica.node_id}: ledger head {head} != "
                        f"executed prefix {replica.last_executed_sequence}"),
            ))
    return violations


def check_rollbacks(honest: List[object]) -> Tuple[List[AuditViolation], int]:
    """No view-change rollback ever crossed a stable checkpoint.

    Returns ``(violations, rollbacks_checked)``.
    """
    violations: List[AuditViolation] = []
    checked = 0
    for replica in honest:
        for target, stable in getattr(replica, "rollback_log", ()):
            checked += 1
            if target < stable:
                violations.append(AuditViolation(
                    kind="rollback-past-checkpoint",
                    detail=(f"{replica.node_id}: rolled back to {target}, "
                            f"below stable checkpoint {stable}"),
                ))
    return violations, checked


def check_replica_state(honest: List[object],
                        slot_key: Callable[[object], int] = default_slot_key,
                        ) -> List[AuditViolation]:
    """All replica-state invariants in one pass (the model checker's view)."""
    violations, _ = check_agreement(honest, slot_key)
    violations.extend(check_ledgers(honest))
    rollback_violations, _ = check_rollbacks(honest)
    violations.extend(rollback_violations)
    return violations


class WireRecord:
    """Picklable wire observations: the auditors' only view of the wire.

    One recorder observes one network — a shard's, or a sharded
    deployment's hub — through :func:`attach_recorder`.  The recording logic
    lives here, not on the auditor, so a worker process can attach a bare
    recorder, ship it back with the run artifacts, and have the parent
    build the auditor around it: a live attach and a recorded run audit
    the exact same input.
    """

    def __init__(self, pool_ids: Iterable[str] = ()) -> None:
        self.pool_ids: Set[str] = set(pool_ids)
        #: (pool_id, batch_id) -> matching_key -> sender -> first delivery
        #: time.  Timestamped so the inform-quorum check can count the
        #: replies the pool had *when it completed* — late replies that
        #: keep trickling in after completion must not retroactively
        #: justify a completion the quorum rule did not cover.
        self.reply_votes: Dict[Tuple[str, str], Dict[tuple, Dict[str, float]]] = {}
        #: (pool_id, batch_id) -> distinct senders of local-commit acks.
        self.commit_acks: Dict[Tuple[str, str], Set[str]] = {}
        #: (sequence, state_digest) -> distinct transport-level senders of
        #: checkpoint votes, counted from the wire: the ground truth any
        #: installed state transfer must be vouched by.
        self.checkpoint_votes: Dict[Tuple[int, bytes], Set[str]] = {}

    def observe(self, sender: str, receiver: str, message, time_ms: float) -> None:
        if receiver not in self.pool_ids:
            if isinstance(message, CheckpointMessage):
                self.checkpoint_votes.setdefault(
                    (message.sequence, message.state_digest), set()).add(sender)
            return
        if isinstance(message, ClientReplyMessage):
            votes = self.reply_votes.setdefault((receiver, message.batch_id), {})
            votes.setdefault(message.matching_key(), {}).setdefault(
                sender, time_ms)
        elif isinstance(message, ZyzzyvaLocalCommit):
            self.commit_acks.setdefault(
                (receiver, message.batch_id), set()).add(sender)


def attach_recorder(network, pools: Iterable[object] = ()) -> WireRecord:
    """Start recording *network*'s deliveries (call before the run starts)."""
    wire = WireRecord(pool.node_id for pool in pools)
    network.add_observer(wire.observe)
    return wire


class SafetyAuditor:
    """Audits one cluster run from its final state and a :class:`WireRecord`.

    The recorder holds every client-bound reply the network delivered, so
    the inform-quorum check is grounded in what actually crossed the
    wire, not in client bookkeeping.  :meth:`attach` starts one on a live
    cluster (before ``cluster.start()``); a parallel worker records its
    own and ships it back, and *cluster* may then be any object exposing
    the same attributes (``replicas``, ``pools``, ``spec``,
    ``node_config``, ``byzantine_ids``).  Without a recorder only the
    replica-state invariants run.
    """

    def __init__(self, cluster, wire: Optional[WireRecord] = None) -> None:
        self.cluster = cluster
        self.wire = wire
        #: Per-pool completion rule captured at attach time (base quorum
        #: plus the per-epoch quorum function): the auditor re-derives
        #: per-epoch inform quorums itself, so reverting the pools'
        #: epoch awareness at runtime is still flagged.
        self._completion_rules: Dict[str, Tuple[int, object]] = {
            pool.node_id: (pool.completion_quorum,
                           getattr(pool, "completion_quorum_fn", None))
            for pool in cluster.pools}

    @classmethod
    def attach(cls, cluster) -> "SafetyAuditor":
        """Create an auditor recording *cluster* (call before ``start``)."""
        return cls(cluster, attach_recorder(cluster.network, cluster.pools))

    # ----------------------------------------------------------------- audit
    def report(self) -> AuditReport:
        """Run every invariant check and return the findings."""
        report = AuditReport()
        honest = honest_live_replicas(self.cluster)
        report.replicas_audited = len(honest)
        self._check_agreement(honest, report)
        self._check_ledgers(honest, report)
        self._check_rollbacks(honest, report)
        self._check_epochs(honest, report)
        if self.wire is not None:
            self._check_inform_quorum(report)
            self._check_state_transfers(honest, report)
        return report

    def check(self) -> AuditReport:
        """Like :meth:`report`, but raise :class:`SafetyViolation` on failure."""
        report = self.report()
        if not report.ok:
            raise SafetyViolation(report.summary())
        return report

    # -------------------------------------------------------------- invariants
    def _check_agreement(self, honest: List[object], report: AuditReport) -> None:
        """No divergent batches per slot; no batch at two different slots."""
        violations, slots_checked = check_agreement(honest, slot_key_for(self.cluster))
        report.slots_checked = slots_checked
        report.violations.extend(violations)

    def _check_ledgers(self, honest: List[object], report: AuditReport) -> None:
        report.violations.extend(check_ledgers(honest))

    def _check_rollbacks(self, honest: List[object], report: AuditReport) -> None:
        violations, checked = check_rollbacks(honest)
        report.rollbacks_checked += checked
        report.violations.extend(violations)

    def _check_epochs(self, honest: List[object], report: AuditReport) -> None:
        """Epoch-log validity, prefix agreement and quorum-at-the-time.

        Three invariants, all re-derived by the auditor itself:

        * every honest replica's epoch log re-validates from genesis with
          the auditor's *own* (import-time-bound) transition rules — a
          replica that activated an inadmissible membership change is
          flagged even if its runtime admissibility check was reverted;
        * honest replicas agree on every epoch they share: same members,
          same activation boundary (epochs are consensus-committed, so a
          divergent epoch log is a divergent prefix);
        * **quorum at the time**: every stable checkpoint boundary was
          certified on the wire by ``2 f_e + 1`` distinct senders that
          were *members of the epoch governing that boundary* — an
          evicted replica's vote must never be what pushed a later
          boundary to stability.
        """
        config = self.cluster.node_config
        if not getattr(config, "reconfigured", False):
            return
        epoch_views: Dict[int, Dict[Tuple[int, Tuple[str, ...]], List[str]]] = {}
        for replica in honest:
            log = list(getattr(replica, "epoch_log", ()))
            for problem in _validate_epoch_log(log):
                report.violations.append(AuditViolation(
                    kind="invalid-epoch",
                    detail=f"{replica.node_id}: {problem}",
                ))
            for entry in log:
                epoch_views.setdefault(entry.epoch, {}).setdefault(
                    (entry.activation_sequence, tuple(entry.members)),
                    []).append(replica.node_id)
        for epoch in sorted(epoch_views):
            variants = epoch_views[epoch]
            if len(variants) > 1:
                placement = "; ".join(
                    f"activation {activation} members {list(members)} on "
                    f"{sorted(replicas)}"
                    for (activation, members), replicas in sorted(variants.items()))
                report.violations.append(AuditViolation(
                    kind="epoch-divergence",
                    detail=f"epoch {epoch} diverges: {placement}",
                ))
        if self.wire is None:
            return
        checked: Set[Tuple[int, bytes]] = set()
        for replica in honest:
            stable_digests = dict(getattr(replica.checkpoints, "stable_digests", {}))
            for sequence, state_digest in sorted(stable_digests.items()):
                key = (sequence, state_digest)
                if key in checked:
                    continue
                checked.add(key)
                epoch = config.epoch_of_sequence(sequence)
                members = set(config.membership(epoch))
                quorum = config.quorum_of(epoch)
                senders = self.wire.checkpoint_votes.get(key, set())
                eligible = senders & members
                if len(eligible) < quorum:
                    report.violations.append(AuditViolation(
                        kind="epoch-quorum",
                        detail=(f"checkpoint {sequence} (epoch {epoch}) is "
                                f"stable on {replica.node_id} but only "
                                f"{len(eligible)} of its wire votes came from "
                                f"epoch-{epoch} members (need {quorum}; "
                                f"{len(senders - members)} votes were from "
                                f"non-members)"),
                    ))

    def _check_state_transfers(self, honest: List[object],
                               report: AuditReport) -> None:
        """Every installed state transfer must be vouched by f+1 voters.

        A checkpoint-sync block records the state digest a replica adopted
        without executing the underlying slots.  The digest must have been
        vouched on the wire by at least ``f + 1`` distinct checkpoint
        senders — one of them necessarily honest — or the replica
        installed state the system never reached (a lying checkpointer's
        fabricated transfer).  After a reconfiguration, ``f`` is the
        fault bound of the epoch governing the transferred boundary.
        """
        config = self.cluster.node_config
        for replica in honest:
            for block in replica.blockchain.blocks():
                if block.payload != "checkpoint-sync":
                    continue
                f = (config.f_of(config.epoch_of_sequence(block.sequence))
                     if config.reconfigured else config.f)
                voters = self.wire.checkpoint_votes.get(
                    (block.sequence, block.batch_digest), set())
                if len(voters) < f + 1:
                    report.violations.append(AuditViolation(
                        kind="unvouched-state-transfer",
                        detail=(f"{replica.node_id}: installed checkpoint "
                                f"{block.sequence} whose state digest only "
                                f"{len(voters)} checkpoint senders vouched "
                                f"for (need f+1 = {f + 1})"),
                    ))

    def _check_inform_quorum(self, report: AuditReport) -> None:
        config = self.cluster.node_config
        reconfigured = getattr(config, "reconfigured", False)
        for pool in self.cluster.pools:
            base_quorum, quorum_fn = self._completion_rules.get(
                pool.node_id, (pool.completion_quorum, None))

            def quorum_for(sequence: int) -> int:
                if not reconfigured or quorum_fn is None:
                    return base_quorum
                return quorum_fn(config.epoch_of_sequence(sequence))

            fallback_fn = None
            if isinstance(pool, ZyzzyvaClientPool):
                # Zyzzyva's slow path completes with 2f+1 matching replies
                # plus 2f+1 local-commit acknowledgements (per the epoch
                # governing the certified slot).
                fallback_fn = pool._slot_quorum
            for record in pool.completions:
                report.completions_checked += 1
                votes = self.wire.reply_votes.get((pool.node_id, record.batch_id), {})
                # Matching keys are (batch_id, view, sequence, digest):
                # after a reconfiguration the required quorum depends on
                # the epoch the replied sequence belongs to.
                best, needed, satisfied = 0, base_quorum, False
                for key, senders in votes.items():
                    count = sum(1 for at_ms in senders.values()
                                if at_ms <= record.completed_at_ms)
                    quorum = quorum_for(key[2])
                    if count >= quorum:
                        satisfied = True
                        break
                    if count > best:
                        best, needed = count, quorum
                if satisfied:
                    continue
                acks = self.wire.commit_acks.get((pool.node_id, record.batch_id), set())
                if fallback_fn is not None:
                    fallback_quorum = fallback_fn(record.sequence)
                    if best >= fallback_quorum and len(acks) >= fallback_quorum:
                        continue
                report.violations.append(AuditViolation(
                    kind="inform-quorum",
                    detail=(f"{pool.node_id}: batch {record.batch_id} completed "
                            f"with only {best} matching replies from distinct "
                            f"senders (quorum {needed})"),
                ))


def audit_cluster(cluster) -> AuditReport:
    """One-shot audit of an already-finished run.

    Without a recorder attached before the run the inform-quorum check
    has no reply trace to ground itself in, so this convenience wrapper
    only runs the replica-state invariants.
    """
    return SafetyAuditor(cluster).report()


#: Within one shard, every honest replica's 2PC status for a transaction
#: lies on a single trajectory (None -> prepared -> committed/aborted, or
#: None -> refused -> aborted); a lagging replica sits earlier on the same
#: chain.  These pairs can never coexist among honest shard members.
_CONFLICTING_STATUS = (("committed", "aborted"), ("committed", "refused"))


class ShardedSafetyAuditor:
    """Audits a :class:`~repro.fabric.sharding.ShardedCluster` run.

    Wraps one :class:`SafetyAuditor` per shard (prefix agreement, ledger
    integrity, rollback and state-transfer checks all still apply inside
    every consensus group) and adds the cross-shard atomicity invariants:

    * **No split decision** — no shard's honest replicas executed the
      commit record of a transaction that any sibling shard's honest
      replicas aborted (or refused to prepare).
    * **Decided everywhere** — every cross-shard transaction a client pool
      reported complete reached the *same* terminal outcome in every
      touched shard, both in the pool's reply-quorum observations and in
      the replicas' journals.
    * **Certified decides only** — every decide record any honest replica
      accepted carries a certificate the auditor can independently
      re-validate against the shard layout
      (:func:`~repro.workload.xshard.decide_record_valid`).  This is the
      check that catches a removed/broken coordinator-equivocation fix
      even before a split decision materialises.
    * **Decide quorum** — for every completed cross-shard transaction the
      network really delivered the pool a quorum of matching decide
      replies from each touched shard's members — counted on the wire,
      and only those delivered by the time the pool completed.

    The coordinator's journal is cross-checked too, unless the coordinator
    itself is configured Byzantine (its journal is then meaningless).
    """

    def __init__(self, cluster,
                 shard_wires: Optional[List[WireRecord]] = None,
                 hub_wire: Optional[WireRecord] = None) -> None:
        self.cluster = cluster
        self._shard_auditors = [
            SafetyAuditor(shard_cluster, shard_wires[index] if shard_wires else None)
            for index, shard_cluster in enumerate(cluster.shard_clusters)]
        #: The hub network's recorder: the replies delivered to the pools.
        self.hub_wire = hub_wire
        self._shard_of: Dict[str, int] = {}
        for index, members in enumerate(cluster.layout.members):
            for rid in members:
                self._shard_of[rid] = index

    @classmethod
    def attach(cls, cluster) -> "ShardedSafetyAuditor":
        """Create an auditor recording *cluster* (call before ``start``)."""
        return cls(cluster,
                   [attach_recorder(shard_cluster.network)
                    for shard_cluster in cluster.shard_clusters],
                   attach_recorder(cluster.hub, cluster.pools))

    @classmethod
    def from_recorded(cls, run) -> "ShardedSafetyAuditor":
        """Audit a finished run from worker-collected artifacts.

        *run* duck-types a finished :class:`ShardedCluster` (notably
        ``shard_clusters`` built from shipped replica objects, ``pools``,
        ``coordinator``, ``layout``, ``byzantine_ids``) and additionally
        carries the wire recorders every worker attached during the run
        (``shard_wires``, ``hub_wire``) — the parallel driver's
        :class:`~repro.fabric.parallel.ParallelShardedRun`.  The exact
        same invariants run over the exact same ground truth as a live
        attach.
        """
        return cls(run, list(run.shard_wires), run.hub_wire)

    # ----------------------------------------------------------------- audit
    def _honest_managers(self) -> List[List[Tuple[str, object]]]:
        excluded = set(self.cluster.byzantine_ids)
        managers: List[List[Tuple[str, object]]] = []
        for shard_cluster in self.cluster.shard_clusters:
            managers.append([
                (replica.node_id, replica.control_layer)
                for replica in shard_cluster.replicas
                if (not replica.crashed and replica.node_id not in excluded
                    and replica.control_layer is not None)])
        return managers

    def report(self) -> AuditReport:
        """Run per-shard and cross-shard invariant checks."""
        report = AuditReport()
        for shard, auditor in enumerate(self._shard_auditors):
            sub = auditor.report()
            report.replicas_audited += sub.replicas_audited
            report.slots_checked += sub.slots_checked
            report.rollbacks_checked += sub.rollbacks_checked
            for violation in sub.violations:
                report.violations.append(AuditViolation(
                    kind=violation.kind, detail=f"s{shard}: {violation.detail}"))
        managers = self._honest_managers()
        statuses = self._consolidated_statuses(managers, report)
        self._check_split_decisions(statuses, report)
        self._check_decide_certificates(managers, report)
        self._check_pool_atomicity(statuses, report)
        self._check_coordinator_journal(report)
        if self.hub_wire is not None:
            self._check_reply_quorums(report)
        return report

    def check(self) -> AuditReport:
        """Like :meth:`report`, but raise :class:`SafetyViolation` on failure."""
        report = self.report()
        if not report.ok:
            raise SafetyViolation(report.summary())
        return report

    # -------------------------------------------------------------- invariants
    def _consolidated_statuses(
            self, managers: List[List[Tuple[str, object]]],
            report: AuditReport) -> List[Dict[str, str]]:
        """Per shard: txn -> most advanced honest status, flagging conflicts."""
        consolidated: List[Dict[str, str]] = []
        for shard, rows in enumerate(managers):
            by_txn: Dict[str, Dict[str, List[str]]] = {}
            for replica_id, manager in rows:
                for txn, status in manager.status.items():
                    by_txn.setdefault(txn, {}).setdefault(status, []).append(replica_id)
            summary: Dict[str, str] = {}
            for txn, placements in by_txn.items():
                for first, second in _CONFLICTING_STATUS:
                    if first in placements and second in placements:
                        report.violations.append(AuditViolation(
                            kind="intra-shard-divergence",
                            detail=(f"s{shard}: txn {txn} is {first} on "
                                    f"{sorted(placements[first])} but {second} "
                                    f"on {sorted(placements[second])}"),
                        ))
                for status in ("committed", "aborted", "prepared", "refused"):
                    if status in placements:
                        summary[txn] = status
                        break
            consolidated.append(summary)
        return consolidated

    def _check_split_decisions(self, statuses: List[Dict[str, str]],
                               report: AuditReport) -> None:
        """No txn may commit in one shard and abort/refuse in another."""
        committed: Dict[str, List[int]] = {}
        aborted: Dict[str, List[int]] = {}
        for shard, summary in enumerate(statuses):
            for txn, status in summary.items():
                if status == "committed":
                    committed.setdefault(txn, []).append(shard)
                elif status in ("aborted", "refused"):
                    aborted.setdefault(txn, []).append(shard)
        for txn in sorted(set(committed) & set(aborted)):
            report.violations.append(AuditViolation(
                kind="cross-shard-atomicity",
                detail=(f"txn {txn} committed in shards {committed[txn]} "
                        f"but aborted/refused in shards {aborted[txn]}"),
            ))

    def _check_decide_certificates(
            self, managers: List[List[Tuple[str, object]]],
            report: AuditReport) -> None:
        """Re-validate every accepted decide certificate independently."""
        layout = self.cluster.layout
        for shard, rows in enumerate(managers):
            for replica_id, manager in rows:
                for txn, (phase, shards, cert) in sorted(
                        manager.accepted_decides.items()):
                    probe = _make_control_batch(txn, phase, shard, shards, cert=cert)
                    if not _decide_record_valid(probe, layout):
                        report.violations.append(AuditViolation(
                            kind="forged-decide",
                            detail=(f"{replica_id}: accepted {phase} record for "
                                    f"txn {txn} whose certificate does not "
                                    f"validate against the shard layout"),
                        ))

    def _check_pool_atomicity(self, statuses: List[Dict[str, str]],
                              report: AuditReport) -> None:
        """Every completed cross-shard txn decided identically everywhere."""
        for pool in self.cluster.pools:
            for txn, outcomes in sorted(pool.xshard_outcomes.items()):
                plan = pool.xshard_plans.get(txn)
                shards = plan.shards if plan is not None else tuple(sorted(outcomes))
                observed = {outcomes.get(shard) for shard in shards}
                if len(observed) != 1 or None in observed:
                    report.violations.append(AuditViolation(
                        kind="cross-shard-atomicity",
                        detail=(f"{pool.node_id}: txn {txn} completed with "
                                f"non-uniform outcomes {sorted(outcomes.items())}"),
                    ))
                    continue
                decided = next(iter(observed))
                for shard in shards:
                    status = statuses[shard].get(txn)
                    if status is not None and status != decided:
                        report.violations.append(AuditViolation(
                            kind="cross-shard-atomicity",
                            detail=(f"txn {txn}: pool {pool.node_id} observed "
                                    f"{decided} on shard {shard} but the "
                                    f"shard's honest replicas record {status}"),
                        ))

    def _check_coordinator_journal(self, report: AuditReport) -> None:
        """An honest coordinator's journalled decisions must be certified."""
        coordinator = self.cluster.coordinator
        if coordinator.node_id in self.cluster.byzantine_ids:
            return
        layout = self.cluster.layout
        for txn, entry in sorted(coordinator.journal.items()):
            shards = tuple(entry["shards"])  # type: ignore[arg-type]
            probe = _make_control_batch(
                txn, str(entry["decision"]), shards[0], shards,
                cert=tuple(entry["cert"]))  # type: ignore[arg-type]
            if not _decide_record_valid(probe, layout):
                report.violations.append(AuditViolation(
                    kind="coordinator-journal",
                    detail=(f"coordinator decided {entry['decision']} for txn "
                            f"{txn} without a validating certificate"),
                ))

    def _check_reply_quorums(self, report: AuditReport) -> None:
        """Ground every completion in wire-delivered reply quorums.

        Like the single-group inform-quorum check, only replies delivered
        by ``completed_at_ms`` count: replies that keep trickling in after
        a completion must not retroactively justify it.
        """
        layout = self.cluster.layout
        for pool in self.cluster.pools:
            for record in pool.completions:
                report.completions_checked += 1
                plan = pool.xshard_plans.get(record.batch_id)
                if plan is None:
                    votes = self.hub_wire.reply_votes.get(
                        (pool.node_id, record.batch_id), {})
                    if not any(count >= layout.reply_quorum(shard)
                               for senders in votes.values()
                               for shard, count in self._timely(senders, record).items()):
                        report.violations.append(AuditViolation(
                            kind="inform-quorum",
                            detail=(f"{pool.node_id}: batch {record.batch_id} "
                                    f"completed without a delivered reply "
                                    f"quorum from any shard"),
                        ))
                    continue
                for shard in plan.shards:
                    if self._shard_decide_quorate(pool.node_id, plan.txn,
                                                  shard, record):
                        continue
                    report.violations.append(AuditViolation(
                        kind="inform-quorum",
                        detail=(f"{pool.node_id}: cross-shard txn {plan.txn} "
                                f"completed without a delivered decide-reply "
                                f"quorum from shard {shard}"),
                    ))

    def _shard_decide_quorate(self, pool_id: str, txn: str, shard: int,
                              record) -> bool:
        quorum = self.cluster.layout.reply_quorum(shard)
        for phase in _DECIDE_PHASES:
            votes = self.hub_wire.reply_votes.get(
                (pool_id, _control_batch_id(txn, phase, shard)), {})
            for senders in votes.values():
                if self._timely(senders, record).get(shard, 0) >= quorum:
                    return True
        return False

    def _timely(self, senders: Dict[str, float], record) -> Dict[int, int]:
        """Per shard, how many of its members' matching replies had reached
        the pool when it completed *record*."""
        counts: Dict[int, int] = {}
        for sender, at_ms in senders.items():
            shard = self._shard_of.get(sender)
            if shard is not None and at_ms <= record.completed_at_ms:
                counts[shard] = counts.get(shard, 0) + 1
        return counts


def audit_sharded_cluster(cluster) -> AuditReport:
    """One-shot replica-state audit of a finished sharded run (no wire trace)."""
    return ShardedSafetyAuditor(cluster).report()

"""Tests for PoE's view-change: detection, new-view selection, rollback, recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replica import PoeReplica
from repro.core.view_change import (
    longest_consecutive_prefix,
    proposal_digest,
    validate_view_change_request,
)
from repro.crypto.authenticator import SchemeKind, make_authenticators
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.net.faults import FaultSchedule
from repro.protocols.base import NodeConfig
from repro.protocols.checkpoint import CheckpointMessage
from repro.protocols.recovery import LogEntry, NewView, ViewChangeRequest
from repro.workload.transactions import make_no_op_batch

REPLICAS = [f"replica:{i}" for i in range(4)]


def make_entry(auths, sequence, view=0, label=None):
    batch = make_no_op_batch(label or f"batch-{sequence}", "client:0", 2)
    digest_h = proposal_digest(sequence, view, batch.digest())
    shares = [auths[rid].threshold.sign_share(auths[rid].threshold_index, digest_h)
              for rid in REPLICAS[:3]]
    certificate = auths[REPLICAS[0]].threshold.aggregate(shares)
    return LogEntry(sequence=sequence, view=view, digest=digest_h,
                    batch=batch, proof=certificate)


@pytest.fixture(scope="module")
def auths():
    return make_authenticators(REPLICAS, ["client:0"], seed=b"view-change-tests")


class TestViewChangeRequestValidation:
    def test_valid_request_accepted(self, auths):
        entries = tuple(make_entry(auths, seq) for seq in range(3))
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=entries)
        assert validate_view_change_request(request, auths["replica:0"], 0)

    def test_wrong_view_rejected(self, auths):
        request = ViewChangeRequest(view=2, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=())
        assert not validate_view_change_request(request, auths["replica:0"], 0)

    def test_non_consecutive_entries_rejected(self, auths):
        entries = (make_entry(auths, 0), make_entry(auths, 2))
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=entries)
        assert not validate_view_change_request(request, auths["replica:0"], 0)

    def test_entries_must_start_after_checkpoint(self, auths):
        entries = (make_entry(auths, 5),)
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=3, executed=entries)
        assert not validate_view_change_request(request, auths["replica:0"], 0)

    def test_forged_certificate_rejected(self, auths):
        good = make_entry(auths, 0)
        other = make_entry(auths, 0, label="other-batch")
        forged = LogEntry(sequence=0, view=0,
                          digest=good.digest,
                          batch=good.batch, proof=other.proof)
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=(forged,))
        assert not validate_view_change_request(request, auths["replica:0"], 0)

    def test_certificate_stripped_entry_rejected_in_threshold_mode(self, auths):
        """Regression: threshold-mode validation used to *skip* entries whose
        certificate was ``None`` instead of rejecting them, so a Byzantine
        replica could strip the certificates off fabricated entries and
        have a forged history admitted into new-view selection."""
        good = make_entry(auths, 0)
        stripped = LogEntry(sequence=0, view=0,
                            digest=good.digest,
                            batch=good.batch, proof=None)
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=(stripped,))
        assert not validate_view_change_request(request, auths["replica:0"], 0,
                                                verify_certificates=True)

    def test_certificate_check_can_be_skipped_for_mac_mode(self, auths):
        good = make_entry(auths, 0)
        forged = LogEntry(sequence=0, view=0,
                          digest=good.digest,
                          batch=good.batch, proof=None)
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=(forged,))
        assert validate_view_change_request(request, auths["replica:0"], 0,
                                            verify_certificates=False)


class TestNewViewSelection:
    def test_longest_prefix_from_single_request(self, auths):
        entries = tuple(make_entry(auths, seq) for seq in range(3))
        request = ViewChangeRequest(view=0, replica_id="r", stable_checkpoint=-1,
                                    executed=entries)
        prefix, kmax = longest_consecutive_prefix([request])
        assert kmax == 2
        assert sorted(prefix) == [0, 1, 2]

    def test_union_extends_shorter_requests(self, auths):
        short = ViewChangeRequest(
            view=0, replica_id="a", stable_checkpoint=-1,
            executed=tuple(make_entry(auths, seq) for seq in range(2)))
        long = ViewChangeRequest(
            view=0, replica_id="b", stable_checkpoint=-1,
            executed=tuple(make_entry(auths, seq) for seq in range(4)))
        prefix, kmax = longest_consecutive_prefix([short, long])
        assert kmax == 3
        assert sorted(prefix) == [0, 1, 2, 3]

    def test_empty_requests_yield_checkpoint(self, auths):
        request = ViewChangeRequest(view=0, replica_id="a", stable_checkpoint=7,
                                    executed=())
        prefix, kmax = longest_consecutive_prefix([request])
        assert prefix == {}
        assert kmax == 7

    def test_kmax_is_anchored_at_the_highest_stable_checkpoint(self, auths):
        """Regression: a VC-REQUEST reporting stable_checkpoint=10 with no
        entries must anchor kmax at 10 even when another request carries
        executed entries 0..3 — otherwise the new view would start (and
        roll replicas back) below a stable checkpoint."""
        with_entries = ViewChangeRequest(
            view=0, replica_id="a", stable_checkpoint=-1,
            executed=tuple(make_entry(auths, seq) for seq in range(4)))
        checkpointed = ViewChangeRequest(view=0, replica_id="b",
                                         stable_checkpoint=10, executed=())
        prefix, kmax = longest_consecutive_prefix([with_entries, checkpointed])
        assert kmax == 10
        # The durable-but-reported entries stay available for lagging
        # replicas; they just cannot pull kmax below the checkpoint.
        assert sorted(prefix) == [0, 1, 2, 3]

    def test_certified_entries_above_the_checkpoint_survive(self, auths):
        """Entries beyond the anchor must extend kmax, not be discarded: a
        request completed by nf replicas after the checkpoint would
        otherwise vanish from the new view (Proposition 5)."""
        lagging = ViewChangeRequest(
            view=0, replica_id="a", stable_checkpoint=-1,
            executed=tuple(make_entry(auths, seq) for seq in range(4)))
        ahead = tuple(make_entry(auths, seq) for seq in (11, 12))
        checkpointed = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=10, executed=ahead)
            for i in (1, 2)
        )
        prefix, kmax = longest_consecutive_prefix([lagging, *checkpointed])
        assert kmax == 12
        assert prefix[11].batch.batch_id == ahead[0].batch.batch_id
        assert prefix[12].batch.batch_id == ahead[1].batch.batch_id

    def test_checkpoint_anchor_does_not_shrink_longer_prefixes(self, auths):
        """Entries reaching beyond every stable checkpoint stay adopted."""
        with_entries = ViewChangeRequest(
            view=0, replica_id="a", stable_checkpoint=-1,
            executed=tuple(make_entry(auths, seq) for seq in range(6)))
        checkpointed = ViewChangeRequest(view=0, replica_id="b",
                                         stable_checkpoint=2, executed=())
        prefix, kmax = longest_consecutive_prefix([with_entries, checkpointed])
        assert kmax == 5
        assert sorted(prefix) == [0, 1, 2, 3, 4, 5]

    def test_new_view_never_rolls_back_below_a_stable_checkpoint(self, auths):
        """End-to-end variant: a replica that executed past everyone's
        entries must roll back to the checkpoint anchor, not below it."""
        replica = TestRollback()._replica(auths)
        entries = [make_entry(auths, seq) for seq in range(12)]
        for entry in entries:
            replica.commit_slot(entry.sequence, 0, entry.batch,
                                proof=entry.proof, now_ms=1.0,
                                speculative=True)
            replica._log[entry.sequence] = entry
        assert replica.last_executed_sequence == 11
        requests = (
            ViewChangeRequest(view=0, replica_id="replica:0",
                              stable_checkpoint=9, executed=()),
            ViewChangeRequest(view=0, replica_id="replica:1",
                              stable_checkpoint=-1,
                              executed=tuple(entries[:2])),
            ViewChangeRequest(view=0, replica_id="replica:2",
                              stable_checkpoint=-1,
                              executed=tuple(entries[:2])),
        )
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        # Anchored at checkpoint 9: rolled back 11 -> 9, never to 1.
        assert replica.last_executed_sequence == 9
        assert replica.rollback_log == [(9, -1)]

    def test_adoption_never_rolls_back_below_the_local_stable_checkpoint(self, auths):
        """Regression: ``kmax`` is anchored at the *requests'* checkpoints,
        so when this replica's own stable checkpoint is above all of them
        the rollback target used to land under it — where the undo logs
        are already pruned, so the ledger was truncated over a store that
        could no longer be reverted."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            execute_operations=True, checkpoint_interval=5)
        replica = PoeReplica("replica:3", config, auths["replica:3"],
                             scheme=SchemeKind.THRESHOLD)
        entries = [make_entry(auths, seq) for seq in range(12)]
        for entry in entries:
            replica.commit_slot(entry.sequence, 0, entry.batch, proof=entry.proof,
                                now_ms=1.0, speculative=True)
            replica._log[entry.sequence] = entry
        for voter in ("replica:0", "replica:1", "replica:2"):
            replica.deliver(voter, CheckpointMessage(
                sequence=9, state_digest=replica._own_digest_at(9),
                replica_id=voter), 2.0)
        assert replica.checkpoints.stable_sequence == 9
        assert not replica.executor.executed(9).undo  # pruned: irreversible
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=tuple(entries[:2]))
            for i in range(3)
        )
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.view == 1
        assert replica.rollback_log == [(9, 9)]
        assert all(target >= stable for target, stable in replica.rollback_log)
        assert replica.last_executed_sequence == 9
        assert replica.blockchain.head.sequence == 9

    def test_client_completed_request_always_survives(self, auths):
        """Proposition 5: a request executed by nf replicas appears in any
        nf-sized set of view-change requests, so it is never lost."""
        executed_entries = tuple(make_entry(auths, seq) for seq in range(2))
        requests = [
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=executed_entries)
            for i in range(3)  # nf = 3 replicas executed and reported it
        ]
        prefix, kmax = longest_consecutive_prefix(requests)
        assert kmax == 1
        assert prefix[1].batch.batch_id == executed_entries[1].batch.batch_id


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=4))
def test_longest_prefix_property(lengths):
    """Property: kmax equals the longest executed prefix over all requests,
    and the prefix contains exactly the sequences 0..kmax."""
    auths = make_authenticators(REPLICAS, seed=b"prefix-prop")
    requests = []
    for i, length in enumerate(lengths):
        entries = tuple(make_entry(auths, seq) for seq in range(length))
        requests.append(ViewChangeRequest(view=0, replica_id=f"r{i}",
                                          stable_checkpoint=-1,
                                          executed=entries))
    prefix, kmax = longest_consecutive_prefix(requests)
    assert kmax == max(lengths) - 1
    assert sorted(prefix) == list(range(max(lengths)))


class TestRollback:
    def _replica(self, auths, rid="replica:3"):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            execute_operations=True)
        return PoeReplica(rid, config, auths[rid], scheme=SchemeKind.THRESHOLD)

    def test_new_view_rolls_back_uncovered_speculation(self, auths):
        """Speculatively executed batches beyond the adopted prefix are reverted."""
        replica = self._replica(auths)
        entries = [make_entry(auths, seq) for seq in range(3)]
        for entry in entries:
            replica.commit_slot(entry.sequence, 0, entry.batch,
                                proof=entry.proof, now_ms=1.0, speculative=True)
            replica._log[entry.sequence] = entry
        assert replica.executed_batches == 3
        # The new view only covers sequences 0 and 1.
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1,
                              executed=tuple(entries[:2]))
            for i in range(3)
        )
        new_view = NewView(new_view=1, requests=requests)
        replica.deliver("replica:1", new_view, 10.0)
        assert replica.view == 1
        assert replica.last_executed_sequence == 1
        assert replica.rolled_back_batches == 1
        assert replica.blockchain.head.sequence == 1

    def test_new_view_fills_in_missed_executions(self, auths):
        """A replica that missed slots executes them from the NV-PROPOSE."""
        replica = self._replica(auths)
        entries = [make_entry(auths, seq) for seq in range(3)]
        replica.commit_slot(0, 0, entries[0].batch, proof=entries[0].proof,
                            now_ms=1.0, speculative=True)
        assert replica.executed_batches == 1
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=tuple(entries))
            for i in range(3)
        )
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.last_executed_sequence == 2
        assert replica.executed_batches == 3

    def test_new_view_from_wrong_sender_ignored(self, auths):
        replica = self._replica(auths)
        new_view = NewView(new_view=1, requests=())
        replica.deliver("replica:2", new_view, 1.0)  # primary of view 1 is replica:1
        assert replica.view == 0

    def test_stale_pending_slot_does_not_execute_behind_adopted_prefix(self, auths):
        """Regression: a view-committed-but-unexecuted slot from the old
        view (e.g. selectively certified by a Byzantine primary) must be
        evicted before the adopted prefix executes, or in-order execution
        drains it right behind the prefix and the replica diverges."""
        replica = self._replica(auths)
        entries = [make_entry(auths, seq) for seq in range(2)]
        stale = make_entry(auths, 1, label="stale-view0-batch")
        # Slot 1 view-committed in view 0 but stuck behind the gap at 0.
        replica.commit_slot(stale.sequence, 0, stale.batch,
                            proof=stale.proof, now_ms=1.0, speculative=True)
        assert replica.last_executed_sequence == -1
        # The new view adopts a different slot-1 batch.
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=tuple(entries))
            for i in range(3)
        )
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.last_executed_sequence == 1
        block = replica.blockchain.block_at(1)
        assert block.payload == entries[1].batch.batch_id
        assert block.payload != stale.batch.batch_id


class TestViewChangeBackoff:
    def _replica(self, auths):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            request_timeout_ms=100.0, execute_operations=True)
        return PoeReplica("replica:3", config, auths["replica:3"],
                          scheme=SchemeKind.THRESHOLD)

    def _vc_timer_delay(self, output):
        timers = [t for t in output.timers() if t.name == "view-change"]
        assert len(timers) == 1
        return timers[0].delay_ms

    def test_retry_timer_doubles_per_failed_view_and_caps(self, auths):
        """Regression: the comment always promised exponential back-off but
        every retry used to re-arm at a flat ``request_timeout_ms * 2``."""
        replica = self._replica(auths)
        # Sustained grounds for suspicion: a forwarded request the primary
        # never serves.  Without grounds a retry stands down instead of
        # escalating (see test_retry_stands_down_once_nothing_is_suspected).
        replica.start_progress_timer("client:0:batch:0", 0.0)
        replica.initiate_view_change(0.0)
        delays = [self._vc_timer_delay(replica._collect())]
        for _ in range(8):
            # The timer fires without the view change completing: the next
            # primary was faulty too.
            output = replica.timer_fired("view-change", replica.view + 1, 0.0)
            delays.append(self._vc_timer_delay(output))
        base = 100.0 * 2
        expected = [base * (2 ** min(i, PoeReplica.VC_BACKOFF_CAP))
                    for i in range(len(delays))]
        assert delays == expected
        assert delays[-1] == delays[-2] == base * 2 ** PoeReplica.VC_BACKOFF_CAP

    def test_retry_stands_down_once_nothing_is_suspected(self, auths):
        """A lone suspecter whose grievances have all been served must
        abort its view change at the retry instead of escalating: nobody
        else will ever join, and unilateral view advances wedge the
        replica out of the quorum's view."""
        replica = self._replica(auths)
        replica.start_progress_timer("client:0:batch:0", 0.0)
        replica.initiate_view_change(0.0)
        replica._collect()
        view_before = replica.view
        # The batch is served (learned executed) before the retry fires.
        replica._batch_sequence["client:0:batch:0"] = (0, 1.0)
        replica.stop_progress_timer("client:0:batch:0")
        output = replica.timer_fired("view-change", replica.view + 1, 50.0)
        assert replica.view == view_before
        assert not replica.view_change_in_progress
        assert replica._vc_failed_attempts == 0
        assert [t for t in output.timers() if t.name == "view-change"] == []

    def test_backoff_resets_after_a_completed_view_change(self, auths):
        replica = self._replica(auths)
        replica.start_progress_timer("client:0:batch:0", 0.0)
        replica.initiate_view_change(0.0)
        replica._collect()
        replica.timer_fired("view-change", replica.view + 1, 0.0)
        assert replica._vc_failed_attempts == 1
        # A successful view change resets the failure streak.
        entries = tuple(make_entry(auths, seq) for seq in range(1))
        requests = tuple(
            ViewChangeRequest(view=replica.view, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=entries)
            for i in range(3)
        )
        new_view = replica.view + 1
        primary = f"replica:{new_view % 4}"
        replica.deliver(primary, NewView(new_view=new_view, requests=requests), 1.0)
        assert replica.view == new_view
        assert replica._vc_failed_attempts == 0


class TestViewChangeIntegration:
    def _run_primary_crash(self, protocol="poe", num_replicas=4):
        # The primary crashes after only a couple of milliseconds, i.e. with
        # most of the client's batches still outstanding.
        config = ClusterConfig(
            protocol=protocol, num_replicas=num_replicas, batch_size=10,
            num_clients=1, client_outstanding=3, total_batches=30,
            request_timeout_ms=100.0, checkpoint_interval=10,
            faults=FaultSchedule.primary_crash(replica_id(0), at_ms=2.0),
            seed=11,
        )
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=120_000)
        return cluster

    def test_primary_crash_triggers_exactly_one_view_change(self):
        cluster = self._run_primary_crash()
        live = [replica for replica in cluster.replicas if not replica.crashed]
        assert all(replica.view == 1 for replica in live)
        assert all(replica.view_changes_completed == 1 for replica in live)

    def test_clients_complete_despite_primary_crash(self):
        cluster = self._run_primary_crash()
        assert all(pool.is_done() for pool in cluster.pools)

    def test_live_replicas_converge_after_view_change(self):
        cluster = self._run_primary_crash()
        live = [replica for replica in cluster.replicas if not replica.crashed]
        executed = {replica.last_executed_sequence for replica in live}
        assert len(executed) == 1
        digests = {replica.executor.state_digest() for replica in live}
        assert len(digests) == 1

    def test_join_rule_brings_all_replicas_into_view_change(self):
        """Replicas that did not time out themselves join after f+1 requests."""
        cluster = self._run_primary_crash(num_replicas=7)
        live = [replica for replica in cluster.replicas if not replica.crashed]
        assert all(replica.view >= 1 for replica in live)
        assert all(pool.is_done() for pool in cluster.pools)


class TestDarkReplicaRecovery:
    def test_dark_replica_catches_up_via_checkpoint_state_transfer(self):
        """A backup kept in the dark by the primary recovers through the
        checkpoint protocol (paper, Example 3 case 2 + Section II-D)."""
        dark = replica_id(3)
        faults = FaultSchedule().add_dark_replicas(replica_id(0), [dark])
        config = ClusterConfig(
            protocol="poe", num_replicas=4, batch_size=10, total_batches=30,
            client_outstanding=4, checkpoint_interval=5,
            faults=faults, seed=13,
        )
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=120_000)
        assert all(pool.is_done() for pool in cluster.pools)
        dark_replica = cluster.network.node(dark)
        others = [replica for replica in cluster.replicas
                  if replica.node_id != dark and not replica.crashed]
        # The dark replica cannot participate in consensus but state transfer
        # brings it to within one checkpoint interval of the rest.
        max_executed = max(replica.last_executed_sequence for replica in others)
        assert dark_replica.last_executed_sequence >= max_executed - config.checkpoint_interval
        assert dark_replica.blockchain.verify_chain()

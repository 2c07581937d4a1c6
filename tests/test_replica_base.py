"""Tests for the shared replica machinery: deferral, state transfer, replies,
and the primary-backup layer's slot table, admission, pruning and purge."""

import pytest

from repro.core.messages import PoeCertify, PoePropose, PoeSupport
from repro.core.replica import PoeReplica
from repro.crypto.authenticator import SchemeKind, make_authenticators
from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.registry import get_spec
from repro.protocols.base import NodeConfig
from repro.protocols.checkpoint import (
    CheckpointMessage,
    StateTransferRequest,
    StateTransferResponse,
)
from repro.protocols.client_messages import ClientRequestMessage
from repro.protocols.epoch import EpochEntry
from repro.protocols.pbft import PbftPrePrepare
from repro.protocols.quorum import VoteSet
from repro.protocols.sbft import SbftPrePrepare
from repro.protocols.zyzzyva import ZyzzyvaOrderRequest
from repro.workload.transactions import make_no_op_batch

REPLICAS = [f"replica:{i}" for i in range(4)]


@pytest.fixture()
def auths():
    return make_authenticators(REPLICAS, ["client:0"], seed=b"replica-base")


def make_replica(auths, rid="replica:1", **config_kwargs):
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        execute_operations=True, checkpoint_interval=4,
                        **config_kwargs)
    return PoeReplica(rid, config, auths[rid], scheme=SchemeKind.MACS)


class TestDeferredMessages:
    def test_future_view_messages_are_buffered_and_replayed(self, auths):
        replica = make_replica(auths)
        batch = make_no_op_batch("future", "client:0", 2)
        future = PoePropose(view=1, sequence=0, batch=batch)
        replica.deliver("replica:1", future, 1.0)
        assert replica._accepted == {}
        assert 1 in replica._deferred_messages
        # Entering view 1 replays the buffered proposal.
        replica.view = 1
        replica.replay_deferred(2.0)
        assert (1, 0) in replica._accepted

    def test_replay_only_covers_entered_views(self, auths):
        replica = make_replica(auths)
        replica.defer_message(3, "replica:0", object())
        replica.view = 1
        replica.replay_deferred(1.0)
        assert 3 in replica._deferred_messages


#: protocol -> (proposal message class, [(slot tally, flags that close it)]).
#: A tally stays open until the last of its flags is set.  A PoE slot holds
#: the tallies its scheme counts and no other.
PRIMARY_BACKUP_LAYER = {
    "poe-mac": (PoePropose, [("support_votes", ("certified",))]),
    "poe-ts": (PoePropose, [("shares", ("certified",))]),
    # Without speculation a certified slot votes to commit and keeps
    # counting commit votes until it does.
    "poe-nospec": (PoePropose, [
        ("support_votes", ("certified",)),
        ("commit_votes", ("certified", "commit_vote_sent", "committed"))]),
    "pbft": (PbftPrePrepare, [("prepare_votes", ("prepared",)),
                              ("commit_votes", ("prepared", "committed"))]),
    "sbft": (SbftPrePrepare, [("commit_shares", ("commit_proof_sent",)),
                              ("state_shares", ("execute_ack_sent",))]),
    "zyzzyva": (ZyzzyvaOrderRequest, []),
}
#: No votes between Zyzzyva's replicas: its slot table stays empty.
HAS_SLOTS = {protocol: protocol != "zyzzyva" for protocol in PRIMARY_BACKUP_LAYER}


@pytest.mark.parametrize("protocol", sorted(PRIMARY_BACKUP_LAYER))
class TestPrimaryBackupLayer:
    """What PoE, PBFT, SBFT and Zyzzyva inherit instead of re-writing."""

    @staticmethod
    def build(auths, protocol, rid="replica:2"):
        spec = get_spec(protocol)
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            checkpoint_interval=4)
        return spec.replica_cls(rid, config, auths[rid], **spec.replica_kwargs)

    @staticmethod
    def proposal(protocol, view, sequence, label="b"):
        message_cls = PRIMARY_BACKUP_LAYER[protocol][0]
        extra = ({"history_digest": b"h-" + label.encode()}
                 if message_cls is ZyzzyvaOrderRequest else {})
        return message_cls(view=view, sequence=sequence, **extra,
                           batch=make_no_op_batch(label, "client:0", 2))

    @staticmethod
    def snapshot(replica):
        return (dict(replica._accepted), sorted(replica._slots),
                dict(replica._reply_targets), dict(replica._deferred_messages),
                replica.last_executed_sequence)

    def test_future_view_proposal_is_deferred_and_replayed(self, auths, protocol):
        replica = self.build(auths, protocol)
        output = replica.deliver("replica:1", self.proposal(protocol, 1, 0), 1.0)
        assert output.actions == []
        assert replica._accepted == {} and not replica._slots
        assert len(replica._deferred_messages[1]) == 1
        replica.view = 1  # replica:1 is its primary
        replica.replay_deferred(2.0)
        assert list(replica._accepted) == [(1, 0)]
        assert not replica._deferred_messages

    def test_inadmissible_proposals_change_nothing(self, auths, protocol):
        replica = self.build(auths, protocol)
        before = self.snapshot(replica)
        # Not from the primary of view 0.
        output = replica.deliver("replica:3", self.proposal(protocol, 0, 0), 1.0)
        assert output.actions == [] and self.snapshot(replica) == before
        # From the primary, but during a view change.
        replica.view_change_in_progress = True
        output = replica.deliver("replica:0", self.proposal(protocol, 0, 0), 1.0)
        assert output.actions == [] and self.snapshot(replica) == before
        replica.view_change_in_progress = False
        # The first proposal of a slot is accepted; a second one is not.
        output = replica.deliver("replica:0", self.proposal(protocol, 0, 0), 1.0)
        assert output.actions and list(replica._accepted) == [(0, 0)]
        accepted = self.snapshot(replica)
        output = replica.deliver("replica:0",
                                 self.proposal(protocol, 0, 0, label="other"), 2.0)
        assert output.actions == [] and self.snapshot(replica) == accepted
        # Neither is one for a view this replica left behind.
        replica.view = 1
        output = replica.deliver("replica:0", self.proposal(protocol, 0, 1), 3.0)
        assert output.actions == [] and self.snapshot(replica) == accepted

    def test_stable_checkpoint_prunes_slots_accepted_and_log(self, auths, protocol):
        replica = self.build(auths, protocol)
        has_slots = HAS_SLOTS[protocol]
        log = replica._log
        for sequence in range(10):
            log[sequence] = object()
            for view in (0, 1):
                replica._accepted[(view, sequence)] = b"digest"
                if has_slots:
                    replica._slot(view, sequence)
        replica.on_stable_checkpoint(4, now_ms=1.0)
        assert sorted(log) == list(range(5, 10))
        assert sorted(replica._accepted) == [
            (view, sequence) for view in (0, 1) for sequence in range(5, 10)]
        # The boundary slot outlives its checkpoint by one interval: a phase
        # that runs after execution may still be collecting for it.
        assert sorted(replica._slots) == ([
            (view << 32) | sequence
            for view in (0, 1) for sequence in range(4, 10)] if has_slots else [])
        replica.on_stable_checkpoint(8, now_ms=2.0)
        assert {key & 0xFFFFFFFF for key in replica._slots} == (
            {8, 9} if has_slots else set())

    def test_epoch_activation_purges_open_tallies_only(self, auths, protocol):
        replica = self.build(auths, protocol)
        evicted = "replica:3"
        share_index = REPLICAS.index(evicted) + 1

        def vote(slot, tally_name):
            tally = getattr(slot, tally_name)
            if isinstance(tally, VoteSet):
                tally.add(evicted)
                tally.add("replica:1")
            else:
                tally[share_index] = tally[2] = object()

        def voted(slot, tally_name):
            tally = getattr(slot, tally_name)
            return (evicted if isinstance(tally, VoteSet) else share_index) in tally

        tallies = PRIMARY_BACKUP_LAYER[protocol][1]
        for number, (tally_name, closing_flags) in enumerate(tallies):
            vote(replica._slot(0, number), tally_name)
            closing, closed = replica._slot(0, 10 + number), replica._slot(0, 20 + number)
            vote(closing, tally_name)
            vote(closed, tally_name)
            for flag in closing_flags[:-1]:
                setattr(closing, flag, True)
            for flag in closing_flags:
                setattr(closed, flag, True)
        # The per-view tally: one voter with an admissible request, one
        # without, and the evicted replica with one.
        kept = object()
        replica._vc_votes[0] = {evicted: object(), "replica:1": kept,
                                "replica:2": None}
        members = tuple(REPLICAS[:3])
        replica._refresh_epoch_caches(members)
        replica.on_epoch_activated(
            EpochEntry(epoch=1, activation_sequence=3, members=members,
                       removed=(evicted,), committed_at=1),
            (evicted,), now_ms=1.0)
        for number, (tally_name, _flags) in enumerate(tallies):
            for still_open in (replica._slot(0, number), replica._slot(0, 10 + number)):
                assert not voted(still_open, tally_name)
                assert len(getattr(still_open, tally_name)) == 1
            assert voted(replica._slot(0, 20 + number), tally_name)
        assert replica._vc_votes[0] == {"replica:1": kept, "replica:2": None}
        # n = 3 tolerates no fault: every quorum cache followed the epoch.
        assert (replica._f_plus_1, replica._2f_plus_1, replica._nf_quorum) == (1, 1, 3)
        assert replica.view_change_quorum() == (3 if protocol.startswith("poe") else 1)


def test_an_evicted_share_never_aggregates_into_a_certificate(auths):
    """A PoE-TS primary drops an evicted replica's share from an uncertified
    slot at activation: the certificate then takes nf shares of members."""
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        checkpoint_interval=4)
    primary = PoeReplica("replica:0", config, auths["replica:0"],
                         scheme=SchemeKind.THRESHOLD)
    batch = make_no_op_batch("b", "client:0", 2)
    primary.deliver("client:0", ClientRequestMessage(batch=batch,
                                                     reply_to="client:0"), 1.0)
    slot = primary._slot(0, 0)

    def support(rid, now_ms):
        share = auths[rid].threshold.sign_share(auths[rid].threshold_index,
                                                slot.proposal_digest)
        output = primary.deliver(rid, PoeSupport(
            view=0, sequence=0, proposal_digest=slot.proposal_digest,
            share=share, replica_id=rid), now_ms)
        return [b.message.certificate for b in output.broadcasts()
                if isinstance(b.message, PoeCertify)]

    evicted = "replica:3"
    assert support(evicted, 2.0) == [] and sorted(slot.shares) == [1, 4]
    members = tuple(REPLICAS[:3])
    primary._refresh_epoch_caches(members)
    primary.on_epoch_activated(
        EpochEntry(epoch=1, activation_sequence=0, members=members,
                   removed=(evicted,), committed_at=0),
        (evicted,), now_ms=3.0)
    # n = 3: nf = 3, and the scheme's threshold of 3 would accept the
    # evicted share as the third.
    assert support("replica:1", 4.0) == [] and not slot.certified
    [certificate] = support("replica:2", 5.0)
    assert certificate.contributors == (1, 2, 3)


class TestStateTransfer:
    def test_up_to_date_replica_ships_state(self, auths):
        replica = make_replica(auths, rid="replica:1")
        # Execute a few batches directly so there is state to ship.
        for seq in range(4):
            batch = make_no_op_batch(f"b{seq}", "client:0", 2)
            replica.commit_slot(seq, 0, batch, proof=None, now_ms=1.0)
        replica.checkpoints.record_vote(3, replica.executor.state_digest(), "replica:1")
        replica.checkpoints.record_vote(3, replica.executor.state_digest(), "replica:2")
        replica.checkpoints.record_vote(3, replica.executor.state_digest(), "replica:3")
        output = replica.deliver(
            "replica:3", StateTransferRequest(sequence=3, replica_id="replica:3"), 5.0)
        responses = [send.message for send in output.sends()
                     if isinstance(send.message, StateTransferResponse)]
        assert len(responses) == 1
        assert responses[0].sequence == 3
        assert responses[0].table_snapshot is not None

    def test_lagging_replica_requests_transfer_after_f_plus_1_votes(self, auths):
        replica = make_replica(auths, rid="replica:3")
        digest = b"remote-state"
        replica.deliver("replica:1",
                        CheckpointMessage(sequence=7, state_digest=digest,
                                          replica_id="replica:1"), 1.0)
        output = replica.deliver(
            "replica:2", CheckpointMessage(sequence=7, state_digest=digest,
                                           replica_id="replica:2"), 2.0)
        requests = [send.message for send in output.sends()
                    if isinstance(send.message, StateTransferRequest)]
        assert len(requests) == 1
        assert requests[0].sequence == 7

    def test_duplicate_checkpoint_votes_do_not_re_request(self, auths):
        replica = make_replica(auths, rid="replica:3")
        digest = b"remote-state"
        for voter in ["replica:1", "replica:2"]:
            replica.deliver(voter, CheckpointMessage(sequence=7, state_digest=digest,
                                                     replica_id=voter), 1.0)
        output = replica.deliver(
            "replica:1", CheckpointMessage(sequence=7, state_digest=digest,
                                           replica_id="replica:1"), 3.0)
        assert not any(isinstance(send.message, StateTransferRequest)
                       for send in output.sends())

    def test_installing_a_response_fast_forwards_execution(self, auths):
        from repro.crypto.hashing import digest
        replica = make_replica(auths, rid="replica:3")
        # f + 1 checkpoint votes vouch for the digest before the transfer
        # arrives (an unvouched response would be parked, not applied),
        # and the digest must really commit to the shipped head hash and
        # snapshot — the receiver re-derives it before installing.
        snapshot = {"user1": "value"}
        head_hash = b"source-head"
        state_digest = digest("state", 9, head_hash,
                              digest("store", sorted(snapshot.items())))
        for voter in ["replica:1", "replica:2"]:
            replica.deliver(voter, CheckpointMessage(
                sequence=9, state_digest=state_digest, replica_id=voter), 1.0)
        response = StateTransferResponse(sequence=9, view=2,
                                         state_digest=state_digest,
                                         table_snapshot=snapshot,
                                         head_hash=head_hash)
        replica.deliver("replica:1", response, 5.0)
        assert replica.last_executed_sequence == 9
        assert replica.view == 2
        assert replica.store.get("user1") == "value"
        assert replica.next_sequence >= 10

    def test_a_lagging_install_after_a_rollback_drops_journal_entries_above(
            self, auths):
        """A rollback leaves the boundary journaled at 7 above the executed
        height 5; the install at 11 replaces that state, so the journal
        keeps 3 and the installed 11 only."""
        from repro.crypto.hashing import digest
        replica = make_replica(auths, rid="replica:3")
        for seq in range(8):
            replica.commit_slot(seq, 0, make_no_op_batch(f"b{seq}", "client:0", 2),
                                proof=None, now_ms=1.0)
        replica.rollback_speculation(5, 2.0)
        assert replica.last_executed_sequence == 5
        assert sorted(replica._boundaries) == [3, 7]
        snapshot = replica.store.snapshot()
        head_hash = b"source-head"
        state_digest = digest("state", 11, head_hash,
                              digest("store", sorted(snapshot.items())))
        for voter in ["replica:1", "replica:2"]:
            replica.deliver(voter, CheckpointMessage(
                sequence=11, state_digest=state_digest, replica_id=voter), 3.0)
        replica.deliver("replica:1", StateTransferResponse(
            sequence=11, view=0, state_digest=state_digest,
            table_snapshot=snapshot, head_hash=head_hash), 4.0)
        assert replica.last_executed_sequence == 11
        assert replica.divergence_repairs == 0
        assert sorted(replica._boundaries) == [3, 11]
        assert replica.executor.executed(5) is not None

    def test_stale_responses_are_ignored(self, auths):
        replica = make_replica(auths, rid="replica:3")
        batch = make_no_op_batch("b0", "client:0", 2)
        replica.commit_slot(0, 0, batch, proof=None, now_ms=1.0)
        replica.deliver("replica:1",
                        StateTransferResponse(sequence=0, view=0, state_digest=b"d"),
                        5.0)
        assert replica.last_executed_sequence == 0
        assert replica.view == 0


class TestReplyHandling:
    def test_requests_are_not_proposed_twice(self, auths):
        primary = make_replica(auths, rid="replica:0")
        batch = make_no_op_batch("dup", "client:0", 2)
        request = ClientRequestMessage(batch=batch, reply_to="client:0")
        first = primary.deliver("client:0", request, 1.0)
        second = primary.deliver("client:0", request, 2.0)
        proposes = [a for out in (first, second) for a in out.broadcasts()]
        assert len(proposes) == 1

    def test_progress_timer_only_armed_for_retransmissions(self, auths):
        backup = make_replica(auths, rid="replica:2")
        batch = make_no_op_batch("b", "client:0", 2)
        plain = ClientRequestMessage(batch=batch, reply_to="client:0")
        output = backup.deliver("client:0", plain, 1.0)
        assert output.timers() == []
        retransmitted = ClientRequestMessage(batch=batch, reply_to="client:0",
                                             retransmission=True)
        output = backup.deliver("client:0", retransmitted, 2.0)
        assert [t.name for t in output.timers()] == [f"progress:{batch.batch_id}"]
        forwards = output.sends()
        assert forwards and forwards[0].to == "replica:0"


class TestNonSpeculativeAblation:
    def test_nospec_cluster_completes_and_agrees(self):
        config = ClusterConfig(protocol="poe-nospec", num_replicas=4, batch_size=10,
                               total_batches=10, client_outstanding=4, seed=31)
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        assert all(pool.is_done() for pool in cluster.pools)
        digests = {replica.executor.state_digest() for replica in cluster.replicas}
        assert len(digests) == 1

    def test_nospec_adds_a_commit_phase_to_latency(self):
        def run(protocol):
            config = ClusterConfig(protocol=protocol, num_replicas=4, batch_size=10,
                                   total_batches=20, client_outstanding=2, seed=33)
            cluster = Cluster(config)
            cluster.start()
            cluster.run_until_done(max_ms=60_000)
            return cluster.result(warmup_fraction=0.0)

        speculative = run("poe")
        non_speculative = run("poe-nospec")
        assert speculative.avg_latency_ms < non_speculative.avg_latency_ms

    def test_nospec_replies_are_not_speculative(self, auths):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            execute_operations=True)
        replicas = {rid: PoeReplica(rid, config, auths[rid],
                                    scheme=SchemeKind.MACS, speculative=False)
                    for rid in REPLICAS}
        from tests.helpers import SyncRouter
        from repro.core.client import PoeClientPool
        router = SyncRouter()
        for replica in replicas.values():
            router.add_replica(replica)
        pool = PoeClientPool(
            "client:0", config,
            batch_source=lambda i, now: make_no_op_batch(f"b{i}", "client:0", 2, now),
            target_outstanding=1, total_batches=1)
        router.add_client(pool)
        router.start_all()
        router.flush()
        from repro.protocols.client_messages import ClientReplyMessage
        replies = [m for (_, _, m) in router.delivered
                   if isinstance(m, ClientReplyMessage)]
        assert replies
        assert all(not reply.speculative for reply in replies)
        assert pool.is_done()

"""Aggregated quorum counters: bitset semantics and per-protocol regressions.

The large-n scaling pass replaced per-slot ``Set[str]`` vote bookkeeping
with index-keyed bitsets (:class:`repro.protocols.quorum.VoteSet`) in PoE
MAC support counting, PBFT prepare/commit, checkpoint votes and the
client pools.  These tests pin the semantics the replacement must
preserve: duplicate votes count once, votes after quorum change nothing,
vote identity stays bound to the transport-level sender (a forged
``replica_id`` in the payload must not mint extra votes), and unknown
voter identifiers still count through the overflow path instead of being
silently dropped.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replica import PoeReplica
from repro.core.messages import PoeCommitVote, PoePropose, PoeSupport
from repro.core.view_change import proposal_digest
from repro.crypto.hashing import shared_digest
from repro.crypto.authenticator import SchemeKind, make_authenticators
from repro.fabric.audit import SafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.net.byzantine import ByzantineSpec
from repro.protocols.base import NodeConfig
from repro.protocols.checkpoint import (
    CheckpointMessage,
    CheckpointTracker,
    StateTransferRequest,
)
from repro.protocols.pbft import (
    PbftCommit,
    PbftPrepare,
    PbftPrePrepare,
    PbftReplica,
)
from repro.protocols.quorum import QuorumProof, VoteSet, build_index_map
from repro.workload.transactions import make_no_op_batch


REPLICAS = [f"replica:{i}" for i in range(4)]


@pytest.fixture
def auths():
    return make_authenticators(REPLICAS, ["client:0"], seed=b"quorum-tests")


def make_config(**overrides):
    defaults = dict(replica_ids=REPLICAS, batch_size=3, checkpoint_interval=10)
    defaults.update(overrides)
    return NodeConfig(**defaults)


class TestVoteSet:
    def test_first_seen_and_duplicates(self):
        votes = VoteSet(build_index_map(REPLICAS))
        assert votes.add("replica:1") is True
        assert votes.add("replica:1") is False
        assert votes.add("replica:3") is True
        assert len(votes) == 2
        assert votes.count == 2

    def test_contains_and_iteration_match_set_semantics(self):
        votes = VoteSet(build_index_map(REPLICAS))
        for voter in ("replica:2", "replica:0", "replica:2"):
            votes.add(voter)
        assert "replica:2" in votes
        assert "replica:1" not in votes
        assert set(votes) == {"replica:0", "replica:2"}
        assert sorted(votes) == ["replica:0", "replica:2"]
        assert frozenset(votes) == frozenset({"replica:0", "replica:2"})

    def test_unknown_voters_use_the_overflow_path(self):
        votes = VoteSet(build_index_map(REPLICAS))
        assert votes.add("definitely-not-a-replica") is True
        assert votes.add("definitely-not-a-replica") is False
        votes.add("replica:0")
        assert len(votes) == 2
        assert "definitely-not-a-replica" in votes
        assert set(votes) == {"replica:0", "definitely-not-a-replica"}

    def test_without_index_map_behaves_like_a_set(self):
        votes = VoteSet()
        assert votes.add("a") and votes.add("b") and not votes.add("a")
        assert len(votes) == 2 and set(votes) == {"a", "b"}

    def test_bool_and_empty(self):
        votes = VoteSet(build_index_map(REPLICAS))
        assert not votes and len(votes) == 0 and set(votes) == set()
        votes.add("replica:63")  # outside the map
        assert votes

    def test_large_indices(self):
        ids = [f"replica:{i}" for i in range(128)]
        votes = VoteSet(build_index_map(ids))
        for rid in ids:
            votes.add(rid)
        assert len(votes) == 128
        assert set(votes) == set(ids)


_MEMBERS = [f"replica:{i}" for i in range(8)]
#: Members and ids outside the map (the overflow path).
_VOTERS = _MEMBERS + ["client:0", "replica:99", "spoofed"]
_ops = st.lists(st.tuples(st.booleans(), st.sampled_from(_VOTERS)), max_size=30)


def _tally(ops, index_map) -> VoteSet:
    votes = VoteSet(index_map)
    for add, voter in ops:
        (votes.add if add else votes.discard)(voter)
    return votes


class TestQuorumProof:
    """``VoteSet.freeze()`` is the immutable snapshot a completed tally
    leaves as its slot's proof."""

    @settings(max_examples=300, deadline=None)
    @given(_ops, _ops)
    def test_snapshot_reads_like_its_tally_and_never_follows_it(self, ops, later):
        index_map = build_index_map(_MEMBERS)
        votes = _tally(ops, index_map)
        proof = votes.freeze()
        assert type(proof) is QuorumProof
        voters = list(votes)
        assert list(proof) == voters
        assert len(proof) == len(votes) == len(set(voters))
        assert bool(proof) == bool(votes)
        assert [voter in proof for voter in _VOTERS] == [
            voter in votes for voter in _VOTERS]
        # Value semantics: the same voters reached another way.
        again = _tally([(True, voter) for voter in reversed(voters)],
                       index_map).freeze()
        assert proof == again and hash(proof) == hash(again)
        # The tally goes on counting; the snapshot does not follow it.
        for add, voter in later:
            (votes.add if add else votes.discard)(voter)
        assert list(proof) == voters and len(proof) == len(voters)
        assert [voter in proof for voter in _VOTERS] == [
            voter in voters for voter in _VOTERS]
        assert proof == again

    def test_different_voters_differ(self):
        index_map = build_index_map(_MEMBERS)
        one = _tally([(True, "replica:1")], index_map).freeze()
        assert one != _tally([(True, "replica:2")], index_map).freeze()
        assert one != _tally([(True, "replica:1"), (True, "spoofed")],
                             index_map).freeze()

    def test_a_snapshot_is_immutable(self):
        proof = _tally([(True, "replica:1")], build_index_map(_MEMBERS)).freeze()
        with pytest.raises(AttributeError):
            proof.mask = 0b111
        with pytest.raises(AttributeError):
            del proof.count
        assert list(proof) == ["replica:1"]


def _retained_per_replica_batch(num_replicas: int) -> float:
    """Bytes a ``poe-mac`` run leaves allocated per executed replica-batch:
    traced memory after the run less after set-up, collector run both times."""
    tracemalloc.start()
    try:
        cluster = Cluster(ClusterConfig(protocol="poe-mac", num_replicas=num_replicas,
                                        batch_size=100, total_batches=16, seed=3))
        cluster.start()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        cluster.run_until_done()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / sum(replica.executed_batches for replica in cluster.replicas)


def test_retained_bytes_per_replica_batch_do_not_grow_with_n():
    """Every block keeps its slot's proof for good, so a proof that grows
    with n makes the ledger O(n) per block on every replica: a frozenset
    of voter ids took 1.9 KB per replica-batch at n = 16 and 3.4 KB at
    n = 64."""
    at_16 = _retained_per_replica_batch(16)
    assert _retained_per_replica_batch(64) <= 1.05 * at_16


class TestPoeMacSupportCounting:
    def _replica(self, auths, node_id="replica:1"):
        replica = PoeReplica(node_id, make_config(), auths[node_id],
                             scheme=SchemeKind.MACS)
        return replica

    def _supported_slot(self, replica, sequence=0):
        batch = make_no_op_batch("b-0", "client:0", 3)
        primary = REPLICAS[0]
        from repro.core.messages import PoePropose
        replica.deliver(primary, PoePropose(view=0, sequence=sequence, batch=batch), 0.0)
        return replica._slot(0, sequence)

    def test_duplicate_support_counts_once(self, auths):
        replica = self._replica(auths)
        slot = self._supported_slot(replica)
        before = slot.support_votes.count
        message = PoeSupport(view=0, sequence=0,
                             proposal_digest=slot.proposal_digest,
                             replica_id="replica:2")
        replica.deliver("replica:2", message, 1.0)
        replica.deliver("replica:2", message, 2.0)
        assert slot.support_votes.count == before + 1

    def test_forged_replica_id_counts_as_the_transport_sender(self, auths):
        """One Byzantine sender spamming forged identities gets one vote."""
        replica = self._replica(auths)
        slot = self._supported_slot(replica)
        before = slot.support_votes.count
        for forged in ("replica:2", "replica:3", "replica:0"):
            message = PoeSupport(view=0, sequence=0,
                                 proposal_digest=slot.proposal_digest,
                                 replica_id=forged)
            replica.deliver("replica:3", message, 1.0)
        # Three forged identities from one channel: exactly one new voter,
        # and it is the transport sender, not any of the claimed ids.
        assert slot.support_votes.count == before + 1
        assert "replica:3" in slot.support_votes
        assert "replica:2" not in slot.support_votes

    def test_late_vote_after_quorum_changes_nothing(self, auths):
        replica = self._replica(auths)
        slot = self._supported_slot(replica)
        # nf = 3 at n=4: primary (counted from the PROPOSE) + self + one more.
        replica.deliver("replica:2", PoeSupport(
            view=0, sequence=0, proposal_digest=slot.proposal_digest,
            replica_id="replica:2"), 1.0)
        assert slot.certified
        executed_before = replica.executed_batches
        output = replica.deliver("replica:3", PoeSupport(
            view=0, sequence=0, proposal_digest=slot.proposal_digest,
            replica_id="replica:3"), 2.0)
        assert replica.executed_batches == executed_before
        assert output.actions == []  # a pure no-op delivery


class TestPoeSlotTallies:
    """A PoE slot allocates the tallies its replica's scheme counts."""

    @pytest.mark.parametrize("scheme,speculative,present", [
        (SchemeKind.MACS, True, {"support_votes"}),
        (SchemeKind.THRESHOLD, True, {"shares"}),
        (SchemeKind.MACS, False, {"support_votes", "commit_votes"}),
        (SchemeKind.THRESHOLD, False, {"shares", "commit_votes"}),
    ])
    def test_a_slot_holds_only_what_its_scheme_counts(self, auths, scheme,
                                                      speculative, present):
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=scheme, speculative=speculative)
        slot = replica._slot(0, 0)
        for name in ("shares", "support_votes", "commit_votes"):
            assert (getattr(slot, name) is not None) == (name in present)
        assert {id(tally) for tally in slot.open_tallies()} == {
            id(getattr(slot, name)) for name in present}
        slot.certified = True
        assert slot.open_tallies() == ()

    def test_a_speculative_replica_charges_and_drops_a_commit_vote(self, auths):
        """No commit phase, no commit tally: the vote costs its MAC check
        and leaves no slot behind."""
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=SchemeKind.MACS)
        output = replica.deliver("replica:2", PoeCommitVote(
            view=0, sequence=5, proposal_digest=b"d", replica_id="replica:2"), 1.0)
        assert output.actions == [] and not replica._slots
        assert output.cpu_ms == (replica.config.base_processing_ms
                                 + replica._mac_verify_ms)


class TestPbftVoteCounting:
    def _prepared_replica(self, auths, node_id="replica:1"):
        replica = PbftReplica(node_id, make_config(), auths[node_id])
        batch = make_no_op_batch("b-0", "client:0", 3)
        from repro.protocols.pbft import PbftPrePrepare
        replica.deliver(REPLICAS[0], PbftPrePrepare(view=0, sequence=0, batch=batch), 0.0)
        return replica, replica._slot(0, 0)

    def test_duplicate_prepare_counts_once(self, auths):
        replica, slot = self._prepared_replica(auths)
        before = slot.prepare_votes.count
        message = PbftPrepare(view=0, sequence=0, batch_digest=slot.batch_digest,
                              replica_id="replica:2")
        replica.deliver("replica:2", message, 1.0)
        replica.deliver("replica:2", message, 2.0)
        assert slot.prepare_votes.count == before + 1

    def test_forged_prepare_identities_count_as_one_sender(self, auths):
        replica, slot = self._prepared_replica(auths)
        before = slot.prepare_votes.count
        for forged in REPLICAS:
            replica.deliver("replica:3", PbftPrepare(
                view=0, sequence=0, batch_digest=slot.batch_digest,
                replica_id=forged), 1.0)
        assert slot.prepare_votes.count == before + 1
        assert not slot.prepared

    def test_commit_votes_before_prepare_still_accumulate(self, auths):
        replica, slot = self._prepared_replica(auths)
        replica.deliver("replica:2", PbftCommit(
            view=0, sequence=0, batch_digest=slot.batch_digest,
            replica_id="replica:2"), 1.0)
        assert slot.commit_votes.count == 1
        assert not slot.committed

    def test_commit_quorum_executes_and_late_commits_are_noops(self, auths):
        replica, slot = self._prepared_replica(auths)
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PbftPrepare(
                view=0, sequence=0, batch_digest=slot.batch_digest), 1.0)
        assert slot.prepared
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PbftCommit(
                view=0, sequence=0, batch_digest=slot.batch_digest), 2.0)
        assert slot.committed
        assert replica.executed_batches == 1
        output = replica.deliver("replica:0", PbftCommit(
            view=0, sequence=0, batch_digest=slot.batch_digest), 3.0)
        assert replica.executed_batches == 1
        assert output.actions == []


class TestVotesBeforeTheProposal:
    """A vote counts only for the digest it names, whenever it arrives.

    A SUPPORT, PREPARE or COMMIT that reaches a replica before its slot's
    proposal is parked under the digest it names; when the proposal lands,
    the parked votes that name its digest are counted before the slot's
    first quorum check and the rest are dropped.
    """

    def _batches(self):
        return (make_no_op_batch("b-A", "client:0", 3),
                make_no_op_batch("b-B", "client:0", 3))

    def test_poe_mac_supports_for_another_proposal_do_not_certify(self, auths):
        """replica:1 gets SUPPORT(d_B) from 2 and 3, then PROPOSE(A): only
        the primary and replica:1 back A, below nf = 3."""
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=SchemeKind.MACS)
        batch_a, batch_b = self._batches()
        digest_b = proposal_digest(0, 0, batch_b.digest())
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PoeSupport(
                view=0, sequence=0, proposal_digest=digest_b,
                replica_id=sender), 0.5)
        replica.deliver("replica:0", PoePropose(view=0, sequence=0,
                                                batch=batch_a), 1.0)
        slot = replica._slot(0, 0)
        assert not slot.certified and replica.executed_batches == 0
        assert set(slot.support_votes) == {"replica:0", "replica:1"}
        assert slot.parked is None
        # A SUPPORT that names A completes the quorum, and the proof names
        # exactly the replicas that backed A.
        replica.deliver("replica:2", PoeSupport(
            view=0, sequence=0, proposal_digest=slot.proposal_digest,
            replica_id="replica:2"), 2.0)
        assert slot.certified and replica.executed_batches == 1
        assert set(replica._log[0].proof) == {"replica:0", "replica:1",
                                               "replica:2"}

    def test_poe_mac_early_supports_for_the_proposal_count(self, auths):
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=SchemeKind.MACS)
        batch_a, _ = self._batches()
        digest_a = proposal_digest(0, 0, batch_a.digest())
        replica.deliver("replica:2", PoeSupport(
            view=0, sequence=0, proposal_digest=digest_a,
            replica_id="replica:2"), 0.5)
        replica.deliver("replica:0", PoePropose(view=0, sequence=0,
                                                batch=batch_a), 1.0)
        assert replica._slot(0, 0).certified
        assert replica.executed_batches == 1

    def test_one_parked_vote_per_sender(self, auths):
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=SchemeKind.MACS)
        for index in range(50):
            replica.deliver("replica:3", PoeSupport(
                view=0, sequence=0, proposal_digest=b"d%d" % index,
                replica_id="replica:3"), 0.5)
        assert len(replica._slot(0, 0).parked) == 1

    def test_a_parked_vote_of_an_evicted_replica_is_dropped(self, auths):
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=SchemeKind.MACS)
        batch_a, _ = self._batches()
        digest_a = proposal_digest(0, 0, batch_a.digest())
        replica.deliver("replica:3", PoeSupport(
            view=0, sequence=0, proposal_digest=digest_a,
            replica_id="replica:3"), 0.5)
        replica.on_epoch_activated(None, ("replica:3",), 0.7)
        replica.deliver("replica:0", PoePropose(view=0, sequence=0,
                                                batch=batch_a), 1.0)
        slot = replica._slot(0, 0)
        assert not slot.certified
        assert set(slot.support_votes) == {"replica:0", "replica:1"}

    def test_poe_commit_votes_for_another_proposal_do_not_commit(self, auths):
        """Without speculation: COMMIT(d_B) from 2 and 3 before PROPOSE(A)."""
        replica = PoeReplica("replica:1", make_config(), auths["replica:1"],
                             scheme=SchemeKind.MACS, speculative=False)
        batch_a, batch_b = self._batches()
        digest_b = proposal_digest(0, 0, batch_b.digest())
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PoeCommitVote(
                view=0, sequence=0, proposal_digest=digest_b,
                replica_id=sender), 0.5)
        replica.deliver("replica:0", PoePropose(view=0, sequence=0,
                                                batch=batch_a), 1.0)
        slot = replica._slot(0, 0)
        replica.deliver("replica:2", PoeSupport(
            view=0, sequence=0, proposal_digest=slot.proposal_digest,
            replica_id="replica:2"), 2.0)
        assert slot.certified and slot.commit_vote_sent
        assert set(slot.commit_votes) == {"replica:1"}
        assert replica.executed_batches == 0

    def test_pbft_prepares_for_another_proposal_do_not_prepare(self, auths):
        """PREPARE(d_B) from 2 and 3, then PRE-PREPARE(A): A has the
        replica's own PREPARE only, so it is not prepared and sends no
        COMMIT."""
        replica = PbftReplica("replica:1", make_config(), auths["replica:1"])
        batch_a, batch_b = self._batches()
        digest_b = shared_digest("pbft", 0, 0, batch_b.digest())
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PbftPrepare(
                view=0, sequence=0, batch_digest=digest_b,
                replica_id=sender), 0.5)
        output = replica.deliver("replica:0", PbftPrePrepare(
            view=0, sequence=0, batch=batch_a), 1.0)
        slot = replica._slot(0, 0)
        assert not slot.prepared
        assert set(slot.prepare_votes) == {"replica:1"}
        assert not any(isinstance(action.message, PbftCommit)
                       for action in output.broadcasts())

    def test_pbft_commits_for_another_proposal_do_not_commit(self, auths):
        replica = PbftReplica("replica:1", make_config(), auths["replica:1"])
        batch_a, batch_b = self._batches()
        digest_b = shared_digest("pbft", 0, 0, batch_b.digest())
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PbftCommit(
                view=0, sequence=0, batch_digest=digest_b,
                replica_id=sender), 0.5)
        replica.deliver("replica:0", PbftPrePrepare(
            view=0, sequence=0, batch=batch_a), 1.0)
        slot = replica._slot(0, 0)
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PbftPrepare(
                view=0, sequence=0, batch_digest=slot.batch_digest,
                replica_id=sender), 2.0)
        assert slot.prepared and not slot.committed
        assert set(slot.commit_votes) == {"replica:1"}
        assert replica.executed_batches == 0

    def test_pbft_early_commits_for_the_proposal_count(self, auths):
        replica = PbftReplica("replica:1", make_config(), auths["replica:1"])
        batch_a, _ = self._batches()
        digest_a = shared_digest("pbft", 0, 0, batch_a.digest())
        for sender in ("replica:2", "replica:3"):
            replica.deliver(sender, PbftCommit(
                view=0, sequence=0, batch_digest=digest_a,
                replica_id=sender), 0.5)
            replica.deliver(sender, PbftPrepare(
                view=0, sequence=0, batch_digest=digest_a,
                replica_id=sender), 0.5)
        replica.deliver("replica:0", PbftPrePrepare(
            view=0, sequence=0, batch=batch_a), 1.0)
        slot = replica._slot(0, 0)
        assert slot.prepared and slot.committed
        assert replica.executed_batches == 1


class TestCheckpointVoteCounting:
    def test_duplicate_checkpoint_votes_do_not_stabilise(self):
        tracker = CheckpointTracker(quorum=3, index_map=build_index_map(REPLICAS))
        tracker.record_vote(9, b"d", "replica:0")
        tracker.record_vote(9, b"d", "replica:0")
        assert tracker.record_vote(9, b"d", "replica:1").count == 2
        assert tracker.stable_sequence == -1
        assert tracker.record_vote(9, b"d", "replica:2").count == 3
        assert tracker.stable_sequence == 9

    def test_votes_split_by_digest(self):
        tracker = CheckpointTracker(quorum=2, index_map=build_index_map(REPLICAS))
        tracker.record_vote(9, b"one", "replica:0")
        assert tracker.record_vote(9, b"two", "replica:1").count == 1
        assert tracker.stable_sequence == -1
        tracker.record_vote(9, b"one", "replica:2")
        assert tracker.stable_sequence == 9


class TestCheckpointTally:
    """One tally per ``(sequence, digest)`` answers both checkpoint rules:
    stability at ``2f + 1`` voters and "vouched" at ``f + 1`` voters other
    than the replica itself.  n = 7, so f + 1 = 3 and 2f + 1 = 5."""

    MEMBERS = [f"replica:{i}" for i in range(7)]
    ME = "replica:3"

    @pytest.fixture
    def replica(self):
        auths = make_authenticators(self.MEMBERS, ["client:0"], seed=b"tally")
        config = NodeConfig(replica_ids=self.MEMBERS, batch_size=3,
                            checkpoint_interval=10)
        return PoeReplica(self.ME, config, auths[self.ME])

    @staticmethod
    def vote(replica, sender, sequence=9, state_digest=b"d"):
        """Deliver one checkpoint vote; return the transfer requests sent."""
        output = replica.deliver(sender, CheckpointMessage(
            sequence=sequence, state_digest=state_digest, replica_id=sender), 1.0)
        return [send.message for send in output.sends()
                if isinstance(send.message, StateTransferRequest)]

    def test_own_vote_never_counts_toward_vouching(self, replica):
        replica._record_checkpoint_vote(9, b"d", self.ME, 1.0)
        assert self.vote(replica, "replica:0") == []
        assert self.vote(replica, "replica:1") == []
        # Three voters, one of them this replica: not vouched.
        assert replica.checkpoints._votes[(9, b"d")].count == 3
        assert 9 not in replica._verified_checkpoint_digests
        # The third *other* sender completes f + 1.
        assert [r.sequence for r in self.vote(replica, "replica:2")] == [9]
        assert replica._verified_checkpoint_digests[9] == b"d"

    def test_one_transfer_request_per_boundary(self, replica):
        requests = [self.vote(replica, f"replica:{i}") for i in (0, 1, 2, 4)]
        # The tally is not reset by the request; the votes after it find
        # the boundary already asked for.
        assert [len(sent) for sent in requests] == [0, 0, 1, 0]
        assert replica.checkpoints._votes[(9, b"d")].count == 4
        assert replica._state_transfer_requested_upto == 9

    def test_votes_at_or_below_stable_are_ignored_by_both_rules(self, replica):
        for sender in ("replica:0", "replica:1", "replica:2", "replica:4",
                       "replica:5"):
            self.vote(replica, sender, sequence=19)
        assert replica.checkpoints.stable_sequence == 19
        assert replica.checkpoints._votes == {}
        for sender in ("replica:0", "replica:1", "replica:2"):
            assert self.vote(replica, sender, sequence=9) == []
            assert self.vote(replica, sender, sequence=19,
                             state_digest=b"other") == []
        assert replica.checkpoints._votes == {}
        assert set(replica._verified_checkpoint_digests) == {19}
        assert replica.checkpoints.stable_digests == {19: b"d"}

    def test_evicted_voter_is_purged_from_the_one_tally(self, replica):
        for sender in ("replica:0", "replica:1"):
            self.vote(replica, sender)
        replica.checkpoints.discard_voter("replica:1")
        # Neither rule counts the evicted vote any more: two other voters
        # are not f + 1 ...
        assert self.vote(replica, "replica:2") == []
        assert 9 not in replica._verified_checkpoint_digests
        # ... and four voters, once a third other sender vouches, are not
        # 2f + 1.
        assert len(self.vote(replica, "replica:4")) == 1
        self.vote(replica, "replica:5")
        assert replica.checkpoints.stable_sequence == -1
        self.vote(replica, "replica:6")
        assert replica.checkpoints.stable_sequence == 9


class TestAuditorBackedRegressions:
    """Full adversarial runs through the aggregated counters."""

    def _run(self, protocol, behavior, **overrides):
        config = ClusterConfig(
            protocol=protocol, num_replicas=4, batch_size=10,
            total_batches=8, request_timeout_ms=100.0, checkpoint_interval=5,
            byzantine=(ByzantineSpec(behavior=behavior, replica_index=0),),
            seed=7, **overrides,
        )
        cluster = Cluster(config)
        auditor = SafetyAuditor.attach(cluster)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        return cluster, auditor

    def test_pbft_replayed_votes_stay_safe(self):
        """Duplicate PREPARE/COMMIT floods must be absorbed idempotently."""
        cluster, auditor = self._run("pbft", "replay")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)

    def test_poe_mac_spoofed_votes_stay_safe(self):
        """Forged-sender supports must not certify a slot (bitset keyed by
        the transport sender, exactly like the set it replaced)."""
        cluster, auditor = self._run("poe-mac", "equivocate-spoof")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)
        live = [r for r in cluster.replicas if not r.crashed
                and r.node_id != replica_id(0)]
        assert max(r.view for r in live) >= 1

"""Tests for the shared baseline-recovery subsystem.

The flipped fault-matrix cells are each pinned by an auditor-backed
regression (SBFT and Zyzzyva recovering from a crashed and from an
equivocating primary, including the n=32 threshold-scheme SBFT view
change and the Zyzzyva proof-of-misbehaviour path); the recovery wire
format and the log behind it are checked as a property of the layer, on
every registered protocol that sits on it; and the pure and
replica-level pieces — speculative-history reconciliation, SBFT's
per-entry rule, collector-timer cancellation on rotation,
commit-certificate anchoring — are unit-tested directly.
"""

import ast
import dataclasses
import pickle
import re
from pathlib import Path

import pytest

from repro.core.view_change import reconcile_speculative_histories
from repro.crypto.authenticator import make_authenticators
from repro.fabric.audit import SafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.fingerprint import replica_fingerprint
from repro.fabric.registry import PROTOCOLS
from repro.fabric.scenarios import ScenarioParams, run_scenario
from repro.net.byzantine import ByzantineSpec
from repro.protocols.base import NodeConfig
from repro.protocols.client_messages import ClientReplyMessage
from repro.protocols.recovery import (
    LogEntry,
    NewView,
    PrimaryBackupReplica,
    ViewChangeRequest,
)
from repro.protocols.sbft import SbftReplica, sbft_proposal_digest
from repro.protocols.zyzzyva import (
    ZyzzyvaCommitCertificate,
    ZyzzyvaOrderRequest,
    ZyzzyvaProofOfMisbehaviour,
    ZyzzyvaReplica,
    ZyzzyvaClientPool,
)
from repro.workload.transactions import make_no_op_batch

REPLICAS = [f"replica:{i}" for i in range(4)]


# --------------------------------------------------------------------------
# The flipped matrix cells, each verified by the safety auditor.
# --------------------------------------------------------------------------

class TestFlippedMatrixCells:
    @pytest.mark.parametrize("protocol,scenario", [
        ("sbft", "primary-crash"),
        ("sbft", "equivocate"),
        ("zyzzyva", "primary-crash"),
        ("zyzzyva", "equivocate"),
    ])
    def test_flipped_cell_is_live_and_safe(self, protocol, scenario):
        """The cells PR 2 documented as expected-stall/expected-unsafe now
        recover: the client budget completes, the auditor finds no
        divergent prefixes or checkpoint-crossing rollbacks, and at least
        one view change actually ran (the recovery is real, not a fluke
        of the fault not biting)."""
        outcome = run_scenario(protocol, scenario)
        assert outcome.live, (
            f"{protocol}×{scenario} stalled: "
            f"{outcome.completed_batches}/{outcome.expected_batches}")
        assert outcome.safe, outcome.audit.summary()
        assert outcome.view_changes >= 1

    def test_sbft_threshold_view_change_at_n32(self):
        """The SBFT view change at deployment scale: n=32 runs the
        threshold scheme with 2f+1 = 21 view-change votes."""
        outcome = run_scenario("sbft", "primary-crash",
                               ScenarioParams(num_replicas=32, total_batches=6))
        assert outcome.live and outcome.safe, outcome.audit.summary()
        assert outcome.view_changes >= 1

    def test_zyzzyva_proof_of_misbehaviour_path(self):
        """Under an equivocating primary the *client* detects the conflict
        and broadcasts a proof of misbehaviour; replicas accept it and the
        resulting view change converges every honest replica."""
        config = ClusterConfig(
            protocol="zyzzyva", num_replicas=4, batch_size=10,
            total_batches=10, request_timeout_ms=100.0, checkpoint_interval=5,
            byzantine=(ByzantineSpec(behavior="equivocate", replica_index=0),),
            seed=7,
        )
        cluster = Cluster(config)
        auditor = SafetyAuditor.attach(cluster)
        cluster.start()
        cluster.run_until_done(max_ms=60_000)
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)
        assert sum(pool.proofs_of_misbehaviour_sent
                   for pool in cluster.pools) >= 1
        honest = [replica for replica in cluster.replicas
                  if replica.node_id != replica_id(0)]
        assert any(replica.proofs_of_misbehaviour_accepted > 0
                   for replica in honest)
        assert all(replica.view >= 1 for replica in honest)
        # Convergence is literal: one executed prefix across honest replicas.
        digests = {replica.executor.state_digest() for replica in honest}
        assert len(digests) == 1


# --------------------------------------------------------------------------
# The recovery wire format and the log behind it, as a layer property.
# --------------------------------------------------------------------------

#: Every registered protocol on the primary-backup layer (PoE under its
#: four keys, PBFT, SBFT, Zyzzyva); a new one is covered by being registered.
LAYER_PROTOCOLS = sorted(
    name for name, spec in PROTOCOLS.items()
    if issubclass(spec.replica_cls, PrimaryBackupReplica))


@pytest.fixture(scope="module", params=LAYER_PROTOCOLS)
def logged_cluster(request):
    """A finished seven-batch run with a checkpoint every four slots: each
    replica holds a stable checkpoint at 3 and three logged slots above it,
    written by its own protocol's phases."""
    cluster = Cluster(ClusterConfig(
        protocol=request.param, num_replicas=4, batch_size=2, total_batches=7,
        client_outstanding=1, checkpoint_interval=4, seed=5))
    cluster.start()
    cluster.run_until_done(max_ms=10_000.0)
    cluster.run_for(20.0)  # let the last checkpoint votes land
    return cluster


class TestRecoveryWireFormat:
    def test_the_two_recovery_rows_route_to_the_layer(self, logged_cluster):
        table = type(logged_cluster.replicas[0])._DISPATCH_TABLE
        recovery_rows = {message_cls: handler for message_cls, handler in table.items()
                         if handler in ("handle_view_change_message",
                                        "handle_new_view_message")}
        assert recovery_rows == {ViewChangeRequest: "handle_view_change_message",
                                 NewView: "handle_new_view_message"}
        for handler in recovery_rows.values():
            assert getattr(PrimaryBackupReplica, handler) is getattr(
                type(logged_cluster.replicas[0]), handler)

    def test_a_stable_checkpoint_leaves_only_the_slots_above_it(self, logged_cluster):
        for replica in logged_cluster.replicas:
            assert replica.checkpoints.stable_sequence == 3
            assert sorted(replica._log) == [4, 5, 6]

    def test_request_reports_the_log_above_the_stable_checkpoint(self, logged_cluster):
        sender, receiver = logged_cluster.replicas[1], logged_cluster.replicas[2]
        request = sender.build_view_change_request(0)
        assert type(request) is ViewChangeRequest
        assert (request.view, request.replica_id, request.stable_checkpoint) == (
            0, sender.node_id, 3)
        assert all(type(entry) is LogEntry for entry in request.executed)
        assert [entry.sequence for entry in request.executed] == [4, 5, 6]
        assert [entry.batch for entry in request.executed] == [
            sender.executor.executed(sequence).batch for sequence in (4, 5, 6)]
        # The protocol's own admission rule takes it as it is, and refuses
        # it for another view or with a hole in the run.
        assert receiver.validate_view_change_request_message(request, 0)
        assert not receiver.validate_view_change_request_message(request, 1)
        holed = dataclasses.replace(
            request, executed=(request.executed[0], request.executed[2]))
        assert not receiver.validate_view_change_request_message(holed, 0)

    def test_messages_and_a_logging_replica_survive_pickling(self, logged_cluster):
        replica = logged_cluster.replicas[1]
        request = replica.build_view_change_request(0)
        new_view = NewView(new_view=1, requests=(request,))
        assert pickle.loads(pickle.dumps(request)) == request
        assert pickle.loads(pickle.dumps(new_view)) == new_view
        clone = pickle.loads(pickle.dumps(replica))
        assert clone._log == replica._log and len(clone._log) == 3
        assert clone.build_view_change_request(0) == request

    def test_rollback_pops_the_reverted_slots(self, logged_cluster):
        # On a copy: the fixture's cluster is shared by the whole class.
        replica = pickle.loads(pickle.dumps(logged_cluster.replicas[3]))
        replica.rollback_speculation(4, now_ms=100.0)
        assert replica.last_executed_sequence == 4
        assert sorted(replica._log) == [4]
        assert [entry.sequence for entry in
                replica.build_view_change_request(0).executed] == [4]


    def test_one_tally_per_view_holds_voters_and_their_requests(self, logged_cluster):
        """``_vc_votes[view]`` maps every sender to its admissible request or
        ``None``: its keys are the voters of the join rule (and what the
        model checker's fingerprint counts), its non-``None`` values what
        the next primary builds a NEW-VIEW from."""
        # On a copy of replica:1, the primary of view 1.
        replica = pickle.loads(pickle.dumps(logged_cluster.replicas[1]))
        good = {peer.node_id: peer.build_view_change_request(0)
                for peer in logged_cluster.replicas}
        holed = {sender: dataclasses.replace(request, executed=request.executed[1:])
                 for sender, request in good.items()}
        replica.deliver("replica:2", holed["replica:2"], 100.0)
        assert replica._vc_votes == {0: {"replica:2": None}}
        assert not replica.view_change_in_progress
        # A second voter is f + 1: the replica joins with its own request.
        replica.deliver("replica:3", good["replica:3"], 101.0)
        assert replica.view_change_in_progress
        # An inadmissible repeat does not displace the request already held.
        replica.deliver("replica:3", holed["replica:3"], 102.0)
        assert replica._vc_votes == {0: {
            "replica:2": None, "replica:3": good["replica:3"],
            "replica:1": good["replica:1"]}}
        assert replica_fingerprint(replica)[-2] == ((0, 3),)
        # Three voters but two usable requests: no NEW-VIEW yet.  The third
        # admissible request completes the quorum, and entering view 1
        # prunes the tally of view 0.
        assert replica.view == 0
        output = replica.deliver("replica:2", good["replica:2"], 103.0)
        proposals = [action.message for action in output.broadcasts()
                     if isinstance(action.message, NewView)]
        assert [[request.replica_id for request in proposal.requests]
                for proposal in proposals] == [
                    ["replica:1", "replica:2", "replica:3"]]
        assert replica.view == 1 and replica._vc_votes == {}
        assert replica_fingerprint(replica)[-2] == ()


def test_recovery_types_are_defined_only_by_the_layer():
    """The fork must not quietly come back: no module but
    ``protocols/recovery.py`` defines a class named like a view-change
    request, a new-view or a log entry, or with the fields of one of the
    two messages."""
    src = Path(__file__).resolve().parent.parent / "src"
    named = re.compile(r"ViewChange|NewView|CertifiedEntry|ExecutedEntry"
                       r"|CertifiedSlot|HistoryEntry|LogEntry")
    shapes = ({"stable_checkpoint", "executed"}, {"new_view", "requests"})
    found = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)}
            if named.search(node.name) or any(shape <= fields for shape in shapes):
                found.add((path.relative_to(src).as_posix(), node.name))
    assert found == {
        ("repro/protocols/recovery.py", "LogEntry"),
        ("repro/protocols/recovery.py", "ViewChangeRequest"),
        ("repro/protocols/recovery.py", "NewView"),
        # Figure 10's result record: a timeline, not a message.
        ("repro/fabric/timeline.py", "ViewChangeTimeline"),
    }


# --------------------------------------------------------------------------
# Zyzzyva history reconciliation (pure function).
# --------------------------------------------------------------------------

def _entry(sequence, label, view=0):
    batch = make_no_op_batch(label, "client:0", 2)
    return LogEntry(sequence=sequence, view=view, batch=batch,
                    digest=b"h%d" % sequence)


def _request(replica, entries, checkpoint=-1, cc=None):
    return ViewChangeRequest(view=0, replica_id=replica,
                             stable_checkpoint=checkpoint,
                             certificate=cc, executed=tuple(entries))


class TestReconcileSpeculativeHistories:
    def test_unanimous_histories_are_adopted_whole(self):
        entries = [_entry(seq, f"b{seq}") for seq in range(3)]
        requests = [_request(f"replica:{i}", entries) for i in range(3)]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 2
        assert sorted(prefix) == [0, 1, 2]

    def test_minority_entries_above_anchor_are_dropped(self):
        """A speculative slot only one of 2f+1 requests reports cannot have
        completed on the fast path, so it does not survive the view change."""
        shared = [_entry(0, "b0")]
        ahead = shared + [_entry(1, "b1-only-here")]
        requests = [_request("replica:1", shared), _request("replica:2", shared),
                    _request("replica:3", ahead)]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 0
        assert sorted(prefix) == [0]

    def test_fast_path_batch_survives_any_quorum(self):
        """A batch executed by every honest replica appears in >= f+1 of any
        2f+1 view-change requests and must be retained (the Zyzzyva
        analogue of PoE's Proposition 5)."""
        entries = [_entry(0, "b0"), _entry(1, "completed-fast-path")]
        requests = [_request("replica:1", entries), _request("replica:2", entries),
                    _request("replica:3", entries[:1])]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 1
        assert prefix[1].batch.batch_id == "completed-fast-path"

    def test_conflicting_slots_resolve_deterministically(self):
        """When two histories conflict at a slot and neither can have
        completed, support count decides (digest order breaks exact ties)
        — identically on every replica."""
        real = [_entry(0, "real-b0")]
        forged = [_entry(0, "forged-b0")]
        requests = [_request("replica:1", real), _request("replica:2", forged),
                    _request("replica:3", forged)]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 0
        assert prefix[0].batch.batch_id == "forged-b0"
        # The same requests in any order adopt the same entry.
        again, _ = reconcile_speculative_histories(list(reversed(requests)), f=1)
        assert again[0].batch.batch_id == "forged-b0"

    def test_commit_certificate_anchors_kmax(self):
        """A corroborated commit certificate proves durability at its
        sequence: the new view never starts below it, even when the
        certified slots lack f+1 speculative support.  Only the certified
        slot itself stays adoptable — an uncertified sub-anchor entry with
        one supporter is left to state transfer, because a bare plurality
        there could be a forged history.  (A genuine certificate always
        has f+1 carriers: the 2f+1 responders all stored it.)"""
        entries = [_entry(0, "b0"), _entry(1, "b1")]
        cc = ZyzzyvaCommitCertificate(
            batch_id="b1", view=0, sequence=1, result_digest=b"r",
            responders=("replica:0", "replica:1", "replica:2"))
        requests = [_request("replica:1", entries, cc=cc),
                    _request("replica:2", [], cc=cc),
                    _request("replica:3", [])]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 1
        assert sorted(prefix) == [1]
        assert prefix[1].batch.batch_id == "b1"

    def test_single_carrier_certificate_does_not_anchor(self):
        """One request's certificate is an unverifiable MAC-mode claim: a
        lone forger must not raise the anchor (re-basing the new view past
        a permanent gap) or win a slot with it."""
        entries = [_entry(0, "b0"), _entry(1, "b1")]
        cc = ZyzzyvaCommitCertificate(
            batch_id="b1", view=0, sequence=1, result_digest=b"r",
            responders=("replica:0", "replica:1", "replica:2"))
        requests = [_request("replica:1", entries, cc=cc),
                    _request("replica:2", []), _request("replica:3", [])]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == -1
        assert prefix == {}
        forged_future = ZyzzyvaCommitCertificate(
            batch_id="void", view=0, sequence=10**6, result_digest=b"r",
            responders=("replica:0", "replica:1", "replica:2"))
        requests = [_request("replica:1", [], cc=forged_future),
                    _request("replica:2", []), _request("replica:3", [])]
        from repro.core.view_change import speculative_anchor
        assert speculative_anchor(requests, f=1).anchor == -1

    def test_certificate_cannot_corroborate_itself(self):
        """One request shipping the same forged certificate at request
        level *and* on its entry counts as one carrier, not two — a lone
        forger must not clear the f+1 corroboration bar alone."""
        forged_entry = _entry(1, "forged-b1")
        cc = ZyzzyvaCommitCertificate(
            batch_id="forged-b1", view=0, sequence=1, result_digest=b"r",
            responders=("replica:0", "replica:1", "replica:2"))
        doubled = LogEntry(
            sequence=1, view=0, batch=forged_entry.batch,
            digest=b"h1", proof=cc)
        requests = [_request("replica:1", [_entry(0, "b0"), doubled], cc=cc),
                    _request("replica:2", []), _request("replica:3", [])]
        from repro.core.view_change import (
            corroborated_certificates,
            speculative_anchor,
        )
        assert corroborated_certificates(requests, f=1) == {}
        assert speculative_anchor(requests, f=1).anchor == -1
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == -1 and prefix == {}

    def test_stable_checkpoint_anchors_kmax(self):
        requests = [_request("replica:1", [], checkpoint=7),
                    _request("replica:2", []), _request("replica:3", [])]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert prefix == {}
        assert kmax == 7

    def test_empty_requests_yield_genesis(self):
        requests = [_request(f"replica:{i}", []) for i in range(3)]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert prefix == {}
        assert kmax == -1

    def test_certified_entry_beats_plurality(self):
        """A slot whose commit certificate is corroborated (f+1 carriers)
        adopts the certified batch even when a conflicting uncertified
        digest has *more* supporters: the certificate proves 2f+1 replicas
        answered the certified batch, and the client may have completed
        on it."""
        certified_batch = _entry(0, "certified-b0")
        cc = ZyzzyvaCommitCertificate(
            batch_id="certified-b0", view=0, sequence=0, result_digest=b"r",
            responders=("replica:0", "replica:1", "replica:2"))
        certified = LogEntry(
            sequence=0, view=0, batch=certified_batch.batch,
            digest=b"h0", proof=cc)
        conflicting = [_entry(0, "conflicting-b0")]
        requests = [_request("replica:0", [certified]),
                    _request("replica:1", [certified]),
                    _request("replica:2", conflicting),
                    _request("replica:3", conflicting),
                    _request("replica:4", conflicting)]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 0
        assert prefix[0].batch.batch_id == "certified-b0"
        assert prefix[0].proof is not None

    def test_forged_sub_anchor_entry_needs_certificate_or_support(self):
        """The Hellings & Rahnama corner: below the anchor a single forged
        request must not be able to hand lagging replicas fabricated
        batches — uncertified sub-anchor entries need f+1 matching
        requests, and slots without either are left to state transfer."""
        forged = [_entry(seq, f"forged-b{seq}") for seq in range(5)]
        requests = [_request("replica:1", [], checkpoint=4),
                    _request("replica:2", [], checkpoint=4),
                    _request("replica:3", forged)]
        prefix, kmax = reconcile_speculative_histories(requests, f=1)
        assert kmax == 4
        assert prefix == {}

    def test_randomized_forged_history_adversary(self):
        """Property sweep (seeded): one adversarial request fabricating
        arbitrary histories can never (a) place an uncertified entry at a
        sub-anchor slot without honest agreement, nor (b) displace an
        honest entry that f+1 honest requests support."""
        import random
        rng = random.Random(0xF06)
        for trial in range(50):
            checkpoint = rng.randrange(-1, 6)
            honest_top = checkpoint + rng.randrange(0, 4)
            honest = [_entry(seq, f"honest-{seq}")
                      for seq in range(checkpoint + 1, honest_top + 1)]
            forged_top = rng.randrange(0, 10)
            forged = [_entry(seq, f"forged-{trial}-{seq}")
                      for seq in range(forged_top + 1)]
            requests = [_request("replica:1", honest, checkpoint=checkpoint),
                        _request("replica:2", honest, checkpoint=checkpoint),
                        _request("replica:3", forged, checkpoint=-1)]
            rng.shuffle(requests)
            prefix, kmax = reconcile_speculative_histories(requests, f=1)
            for sequence, entry in prefix.items():
                if entry.batch.batch_id.startswith("forged"):
                    # A forged entry can only survive above the anchor at
                    # slots no honest entry contests (it then has the only
                    # support and rides the permissive above-anchor rule
                    # until the next uncovered slot; agreement still holds
                    # because every replica adopts the same entry).
                    assert sequence > checkpoint
                    assert all(h.sequence != sequence for h in honest)
            for entry in honest:
                if entry.sequence <= kmax:
                    assert prefix[entry.sequence].batch.batch_id == \
                        f"honest-{entry.sequence}"

    def test_anchor_is_monotonic_in_requests(self):
        """Adding requests can only raise the anchor, never lower it — and
        the adopted kmax never drops below the highest proven durable
        point (anchor monotonicity)."""
        from repro.core.view_change import speculative_anchor
        base = [_request("replica:1", [], checkpoint=3),
                _request("replica:2", [], checkpoint=1)]
        info = speculative_anchor(base, f=1)
        assert info.anchor == 3 and info.checkpoint == 3
        cc = ZyzzyvaCommitCertificate(
            batch_id="b9", view=0, sequence=9, result_digest=b"r",
            responders=("replica:0", "replica:1", "replica:2"))
        more = base + [_request("replica:3", [], checkpoint=2, cc=cc),
                       _request("replica:4", [], checkpoint=2, cc=cc)]
        grown = speculative_anchor(more, f=1)
        assert grown.anchor == 9
        assert grown.checkpoint == 3
        _, kmax = reconcile_speculative_histories(more, f=1)
        assert kmax >= grown.anchor

    def test_anchor_digest_requires_f_plus_1_agreement(self):
        """A single request claiming an arbitrary digest for the durable
        state must not have it believed: the checkpoint digest is only
        reported when f+1 requests agree on it."""
        from repro.core.view_change import speculative_anchor
        lone = [_request("replica:1", [], checkpoint=4),
                _request("replica:2", [], checkpoint=-1),
                _request("replica:3", [], checkpoint=-1)]
        lone[0].checkpoint_digest = b"claimed"
        assert speculative_anchor(lone, f=1).checkpoint_digest is None
        agreeing = [_request("replica:1", [], checkpoint=4),
                    _request("replica:2", [], checkpoint=4),
                    _request("replica:3", [], checkpoint=-1)]
        agreeing[0].checkpoint_digest = b"quorum"
        agreeing[1].checkpoint_digest = b"quorum"
        assert speculative_anchor(agreeing, f=1).checkpoint_digest == b"quorum"


# --------------------------------------------------------------------------
# Zyzzyva replica: adoption, rollback, proof of misbehaviour.
# --------------------------------------------------------------------------

def _zyzzyva_replica(seed, rid="replica:3"):
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        execute_operations=True, request_timeout_ms=100.0)
    auths = make_authenticators(REPLICAS, ["client:0"], seed=seed)
    return ZyzzyvaReplica(rid, config, auths[rid])


class TestZyzzyvaViewChange:
    def test_divergent_history_is_rolled_back_to_the_adopted_prefix(self):
        """A replica that speculatively executed a different batch at an
        adopted slot (the equivocation victim) must roll back to the last
        agreement point and re-execute the adopted history."""
        replica = _zyzzyva_replica(b"zyz-adopt")
        mine = make_no_op_batch("real-b0", "client:0", 2)
        replica.deliver("replica:0", ZyzzyvaOrderRequest(
            view=0, sequence=0, batch=mine, history_digest=b"h0"), 1.0)
        assert replica.last_executed_sequence == 0
        adopted = [_entry(0, "forged-b0"), _entry(1, "forged-b1")]
        requests = tuple(_request(f"replica:{i}", adopted) for i in (1, 2, 3))
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.view == 1
        assert replica.last_executed_sequence == 1
        assert replica.rolled_back_batches == 1
        assert replica.rollback_log == [(-1, -1)]
        assert replica.blockchain.block_at(0).payload == "forged-b0"
        assert replica.blockchain.block_at(1).payload == "forged-b1"
        # The rolled-back batch is acceptable again on retransmission.
        assert "real-b0" not in replica._seen_batch_ids

    def test_matching_history_is_kept_without_rollback(self):
        replica = _zyzzyva_replica(b"zyz-keep")
        batch = make_no_op_batch("b0", "client:0", 2)
        replica.deliver("replica:0", ZyzzyvaOrderRequest(
            view=0, sequence=0, batch=batch, history_digest=b"h0"), 1.0)
        entry = LogEntry(sequence=0, view=0, batch=batch, digest=b"h0")
        requests = tuple(_request(f"replica:{i}", [entry]) for i in (1, 2, 3))
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.view == 1
        assert replica.rolled_back_batches == 0
        assert replica.rollback_log == []
        assert replica.blockchain.block_at(0).payload == "b0"

    def test_empty_new_view_from_byzantine_leader_is_rejected(self):
        """Regression: a NEW-VIEW without a quorum of admissible requests
        must not be adopted — an empty one would anchor reconciliation at
        -1 and roll the replica's entire speculative history back."""
        replica = _zyzzyva_replica(b"zyz-empty-nv")
        batch = make_no_op_batch("b0", "client:0", 2)
        replica.deliver("replica:0", ZyzzyvaOrderRequest(
            view=0, sequence=0, batch=batch, history_digest=b"h0"), 1.0)
        replica.deliver("replica:1", NewView(new_view=1, requests=()), 5.0)
        assert replica.view == 0
        assert replica.last_executed_sequence == 0
        assert replica.rolled_back_batches == 0
        # Rejecting the proposal treats the new leader as faulty.
        assert replica.view_change_in_progress

    def test_padded_forged_request_does_not_extend_the_prefix(self):
        """Regression: a Byzantine leader can bundle a quorum of valid
        requests plus a forged extra one; entries from the inadmissible
        request must not reach reconciliation."""
        replica = _zyzzyva_replica(b"zyz-padded")
        shared = [_entry(0, "b0")]
        forged = _request("replica:0", [_entry(5, "forged-gap-entry")],
                          checkpoint=3)  # non-consecutive: inadmissible
        requests = tuple(_request(f"replica:{i}", shared) for i in (1, 2, 3))
        replica.deliver("replica:1",
                        NewView(new_view=1, requests=requests + (forged,)),
                        5.0)
        assert replica.view == 1
        assert replica.last_executed_sequence == 0
        assert replica.blockchain.block_at(0).payload == "b0"

    def test_stuffed_new_view_with_duplicate_requests_is_rejected(self):
        """Regression: a Byzantine new primary must not reach the quorum
        (or any downstream f+1 threshold) by stuffing the NEW-VIEW with
        copies of one forged request — only one admissible request per
        claimed replica id counts."""
        replica = _zyzzyva_replica(b"zyz-stuffed")
        batch = make_no_op_batch("b0", "client:0", 2)
        replica.deliver("replica:0", ZyzzyvaOrderRequest(
            view=0, sequence=0, batch=batch, history_digest=b"h0"), 1.0)
        forged = _request("replica:1", [_entry(0, "forged-b0")])
        replica.deliver("replica:1", NewView(
            new_view=1, requests=(forged, forged, forged)), 5.0)
        assert replica.view == 0                      # proposal rejected
        assert replica.rolled_back_batches == 0
        assert replica.blockchain.block_at(0).payload == "b0"
        assert replica.view_change_in_progress        # leader treated as faulty

    def test_valid_pom_starts_a_view_change(self):
        replica = _zyzzyva_replica(b"zyz-pom")
        pom = ZyzzyvaProofOfMisbehaviour(
            view=0, client_id="client:0",
            evidence=((0, 3, "real-b3", b"d1"), (0, 3, "byz:forged", b"d2")))
        output = replica.deliver("client:0", pom, 1.0)
        assert replica.view_change_in_progress
        assert replica.proofs_of_misbehaviour_accepted == 1
        assert any(isinstance(action.message, ViewChangeRequest)
                   for action in output.broadcasts())

    @pytest.mark.parametrize("evidence", [
        (),                                                   # empty
        ((0, 3, "b", b"d1"),),                                # single response
        ((0, 3, "b", b"d1"), (0, 3, "b", b"d1")),             # no conflict
        ((0, 3, "b", b"d1"), (0, 4, "b", b"d2")),             # different slots
        ((2, 3, "b", b"d1"), (2, 3, "b", b"d2")),             # wrong view
    ])
    def test_malformed_pom_is_ignored(self, evidence):
        replica = _zyzzyva_replica(b"zyz-pom-bad")
        pom = ZyzzyvaProofOfMisbehaviour(view=evidence[0][0] if evidence else 0,
                                         evidence=evidence, client_id="client:0")
        replica.deliver("client:0", pom, 1.0)
        assert not replica.view_change_in_progress
        assert replica.proofs_of_misbehaviour_accepted == 0


class TestZyzzyvaClientDetection:
    def test_conflicting_speculative_replies_produce_a_pom(self):
        """The client observes a forged ordering at its own slot (the reply
        references a batch it never sent) and emits the proof."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1,
                            request_timeout_ms=50.0)
        pool = ZyzzyvaClientPool("client:0", config, total_batches=1,
                                 target_outstanding=1, timeout_ms=50.0)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        pool.deliver("replica:1", ClientReplyMessage(
            batch_id=batch_id, view=0, sequence=0, result_digest=b"real",
            replica_id="replica:1", speculative=True), 1.0)
        # The conflicting second response is itself the proof: the POM goes
        # out immediately, not on the next request timeout.
        output = pool.deliver("replica:2", ClientReplyMessage(
            batch_id="byz:forged:0", view=0, sequence=0, result_digest=b"forged",
            replica_id="replica:2", speculative=True), 2.0)
        poms = [action.message for action in output.broadcasts()
                if isinstance(action.message, ZyzzyvaProofOfMisbehaviour)]
        assert len(poms) == 1
        assert pool.proofs_of_misbehaviour_sent == 1
        first, second = poms[0].evidence
        assert first[:2] == second[:2] == (0, 0)
        assert first[2:] != second[2:]
        # One proof per view: a later timeout does not re-broadcast it.
        repeat = pool.timer_fired(f"request:{batch_id}", batch_id, 51.0)
        assert not any(isinstance(action.message, ZyzzyvaProofOfMisbehaviour)
                       for action in repeat.broadcasts())

    def test_consistent_replies_produce_no_pom(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=1,
                            request_timeout_ms=50.0)
        pool = ZyzzyvaClientPool("client:0", config, total_batches=1,
                                 target_outstanding=1, timeout_ms=50.0)
        pool.start(0.0)
        batch_id = list(pool._pending)[0]
        for i in (1, 2):
            pool.deliver(f"replica:{i}", ClientReplyMessage(
                batch_id=batch_id, view=0, sequence=0, result_digest=b"real",
                replica_id=f"replica:{i}", speculative=True), float(i))
        output = pool.timer_fired(f"request:{batch_id}", batch_id, 51.0)
        assert not any(isinstance(action.message, ZyzzyvaProofOfMisbehaviour)
                       for action in output.broadcasts())
        assert pool.proofs_of_misbehaviour_sent == 0


# --------------------------------------------------------------------------
# SBFT: view-change request validation and collector-timer hygiene.
# --------------------------------------------------------------------------

def _sbft_replica(auths, rid="replica:0"):
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        execute_operations=True, request_timeout_ms=100.0)
    return SbftReplica(rid, config, auths[rid])


def _certified_slot(auths, sequence, view=0, label=None, certificate=None):
    batch = make_no_op_batch(label or f"batch-{sequence}", "client:0", 2)
    digest_h = sbft_proposal_digest(view, sequence, batch)
    if certificate is None:
        shares = [auths[rid].threshold_share(digest_h) for rid in REPLICAS[:3]]
        certificate = auths[REPLICAS[0]].threshold_aggregate(shares)
    return LogEntry(sequence=sequence, view=view, digest=digest_h, batch=batch,
                    proof=certificate)


@pytest.fixture(scope="module")
def auths():
    return make_authenticators(REPLICAS, ["client:0"], seed=b"sbft-recovery")


class TestSbftViewChangeValidation:
    """SBFT's per-entry rule; the walk around it is the layer's
    (:class:`TestRecoveryWireFormat`)."""

    def test_forged_certificate_rejected(self, auths):
        """A commit proof from a different slot does not certify this one —
        the per-slot threshold signature is re-verified on admission."""
        replica = _sbft_replica(auths)
        other = _certified_slot(auths, 0, label="other-batch")
        forged = _certified_slot(auths, 0, certificate=other.proof,
                                 label="victim-batch")
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=(forged,))
        assert not replica.validate_view_change_request_message(request, 0)

    def test_missing_certificate_rejected(self, auths):
        replica = _sbft_replica(auths)
        entry = _certified_slot(auths, 0)
        stripped = LogEntry(
            sequence=0, view=0, digest=entry.digest,
            batch=entry.batch, proof=None)
        request = ViewChangeRequest(view=0, replica_id="replica:1",
                                    stable_checkpoint=-1, executed=(stripped,))
        assert not replica.validate_view_change_request_message(request, 0)


class TestSbftViewChangeAdoption:
    def test_stale_pending_slot_is_evicted_before_the_prefix_executes(self, auths):
        """Regression: a certified-but-unexecuted slot from the old view
        that the adopted prefix does not cover must be evicted, or
        in-order execution drains it right behind the prefix and the
        replica diverges (the PoE stale-slot hazard, SBFT edition)."""
        replica = _sbft_replica(auths, rid="replica:3")
        stale = _certified_slot(auths, 1, label="stale-view0-batch")
        # Slot 1 committed in view 0 but stuck behind the gap at 0.
        replica.commit_slot(sequence=1, view=0, batch=stale.batch,
                            proof=stale.proof, now_ms=1.0)
        assert replica.last_executed_sequence == -1
        adopted = (_certified_slot(auths, 0, label="adopted-b0"),)
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=adopted)
            for i in (0, 1, 2)
        )
        replica.deliver("replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.view == 1
        assert replica.last_executed_sequence == 0
        assert replica.blockchain.block_at(0).payload == "adopted-b0"
        assert 1 not in replica._committed

    def test_forged_padding_request_does_not_extend_the_prefix(self, auths):
        """Entries from an inadmissible request bundled alongside a valid
        quorum must not reach prefix selection."""
        replica = _sbft_replica(auths, rid="replica:3")
        adopted = (_certified_slot(auths, 0, label="adopted-b0"),)
        other = _certified_slot(auths, 1, label="other-batch")
        forged = ViewChangeRequest(
            view=0, replica_id="replica:0", stable_checkpoint=-1,
            executed=adopted + (LogEntry(
                sequence=1, view=0, digest=other.digest,
                batch=make_no_op_batch("victim-batch", "client:0", 2),
                proof=other.proof),))
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=adopted)
            for i in (1, 2, 3)
        )
        replica.deliver("replica:1",
                        NewView(new_view=1, requests=requests + (forged,)),
                        5.0)
        assert replica.view == 1
        assert replica.last_executed_sequence == 0
        assert replica.blockchain.block_at(0).payload == "adopted-b0"


class TestSbftCollectorTimers:
    def _propose_one(self, auths):
        replica = _sbft_replica(auths, rid="replica:0")
        batch = make_no_op_batch("b0", "client:0", 2)
        replica.create_proposal(0, batch, 0.0)
        replica._collect()
        assert (0, 0) in replica._collector_timers
        return replica

    def test_view_advance_cancels_stale_collector_timers(self, auths):
        """Regression: collector timers armed in the old view used to leak
        across a view change; the stale timeout could fire after the
        collector role rotated away."""
        replica = self._propose_one(auths)
        requests = tuple(
            ViewChangeRequest(view=0, replica_id=f"replica:{i}",
                              stable_checkpoint=-1, executed=())
            for i in (1, 2, 3)
        )
        output = replica.deliver(
            "replica:1", NewView(new_view=1, requests=requests), 5.0)
        assert replica.view == 1
        assert replica._collector_timers == set()
        from repro.protocols.base import CancelTimer
        cancelled = {action.name for action in output.actions
                     if isinstance(action, CancelTimer)}
        assert "collector:0:0" in cancelled

    def test_commit_proof_clears_timer_bookkeeping(self, auths):
        replica = self._propose_one(auths)
        for rid in ("replica:1", "replica:2", "replica:3"):
            share = auths[rid].threshold_share(
                replica._slot(0, 0).proposal_digest)
            from repro.protocols.sbft import SbftSignShare
            replica.deliver(rid, SbftSignShare(
                view=0, sequence=0,
                proposal_digest=replica._slot(0, 0).proposal_digest,
                share=share, replica_id=rid), 1.0)
        assert replica._slot(0, 0).commit_proof_sent
        assert replica._collector_timers == set()

    def test_stale_timer_fire_is_ignored_after_rotation(self, auths):
        replica = self._propose_one(auths)
        replica.view = 1  # rotated without the timer being cancelled
        replica.timer_fired("collector:0:0", (0, 0), 60.0)
        assert (0, 0) not in replica._collector_timers
        assert not replica._slot(0, 0).commit_proof_sent

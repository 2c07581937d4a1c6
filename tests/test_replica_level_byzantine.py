"""Replica-level Byzantine behaviours and the safety machinery closing them.

PR 5 extends the Byzantine layer past the network boundary: a
``ForgedHistoryReplica`` fabricates view-change histories below a commit
certificate it never held, a ``LyingCheckpointer`` serves corrupted
state-transfer/checkpoint responses, and a ``WrongExecutionReplica``
executes a divergent batch at one slot.  Each behaviour has a scenario
row (all live+safe under the fixed code), an engagement check proving the
attack really fires, and a revert-demo showing the auditor — or the new
same-height state-digest repair — catches the violation when the
corresponding fix is monkeypatched back out.
"""

import dataclasses

import pytest

import repro.protocols.zyzzyva as zyzzyva_module
from repro.crypto.authenticator import make_authenticators
from repro.crypto.hashing import digest
from repro.fabric.audit import SafetyAuditor
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.registry import get_spec
from repro.fabric.scenarios import (
    MATRIX_DEPLOYMENT,
    run_scenario,
    scenario_cluster_config,
)
from repro.net.byzantine import (
    Delivery,
    ForgedHistoryReplica,
    LyingCheckpointer,
    WrongExecutionReplica,
    make_behavior,
)
from repro.protocols.base import Broadcast, NodeConfig, Send
from repro.protocols.checkpoint import (
    CheckpointMessage,
    StateTransferRequest,
    StateTransferResponse,
)
from repro.protocols.client_messages import (
    ClientReplyMessage,
    ClientRequestMessage,
)
from repro.protocols.hotstuff import (
    HotStuffFetchRequest,
    HotStuffFetchResponse,
    HotStuffProposal,
    HotStuffReplica,
    HotStuffVote,
    QuorumCertificate,
)
from repro.protocols.recovery import ViewChangeRequest
from repro.protocols.replica_base import BatchingReplica
from repro.protocols.zyzzyva import (
    ZyzzyvaCommitCertificate,
    ZyzzyvaLocalCommit,
    ZyzzyvaOrderRequest,
    ZyzzyvaReplica,
)
from repro.workload.transactions import make_no_op_batch

REPLICAS = [f"replica:{i}" for i in range(4)]


def run_cell(protocol, scenario, total_batches=10, seed=11, max_ms=60_000.0):
    """Run one fault-matrix cell and return (cluster, auditor)."""
    base = dataclasses.replace(MATRIX_DEPLOYMENT, total_batches=total_batches,
                               seed=seed)
    cluster = Cluster(scenario_cluster_config(protocol, scenario, base))
    auditor = SafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return cluster, auditor


def forger_on(auths, protocol, behavior="forge-history"):
    """A *behavior* forger installed in replica 2 of a *protocol*
    deployment, and an honest peer to judge what it sends."""
    spec = get_spec(protocol)
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2)
    forging, honest = (
        spec.replica_cls(rid, config, auths[rid], **spec.replica_kwargs)
        for rid in ("replica:2", "replica:1"))
    behavior = make_behavior(behavior)
    behavior.node = forging
    behavior.bind("replica:2", REPLICAS, seed=5)
    return behavior, honest


def _old_reconcile(requests, f, anchor_info=None):
    """The pre-certificate reconciliation: bare plurality below the anchor
    (it recomputes its own anchor, ignoring the caller's *anchor_info*)."""
    anchor = -1
    for request in requests:
        anchor = max(anchor, request.stable_checkpoint)
        certificate = request.certificate
        if certificate is not None:
            anchor = max(anchor, certificate.sequence)
    support = {}
    for request in requests:
        for entry in request.executed:
            support.setdefault(entry.sequence, {}).setdefault(
                entry.batch.digest(), []).append(entry)

    def best_entry(sequence, minimum):
        candidates = support.get(sequence)
        if not candidates:
            return None
        _, entries = min(candidates.items(),
                         key=lambda item: (-len(item[1]), item[0]))
        return entries[0] if len(entries) >= minimum else None

    prefix = {}
    for sequence in sorted(s for s in support if s <= anchor):
        entry = best_entry(sequence, 1)
        if entry is not None:
            prefix[sequence] = entry
    kmax = anchor
    while True:
        entry = best_entry(kmax + 1, f + 1)
        if entry is None:
            break
        kmax += 1
        prefix[kmax] = entry
    return prefix, kmax


def _old_transfer_handler(self, sender, message, now_ms):
    """The pre-validation handler: install any response unconditionally."""
    if message.sequence <= self.last_executed_sequence:
        return
    self.executor.install_checkpoint(
        sequence=message.sequence, view=message.view,
        state_digest=message.state_digest,
        table_snapshot=message.table_snapshot, head_hash=None,
        divergent_from=self.last_executed_sequence + 1,
    )
    self.charge_execution(self.config.batch_size)
    for stale in [s for s in self._committed if s <= message.sequence]:
        del self._committed[stale]
    if message.view > self.view:
        self.view = message.view
        self.view_change_in_progress = False
        self.on_transfer_view_adopted(message.view, now_ms)
    self.next_sequence = max(self.next_sequence, message.sequence + 1)
    self.try_execute(now_ms)
    self.replay_deferred(now_ms)


# --------------------------------------------------------------------------
# Behaviour layer units.
# --------------------------------------------------------------------------

class TestBehaviourLayer:
    def test_registry_knows_replica_level_behaviors(self):
        assert isinstance(make_behavior("forge-history"), ForgedHistoryReplica)
        assert make_behavior("forge-certificates").forge_certificates
        assert isinstance(make_behavior("lying-checkpoint"), LyingCheckpointer)
        assert isinstance(make_behavior("wrong-exec"), WrongExecutionReplica)

    def test_cluster_installs_replica_level_behavior(self):
        from repro.net.byzantine import ByzantineSpec
        cluster = Cluster(ClusterConfig(
            protocol="poe-mac", num_replicas=4, batch_size=10, total_batches=2,
            byzantine=(ByzantineSpec(behavior="wrong-exec", replica_index=2),),
            seed=3,
        ))
        behavior = cluster.network._nodes[replica_id(2)].behavior
        assert isinstance(behavior, WrongExecutionReplica)
        # bind() wrapped the replica's commit_slot with the forging shim.
        replica = cluster.network.node(replica_id(2))
        assert replica.commit_slot.__name__ == "wrong_commit_slot"

    @pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "zyzzyva"])
    def test_forged_request_is_admissible_and_deterministic(self, auths, protocol):
        """The forgery claims no checkpoint and a consecutive run from slot
        0 whose entries carry the digest the replica's protocol recomputes
        on admission: selection, not admission, has to defuse it."""
        original = ViewChangeRequest(
            view=1, replica_id="replica:2", stable_checkpoint=4,
            checkpoint_digest=b"d", executed=())
        behavior, honest = forger_on(auths, protocol)
        first = behavior._forge_request(original)
        second = forger_on(auths, protocol)[0]._forge_request(original)
        assert first == second
        assert (first.stable_checkpoint, first.checkpoint_digest,
                first.certificate) == (-1, b"", None)
        assert [entry.sequence for entry in first.executed] == [0, 1, 2, 3, 4]
        assert all(e.batch.batch_id.startswith("byzvc:") for e in first.executed)
        assert honest.validate_view_change_request_message(first, 1)

    def test_sbft_requests_go_out_as_they_are(self, auths):
        """An SBFT entry needs a threshold commit proof a lone replica
        cannot fabricate, so the forger leaves SBFT requests alone."""
        original = ViewChangeRequest(view=0, replica_id="replica:2",
                                     stable_checkpoint=4, executed=())
        behavior, _ = forger_on(auths, "sbft")
        out = behavior.transform([Delivery("replica:1", original)], 1.0)
        assert [delivery.message for delivery in out] == [original]

    def test_wrong_execution_forges_exactly_one_slot(self):
        cluster, _ = run_cell("poe-mac", "wrong-exec")
        behavior = cluster.network._nodes[replica_id(2)].behavior
        assert behavior.forged_executions == 1


# --------------------------------------------------------------------------
# WrongExecutionReplica: same-height divergence repair.
# --------------------------------------------------------------------------

class TestWrongExecution:
    @pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "zyzzyva",
                                          "hotstuff"])
    def test_row_is_live_and_safe(self, protocol):
        outcome = run_scenario(protocol, "wrong-exec", dataclasses.replace(
            MATRIX_DEPLOYMENT, total_batches=10))
        assert outcome.live and outcome.safe, outcome.audit.summary()

    def test_divergent_replica_detects_and_repairs_itself(self):
        """The behaviour's replica ends the run back on the quorum state:
        the stable checkpoint contradicted its journaled digest, the
        divergent suffix was excised and a digest-validated transfer
        installed.  Auditing *with the Byzantine replica included* proves
        the forged block is gone from its ledger."""
        cluster, auditor = run_cell("poe-mac", "wrong-exec")
        byzantine = cluster.network.node(replica_id(2))
        assert byzantine.divergence_repairs >= 1
        assert byzantine.repair_log, "the repair must record its audit trail"
        divergent_from, stable = byzantine.repair_log[0]
        assert divergent_from <= stable
        cluster.byzantine_ids.clear()   # audit the wrong-executor too
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)

    def test_reverted_repair_leaves_the_divergence(self, monkeypatch):
        """Revert-demo: with the same-height repair disabled, the replica
        keeps the fabricated batch at its slot and the auditor (run over
        every replica) reports the divergent prefix."""
        monkeypatch.setattr(BatchingReplica, "_begin_divergence_repair",
                            lambda self, stable, now_ms: None)
        cluster, auditor = run_cell("poe-mac", "wrong-exec")
        cluster.byzantine_ids.clear()
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "divergent-prefix" in kinds


# --------------------------------------------------------------------------
# LyingCheckpointer: validated state transfers.
# --------------------------------------------------------------------------

def make_replica(auths, rid="replica:3", **config_overrides):
    from repro.core.replica import PoeReplica
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        checkpoint_interval=2, **config_overrides)
    return PoeReplica(rid, config, auths[rid])


@pytest.fixture(scope="module")
def auths():
    return make_authenticators(REPLICAS, ["client:0"],
                               seed=b"replica-level-byzantine")


class TestLyingCheckpointer:
    @pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "hotstuff"])
    def test_row_is_live_and_safe(self, protocol):
        outcome = run_scenario(protocol, "lying-checkpoint", dataclasses.replace(
            MATRIX_DEPLOYMENT, total_batches=10))
        assert outcome.live and outcome.safe, outcome.audit.summary()

    def test_fabricated_responses_are_never_installed(self):
        cluster, auditor = run_cell("pbft", "lying-checkpoint")
        behavior = cluster.network._nodes[replica_id(1)].behavior
        assert behavior._poisoned_sequences, "the liar must actually lie"
        honest = [replica for replica in cluster.replicas
                  if replica.node_id != replica_id(1)]
        for replica in honest:
            for sequence in behavior._poisoned_sequences:
                fake_digest = digest("byz-checkpoint", replica_id(1), sequence)
                assert all(block.batch_digest != fake_digest
                           for block in replica.blockchain.blocks())
        assert auditor.check().ok

    @staticmethod
    def _consistent_response(sequence, head_hash=b"canonical-head"):
        """A response whose digest really commits to its head hash (the
        receiver re-derives the commitment before installing)."""
        state_digest = digest("state", sequence, head_hash, b"")
        return state_digest, StateTransferResponse(
            sequence=sequence, view=0, state_digest=state_digest,
            head_hash=head_hash)

    def test_mismatching_response_is_rejected_and_rerequested(self, auths):
        replica = make_replica(auths)
        true_digest, response = self._consistent_response(9)
        for voter in ["replica:1", "replica:2"]:
            replica.deliver(voter, CheckpointMessage(
                sequence=9, state_digest=true_digest, replica_id=voter), 1.0)
        output = replica.deliver("replica:1", StateTransferResponse(
            sequence=9, view=0, state_digest=b"poison"), 2.0)
        assert replica.last_executed_sequence == -1
        assert replica.state_transfer_rejections == 1
        rerequests = [action for action in output.actions
                      if isinstance(action, Broadcast)
                      and isinstance(action.message, StateTransferRequest)]
        assert len(rerequests) == 1
        # The honest response that follows is vouched and installs.
        replica.deliver("replica:2", response, 3.0)
        assert replica.last_executed_sequence == 9

    def test_tampered_head_hash_under_genuine_digest_is_rejected(self, auths):
        """The state digest is public (broadcast in checkpoint messages),
        so a liar can pair the *genuine* digest with a forged head hash;
        the receiver re-derives the digest from the shipped fields and
        rejects the split-field forgery."""
        replica = make_replica(auths)
        true_digest, _ = self._consistent_response(9)
        for voter in ["replica:1", "replica:2"]:
            replica.deliver(voter, CheckpointMessage(
                sequence=9, state_digest=true_digest, replica_id=voter), 1.0)
        replica.deliver("replica:1", StateTransferResponse(
            sequence=9, view=0, state_digest=true_digest,
            head_hash=b"forged-head"), 2.0)
        assert replica.last_executed_sequence == -1
        assert replica.state_transfer_rejections == 1

    def test_unvouched_response_is_parked_until_votes_arrive(self, auths):
        replica = make_replica(auths)
        early_digest, response = self._consistent_response(9)
        replica.deliver("replica:1", response, 1.0)
        assert replica.last_executed_sequence == -1          # parked, not applied
        assert 9 in replica._pending_state_transfers
        for voter in ["replica:1", "replica:2"]:
            replica.deliver(voter, CheckpointMessage(
                sequence=9, state_digest=early_digest, replica_id=voter), 2.0)
        assert replica.last_executed_sequence == 9           # drained on vouch
        assert 9 not in replica._pending_state_transfers

    def test_reverted_validation_fails_the_auditor(self, monkeypatch):
        """Revert-demo: with the old install-anything handler restored, the
        liar's fabricated future checkpoints are installed and the
        auditor's wire-counted vouching check reports them."""
        monkeypatch.setattr(BatchingReplica, "handle_state_transfer_response",
                            _old_transfer_handler)
        _, auditor = run_cell("pbft", "lying-checkpoint")
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "unvouched-state-transfer" in kinds


# --------------------------------------------------------------------------
# ForgedHistoryReplica: certificate-carrying Zyzzyva view changes.
# --------------------------------------------------------------------------

class TestForgedHistory:
    def test_zyzzyva_row_recovers_through_the_forged_view_change(self):
        cluster, auditor = run_cell("zyzzyva", "forge-history")
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)
        honest = [replica for replica in cluster.replicas
                  if replica.node_id != replica_id(2)]
        # The fabricated POM really started a view change...
        assert all(replica.view_changes_completed >= 1 for replica in honest)
        assert any(replica.proofs_of_misbehaviour_accepted > 0
                   for replica in honest)
        # ...and the dark laggard caught up through the anchor transfer.
        assert cluster.replicas[3].last_executed_sequence == \
            max(replica.last_executed_sequence for replica in honest)

    def test_reverted_reconciliation_is_caught_by_the_state_digest_check(
            self, monkeypatch):
        """First revert layer: with the pre-certificate plurality rule
        restored, the laggard adopts the forged sub-anchor history — and
        the new same-height state-digest check spots the contradiction
        with the f+1-backed anchor digest and repairs it."""
        monkeypatch.setattr(zyzzyva_module, "reconcile_speculative_histories",
                            _old_reconcile)
        cluster, auditor = run_cell("zyzzyva", "forge-history")
        laggard = cluster.replicas[3]
        assert laggard.divergence_repairs >= 1, (
            "the forged adoption must be caught by the state-digest repair")
        assert auditor.check().ok

    def test_fully_reverted_forgery_fails_the_auditor(self, monkeypatch):
        """Second revert layer: disabling the repair as well leaves the
        laggard on the fabricated history, and the auditor reports the
        divergent prefix."""
        monkeypatch.setattr(zyzzyva_module, "reconcile_speculative_histories",
                            _old_reconcile)
        monkeypatch.setattr(BatchingReplica, "_begin_divergence_repair",
                            lambda self, stable, now_ms: None)
        _, auditor = run_cell("zyzzyva", "forge-history")
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "divergent-prefix" in kinds

    def test_forged_certificates_collide_with_local_knowledge(self, auths):
        """Under the ``forge-certificates`` key the fabricated entries carry
        structurally valid certificates; an honest replica that executed
        the real slots below its stable checkpoint rejects the request on
        admission (at most one genuine certificate can exist per slot)."""
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            checkpoint_interval=2, request_timeout_ms=100.0)
        replica = ZyzzyvaReplica("replica:1", config, auths["replica:1"])
        primary_history = digest("zyzzyva-history", "genesis")
        for sequence in range(4):
            batch = make_no_op_batch(f"real-{sequence}", "client:0", 2)
            primary_history = digest("zyzzyva-history", primary_history,
                                     sequence, batch.digest())
            replica.deliver("replica:0", ZyzzyvaOrderRequest(
                view=0, sequence=sequence, batch=batch,
                history_digest=primary_history), 1.0)
        assert replica.last_executed_sequence == 3
        for voter in ["replica:0", "replica:2", "replica:3"]:
            replica.deliver(voter, CheckpointMessage(
                sequence=1, state_digest=replica._own_digest_at(1),
                replica_id=voter), 2.0)
        assert replica.checkpoints.stable_sequence == 1
        behavior, _ = forger_on(auths, "zyzzyva", "forge-certificates")
        forged = behavior._forge_request(ViewChangeRequest(
            view=0, replica_id="replica:2", stable_checkpoint=1, executed=()))
        assert forged.executed[0].proof is not None
        assert not replica.validate_view_change_request_message(forged, 0)
        # Without the fabricated certificates the request is structurally
        # admissible — the sub-anchor support rule defuses it instead.
        uncertified, _ = forger_on(auths, "zyzzyva")
        plain = uncertified._forge_request(ViewChangeRequest(
            view=0, replica_id="replica:2", stable_checkpoint=1, executed=()))
        assert replica.validate_view_change_request_message(plain, 0)


# --------------------------------------------------------------------------
# Zyzzyva certificate plumbing and the stranded-batch regressions.
# --------------------------------------------------------------------------

class TestZyzzyvaCertificateCarrying:
    def _replica_with_history(self, auths, slots=3):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            checkpoint_interval=10, request_timeout_ms=100.0)
        replica = ZyzzyvaReplica("replica:1", config, auths["replica:1"])
        history = digest("zyzzyva-history", "genesis")
        batches = []
        for sequence in range(slots):
            batch = make_no_op_batch(f"b{sequence}", "client:0", 2)
            history = digest("zyzzyva-history", history, sequence,
                             batch.digest())
            replica.deliver("replica:0", ZyzzyvaOrderRequest(
                view=0, sequence=sequence, batch=batch,
                history_digest=history), 1.0)
            batches.append(batch)
        return replica, batches

    def _certificate_for(self, replica, sequence, batch):
        record = replica.executor.executed(sequence)
        return ZyzzyvaCommitCertificate(
            batch_id=batch.batch_id, view=0, sequence=sequence,
            result_digest=record.result_digest,
            responders=("replica:0", "replica:1", "replica:2"),
            client_id="client:0",
        )

    def test_view_change_requests_carry_per_slot_certificates(self, auths):
        replica, batches = self._replica_with_history(auths)
        certificate = self._certificate_for(replica, 1, batches[1])
        replica.deliver("client:0", certificate, 2.0)
        request = replica.build_view_change_request(0)
        by_sequence = {entry.sequence: entry for entry in request.executed}
        assert by_sequence[1].proof is not None
        assert by_sequence[1].proof.batch_id == batches[1].batch_id
        assert by_sequence[0].proof is None

    def test_old_view_certificate_still_earns_local_commit(self, auths):
        """Regression (flushed out by the forge-history scenario): a view
        change between the client collecting 2f+1 responses and
        distributing the certificate must not strand the batch — the
        certificate is acceptable for an older view when the certified
        slot survived into the current history."""
        replica, batches = self._replica_with_history(auths)
        replica.view = 1
        certificate = self._certificate_for(replica, 1, batches[1])
        output = replica.deliver("client:0", certificate, 2.0)
        acks = [action for action in output.actions
                if isinstance(action, Send)
                and isinstance(action.message, ZyzzyvaLocalCommit)]
        assert len(acks) == 1

    def test_future_view_certificate_is_rejected(self, auths):
        replica, batches = self._replica_with_history(auths)
        certificate = dataclasses.replace(
            self._certificate_for(replica, 1, batches[1]), view=3)
        output = replica.deliver("client:0", certificate, 2.0)
        assert not any(isinstance(action.message, ZyzzyvaLocalCommit)
                       for action in output.actions
                       if isinstance(action, Send))

    def test_client_alternates_a_stalled_certificate_with_retransmission(self):
        """Regression: a client holding 2f+1 matching replies used to
        re-broadcast a commit certificate on every timeout, stranding the
        batch forever when the certificate could not complete.  Evidence
        is never discarded now — a crashed responder can make it
        irreplaceable, and replicas accept older-view certificates for
        surviving slots — but consecutive timeouts on the *same* evidence
        alternate with request retransmission, so a dead-slot certificate
        cannot loop: retransmission re-orders the batch and produces
        fresh evidence that overtakes the old."""
        from repro.protocols.zyzzyva import ZyzzyvaClientPool
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                            request_timeout_ms=100.0)
        pool = ZyzzyvaClientPool("client:0", config, total_batches=2,
                                 target_outstanding=1)
        pool.start(0.0)
        batch_id = next(iter(pool._pending))
        for sender in ["replica:0", "replica:1", "replica:2"]:
            pool.deliver(sender, ClientReplyMessage(
                batch_id=batch_id, view=0, sequence=0, result_digest=b"r",
                replica_id=sender, speculative=True), 1.0)
        pool.current_view = 1  # a view change happened meanwhile

        def classify(output):
            certs = [a for a in output.actions if isinstance(a, Broadcast)
                     and isinstance(a.message, ZyzzyvaCommitCertificate)]
            retrans = [a for a in output.actions if isinstance(a, Broadcast)
                       and getattr(a.message, "retransmission", False)]
            return bool(certs), bool(retrans)

        # First timeout: the evidence is tried as a commit certificate.
        assert classify(pool.timer_fired(
            f"request:{batch_id}", batch_id, 200.0)) == (True, False)
        # Same evidence again: alternate with a retransmission instead of
        # looping the certificate.
        assert classify(pool.timer_fired(
            f"request:{batch_id}", batch_id, 400.0)) == (False, True)
        # The certificate stays retryable — evidence was not discarded.
        assert classify(pool.timer_fired(
            f"request:{batch_id}", batch_id, 800.0)) == (True, False)


# --------------------------------------------------------------------------
# HotStuff chain sync.
# --------------------------------------------------------------------------

def _hotstuff_replica(auths, rid="replica:3"):
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        checkpoint_interval=5)
    return HotStuffReplica(rid, config, auths[rid])


class TestHotStuffChainSync:
    def test_dark_replica_recovers_via_fetch_not_state_transfer(self):
        """The victim of dark links fetches every certified round it
        missed and finishes fully caught up — the hard-gap stall that
        used to require checkpoint state transfer is gone."""
        cluster, auditor = run_cell("hotstuff", "dark-replicas",
                                    total_batches=20)
        victim = cluster.replicas[3]
        assert victim.proposals_fetched > 0
        assert auditor.check().ok
        top = max(r.last_executed_sequence for r in cluster.replicas
                  if not r.crashed)
        assert victim.last_executed_sequence == top

    def test_fetch_response_is_verified_against_the_qc_digest(self, auths):
        replica = _hotstuff_replica(auths)
        batch = make_no_op_batch("fetched", "client:0", 2)
        parent = QuorumCertificate(round_number=4, block_digest=b"parent")
        block_digest = digest("hotstuff-block", 5, batch.digest(),
                              parent.block_digest)
        replica._round(5).certificate = QuorumCertificate(
            round_number=5, block_digest=block_digest)
        proposal = HotStuffProposal(round_number=5, batch=batch,
                                    block_digest=block_digest, justify=parent,
                                    leader_id="replica:1")
        # A tampered batch cannot reproduce the certified digest.
        forged = dataclasses.replace(
            proposal, batch=make_no_op_batch("tampered", "client:0", 2))
        replica.deliver("replica:1", HotStuffFetchResponse(proposal=forged), 1.0)
        assert replica._rounds[5].proposal is None
        # A proposal whose claimed digest differs from the QC is dropped too.
        mislabelled = dataclasses.replace(proposal, block_digest=b"other")
        replica.deliver("replica:1",
                        HotStuffFetchResponse(proposal=mislabelled), 1.0)
        assert replica._rounds[5].proposal is None
        replica.deliver("replica:1", HotStuffFetchResponse(proposal=proposal), 2.0)
        assert replica._rounds[5].proposal is proposal
        assert replica.proposals_fetched == 1

    def test_fetch_request_served_from_stored_proposals(self, auths):
        replica = _hotstuff_replica(auths, rid="replica:1")
        batch = make_no_op_batch("held", "client:0", 2)
        parent = QuorumCertificate(round_number=2, block_digest=b"p")
        block_digest = digest("hotstuff-block", 3, batch.digest(), b"p")
        replica._round(3).proposal = HotStuffProposal(
            round_number=3, batch=batch, block_digest=block_digest,
            justify=parent, leader_id="replica:3")
        output = replica.deliver("replica:2", HotStuffFetchRequest(
            round_number=3, block_digest=block_digest,
            replica_id="replica:2"), 1.0)
        served = [action.message for action in output.actions
                  if isinstance(action, Send)
                  and isinstance(action.message, HotStuffFetchResponse)]
        assert len(served) == 1 and served[0].proposal.batch is batch

    def test_blind_query_upgrades_to_a_targeted_fetch_once(self, auths):
        """One fetch broadcast per round, except that a blind query is
        followed by one targeted fetch once the certified digest is known;
        the round's record remembers which was asked."""
        replica = _hotstuff_replica(auths)
        for asked in (b"", b"", b"certified", b"certified", b"", b"other"):
            replica._request_missing_proposal(2, asked)
        fetches = [(action.message.round_number, action.message.block_digest)
                   for action in replica._pending_actions
                   if isinstance(action, Broadcast)
                   and isinstance(action.message, HotStuffFetchRequest)]
        assert fetches == [(2, b""), (2, b"certified")]
        assert replica._rounds[2].fetch_asked == b"certified"
        # A probe for a round nothing was written for leaves no record.
        replica.deliver("replica:1", HotStuffFetchRequest(
            round_number=7, block_digest=b"", replica_id="replica:1"), 1.0)
        replica._committed_round = 9
        replica._check_late_certificate(8, b"late", 1.0)
        assert replica.chain_resyncs == 1 and list(replica._rounds) == [2]

    def test_signed_certificate_replaces_the_timeout_certificate(self, auths):
        """The pacemaker can beat vote aggregation to a round: the signed
        QC the next leader forms moments later replaces the unsigned
        placeholder of the same round, in ``high_qc`` and on the record."""
        leader = _hotstuff_replica(auths, rid="replica:1")
        leader.deliver("client:0", ClientRequestMessage(
            batch=make_no_op_batch("queued", "client:0", 2)), 0.0)
        leader.timer_fired("pacemaker", 0, 250.0)
        assert leader.pacemaker_timeouts == 1
        assert (leader.high_qc.round_number, leader.high_qc.signature) == (0, None)
        block_digest = digest("hotstuff-block", 0, b"empty", b"genesis")
        for voter in ("replica:0", "replica:2", "replica:3"):
            leader.deliver(voter, HotStuffVote(
                round_number=0, block_digest=block_digest,
                share=auths[voter].threshold.sign_share(
                    auths[voter].threshold_index, block_digest),
                replica_id=voter), 251.0)
        record = leader._rounds[0]
        assert record.qc_formed and record.certificate is leader.high_qc
        assert leader.high_qc.round_number == 0
        assert leader.auth.threshold.verify(leader.high_qc.signature, block_digest)

    def test_request_dedup_ages_out_with_the_reply_state(self, auths):
        """The set that recognises an already queued request is the base's
        ``_seen_batch_ids``: it loses a batch when ``_replied`` does, at the
        reply-retention horizon, instead of growing for the whole run."""
        replica = _hotstuff_replica(auths)
        for name in ("old", "recent"):
            replica.deliver("client:0", ClientRequestMessage(
                batch=make_no_op_batch(name, "client:0", 2)), 0.0)
        assert {"old", "recent"} <= replica._seen_batch_ids
        assert len(replica._pending_batches) == 2
        age_ms = (replica.config.request_timeout_ms
                  * replica.REPLY_RETENTION_TIMEOUTS)
        # Both executed at slot 0, two intervals below the checkpoint at
        # 14; only "old" is also a full retention window old.
        replica._batch_sequence["old"] = (0, 0.0)
        replica._batch_sequence["recent"] = (0, 1.0)
        replica.on_stable_checkpoint(14, now_ms=age_ms)
        assert "old" not in replica._seen_batch_ids
        assert "recent" in replica._seen_batch_ids

    def test_chain_resync_unwinds_a_reverted_reconfiguration(self, auths):
        """A chain resync that reverts an executed ``ReconfigRecord`` must
        take its pending epoch, the epoch gate and the dedup entries of
        every reverted batch with it: re-executing the record is then a
        plain admission, not a refusal against an epoch the replica itself
        registered."""
        from repro.protocols.epoch import make_reconfig_record

        replica = _hotstuff_replica(auths)
        record = make_reconfig_record(1, add=("replica:4", "replica:5"))
        batch = make_no_op_batch("after-record", "client:0", 2)
        parent = QuorumCertificate(round_number=1, block_digest=b"skipped")
        for round_number, content in ((2, record), (3, batch)):
            block_digest = digest("hotstuff-block", round_number,
                                  content.digest(), parent.block_digest)
            replica._round(round_number).proposal = HotStuffProposal(
                round_number=round_number, batch=content,
                block_digest=block_digest, justify=parent,
                leader_id="replica:1")
            parent = QuorumCertificate(round_number=round_number,
                                       block_digest=block_digest)
            replica._round(round_number).certificate = parent
        # Rounds 0 and 1 settle as skipped (no signed QC known), then the
        # record executes at sequence 0 and the batch at sequence 1.
        replica._commit_upto(3, 1.0)
        assert replica.last_executed_sequence == 1
        assert list(replica._pending_epochs) == [1]
        assert replica._epoch_gate == 4

        # The signed QC for round 1 surfaces late: the chain rolls back to
        # just before it.
        replica._check_late_certificate(1, b"late-certified", 2.0)
        assert replica.chain_resyncs == 1
        assert replica.last_executed_sequence == -1
        assert replica.rollback_log == [(-1, -1)]
        assert replica.rolled_back_batches == 2
        assert replica._pending_epochs == {}
        assert replica._epoch_gate is None
        assert record.batch_id not in replica._batch_sequence
        assert batch.batch_id not in replica._batch_sequence

        # Round 1's block turns out empty; the settle walk re-executes the
        # record, which is admitted again rather than refused.
        replica._round(1).certificate = QuorumCertificate(
            round_number=1, block_digest=b"late-certified")
        replica._round(1).proposal = HotStuffProposal(
            round_number=1, batch=None, block_digest=b"late-certified",
            justify=QuorumCertificate(round_number=0), leader_id="replica:1")
        replica._commit_upto(3, 3.0)
        assert replica.last_executed_sequence == 1
        assert replica.reconfig_refusals == []
        assert list(replica._pending_epochs) == [1]

    def test_bookkeeping_is_pruned_below_the_stable_checkpoint(self):
        """No round record below the stable round survives a stable
        checkpoint: ``_rounds`` does not grow for the lifetime of the run."""
        config = ClusterConfig(protocol="hotstuff", num_replicas=4,
                               batch_size=10, total_batches=30,
                               checkpoint_interval=5, seed=11)
        cluster = Cluster(config)
        cluster.start()
        cluster.run_until_done(max_ms=60_000.0)
        for replica in cluster.replicas:
            assert replica.checkpoints.stable_sequence > 0
            assert replica._pruned_below_round > 0
            floor = replica._pruned_below_round
            assert replica._rounds and min(replica._rounds) >= floor
            # What is kept is in use: every surviving record was written.
            assert all(state.proposal is not None or state.certificate is not None
                       or state.votes or state.fetch_asked is not None
                       for state in replica._rounds.values())

    @pytest.mark.parametrize("seed", [7, 99])
    def test_blindly_settled_rounds_are_recovered_by_query(self, seed):
        """Regression for the settled-as-skipped window: a replica
        partitioned through the start of the chain settles early rounds
        without knowing whether they certified anything (the one justify
        carrying each QC is gone from the wire).  At these seeds it used
        to keep a forked ledger — the re-proposed batch executed at a
        later round only on the victim, a cross-replica duplicate
        execution.  The fetch *query* (answered with the signed QC itself)
        lets it learn the missed certificates and resync."""
        cluster, auditor = run_cell("hotstuff", "forge-history", seed=seed)
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)

    def test_reverted_fetch_still_heals_by_state_transfer(self, monkeypatch):
        """Sanity: disabling the fetch protocol degrades the dark-replicas
        cell back to the checkpoint-transfer path without losing safety
        (the fetch is an optimisation of recovery, not its only leg)."""
        monkeypatch.setattr(HotStuffReplica, "_request_missing_proposal",
                            lambda self, round_number, block_digest: None)
        cluster, auditor = run_cell("hotstuff", "dark-replicas",
                                    total_batches=20)
        victim = cluster.replicas[3]
        assert victim.proposals_fetched == 0
        assert auditor.check().ok
        assert all(pool.is_done() for pool in cluster.pools)


# --------------------------------------------------------------------------
# Auditor: wire-counted vouching of installed state.
# --------------------------------------------------------------------------

class TestUnvouchedStateTransferCheck:
    def test_vouched_sync_blocks_pass(self):
        cluster, auditor = run_cell("pbft", "dark-replicas")
        synced = [replica for replica in cluster.replicas
                  if any(block.payload == "checkpoint-sync"
                         for block in replica.blockchain.blocks())]
        assert synced, "the dark replica must have installed a transfer"
        assert auditor.check().ok

    def test_fabricated_sync_block_is_flagged(self):
        cluster, auditor = run_cell("pbft", "no-fault")
        victim = cluster.replicas[3]
        victim.executor.install_checkpoint(
            sequence=victim.last_executed_sequence + 7, view=0,
            state_digest=b"never-vouched", table_snapshot=None, head_hash=None,
            divergent_from=victim.last_executed_sequence + 1)
        report = auditor.report()
        kinds = {violation.kind for violation in report.violations}
        assert "unvouched-state-transfer" in kinds

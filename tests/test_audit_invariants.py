"""Unit rows for the pure audit invariant functions.

The post-run safety auditor and the bounded model checker now share one
set of pure functions (``check_agreement`` / ``check_ledgers`` /
``check_rollbacks`` / ``check_replica_state``).  These tests pin each
invariant against hand-built replica states — no cluster run needed —
and then a matrix regression proves the auditor's verdicts on real runs
did not move when the invariants were factored out.
"""

import dataclasses
from types import SimpleNamespace

from repro.fabric.audit import (
    check_agreement,
    check_ledgers,
    check_replica_state,
    check_rollbacks,
    default_slot_key,
    hotstuff_slot_key,
)
from repro.fabric.scenarios import MATRIX_DEPLOYMENT, run_matrix


def block(sequence, payload, digest, view=0):
    return SimpleNamespace(sequence=sequence, view=view, payload=payload,
                           batch_digest=digest)


def replica(node_id, blocks, verify=True, last_executed=None,
            rollback_log=()):
    if last_executed is None:
        last_executed = blocks[-1].sequence if blocks else 0
    chain = SimpleNamespace(
        blocks=lambda blocks=blocks: list(blocks),
        verify_chain=lambda verify=verify: verify,
        head=blocks[-1] if blocks else block(0, "", b"genesis"),
    )
    return SimpleNamespace(node_id=node_id, blockchain=chain,
                           last_executed_sequence=last_executed,
                           rollback_log=list(rollback_log))


class TestAgreement:
    def test_clean_prefix_is_silent(self):
        honest = [replica(f"r{i}", [block(1, "batch:a", b"da"),
                                    block(2, "batch:b", b"db")])
                  for i in range(3)]
        violations, slots = check_agreement(honest)
        assert violations == []
        assert slots == 2

    def test_divergent_slot_is_flagged(self):
        honest = [replica("r0", [block(1, "batch:a", b"da")]),
                  replica("r1", [block(1, "batch:x", b"dx")])]
        violations, _ = check_agreement(honest)
        assert [v.kind for v in violations] == ["divergent-prefix"]
        assert "slot 1" in violations[0].detail

    def test_duplicate_execution_on_a_single_replica(self):
        # The model checker relies on this firing for ONE replica's ledger
        # alone (the stale-slot revert demo manifests exactly this way).
        honest = [replica("r0", [block(1, "batch:a", b"da"),
                                 block(2, "batch:a", b"da")])]
        violations, _ = check_agreement(honest)
        assert [v.kind for v in violations] == ["duplicate-execution"]
        assert "batch:a" in violations[0].detail

    def test_checkpoint_sync_blocks_are_ignored(self):
        honest = [replica("r0", [block(1, "checkpoint-sync", b"da")]),
                  replica("r1", [block(1, "checkpoint-sync", b"dx")])]
        violations, slots = check_agreement(honest)
        assert violations == []
        assert slots == 0

    def test_hotstuff_slot_key_uses_rounds(self):
        # Same batch, different local sequence, same committed round: the
        # round-keyed view must treat these as ONE slot, not a duplicate.
        honest = [replica("r0", [block(3, "batch:a", b"da", view=7)]),
                  replica("r1", [block(5, "batch:a", b"da", view=7)])]
        violations, slots = check_agreement(honest, hotstuff_slot_key)
        assert violations == []
        assert slots == 1
        assert default_slot_key(honest[0].blockchain.head) == 3
        assert hotstuff_slot_key(honest[0].blockchain.head) == 7


class TestLedgers:
    def test_broken_chain_is_flagged(self):
        honest = [replica("r0", [block(1, "batch:a", b"da")], verify=False)]
        violations = check_ledgers(honest)
        assert [v.kind for v in violations] == ["broken-chain"]

    def test_head_behind_executed_prefix_is_flagged(self):
        honest = [replica("r0", [block(1, "batch:a", b"da")],
                          last_executed=2)]
        violations = check_ledgers(honest)
        assert [v.kind for v in violations] == ["ledger-state-skew"]
        assert "head 1" in violations[0].detail


class TestRollbacks:
    def test_rollback_to_checkpoint_is_fine(self):
        honest = [replica("r0", [block(1, "batch:a", b"da")],
                          rollback_log=[(5, 5), (7, 5)])]
        violations, checked = check_rollbacks(honest)
        assert violations == []
        assert checked == 2

    def test_rollback_past_checkpoint_is_flagged(self):
        honest = [replica("r0", [block(1, "batch:a", b"da")],
                          rollback_log=[(3, 5)])]
        violations, checked = check_rollbacks(honest)
        assert [v.kind for v in violations] == ["rollback-past-checkpoint"]
        assert checked == 1


class TestComposite:
    def test_check_replica_state_composes_all_three(self):
        honest = [replica("r0", [block(1, "batch:a", b"da"),
                                 block(2, "batch:a", b"da")],
                          verify=False, last_executed=3,
                          rollback_log=[(1, 4)])]
        kinds = sorted(v.kind for v in check_replica_state(honest))
        assert kinds == ["broken-chain", "duplicate-execution",
                         "ledger-state-skew", "rollback-past-checkpoint"]

    def test_clean_state_is_silent(self):
        honest = [replica(f"r{i}", [block(1, "batch:a", b"da")])
                  for i in range(4)]
        assert check_replica_state(honest) == []


class TestMatrixRegression:
    def test_auditor_verdicts_unchanged_after_refactor(self):
        """A slice of the fault matrix still lands on its documented cells.

        The invariant factor-out must be observationally neutral: clean,
        crash-recovery and equivocation cells all keep their live/safe
        verdicts (no expected deviations remain in the matrix since the
        baseline-recovery PR).
        """
        outcomes = run_matrix(
            protocols=("poe-mac", "pbft"),
            scenarios=("no-fault", "primary-crash", "equivocate"),
            base=dataclasses.replace(MATRIX_DEPLOYMENT, total_batches=10))
        assert len(outcomes) == 6
        for outcome in outcomes:
            assert outcome.live and outcome.safe, (
                f"{outcome.protocol}:{outcome.scenario} -> {outcome.cell()}")

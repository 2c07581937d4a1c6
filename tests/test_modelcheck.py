"""Bounded model checker: exhaustive cells, counterexamples, replay.

The fast exhaustive cells run here with their explored-state counts
pinned against ``MCK_EXPECTATIONS.json`` (the CI smoke job sweeps the
full cell table through ``examples/model_check.py --expected``).  The
seeded-bug demo re-introduces the PR-3 stale-slot eviction bug under a
monkeypatch and must rediscover it from the pinned hunt walk, shrink the
trace, and replay it — while the same trace stays violation-free against
the fixed code.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.fabric import modelcheck
from repro.fabric.modelcheck import (
    MODEL_CHECK_CELLS,
    MODEL_CHECK_DEPLOYMENT,
    TRACE_SCHEMA,
    Counterexample,
    ModelCheckConfig,
    TraceMismatch,
    build_cluster,
    check,
    counterexample_to_json,
    crashing,
    explore,
    hunt,
    load_trace,
    replay_trace,
    write_counterexample,
)
from repro.net.byzantine import ByzantineSpec
from repro.net.faults import FaultSchedule
from repro.fabric.revertdemo import (
    REVERT_DEMO_CONFIG,
    REVERT_DEMO_DEFER_P,
    REVERT_DEMO_MAX_STEPS,
    REVERT_DEMO_WALK_SEED,
    run_revert_demo,
)

EXPECTATIONS = os.path.join(os.path.dirname(__file__), "..",
                            "MCK_EXPECTATIONS.json")


def pinned(cell):
    with open(EXPECTATIONS, "r", encoding="utf-8") as handle:
        return json.load(handle)["cells"][cell]


class TestExhaustiveCells:
    def test_nofault_cell_matches_pins(self):
        result = explore(MODEL_CHECK_CELLS["poe-nofault"])
        want = pinned("poe-nofault")
        assert result.ok
        assert result.states_explored == want["states"]
        assert result.transitions == want["transitions"]
        assert result.max_view == 0
        assert result.quiescent_leaves > 0
        assert not result.hit_state_bound

    def test_equivocate_vc_cell_forces_a_view_change(self):
        result = explore(MODEL_CHECK_CELLS["poe-equivocate-vc"])
        want = pinned("poe-equivocate-vc")
        assert result.ok
        assert result.states_explored == want["states"]
        assert result.transitions == want["transitions"]
        # Every completing ordering went through at least one view change:
        # the cell genuinely exercises the recovery engine, not just the
        # happy path around it.
        assert result.min_quiescent_view >= 1

    def test_exploration_is_deterministic(self):
        first = explore(MODEL_CHECK_CELLS["poe-nofault"])
        second = explore(MODEL_CHECK_CELLS["poe-nofault"])
        assert (first.states_explored, first.transitions) \
            == (second.states_explored, second.transitions)

    def test_persistent_sets_preserve_the_verdict(self):
        """The partial-order reduction may shrink the space, not the answer."""
        reduced = MODEL_CHECK_CELLS["poe-nofault"]
        full = explore(replace(reduced, persistent_sets=False))
        assert full.ok
        assert full.states_explored >= explore(reduced).states_explored


class TestStallAndDeadlock:
    def test_quorum_loss_is_a_stall_counterexample(self, monkeypatch):
        monkeypatch.setattr(modelcheck, "_quorum_reachable",
                            lambda cluster: False)
        result = explore(MODEL_CHECK_CELLS["poe-nofault"])
        assert not result.ok
        assert result.counterexample.kind == "stall"
        assert "quorum" in result.counterexample.violations[0].detail

    def test_expected_stall_is_tolerated(self, monkeypatch):
        monkeypatch.setattr(modelcheck, "_quorum_reachable",
                            lambda cluster: False)
        config = replace(MODEL_CHECK_CELLS["poe-nofault"], expect_stall=True)
        result = explore(config)
        assert result.ok
        assert result.stall_leaves > 0

    def test_no_enabled_events_is_a_deadlock_not_quiescence(self,
                                                            monkeypatch):
        monkeypatch.setattr(modelcheck, "_enabled",
                            lambda choices, cluster, config: [])
        result = explore(MODEL_CHECK_CELLS["poe-nofault"])
        assert not result.ok
        assert result.counterexample.kind == "deadlock"
        assert "incomplete" in result.counterexample.violations[0].detail


class TestCounterexampleMinimisation:
    """``check``, which ``examples/model_check.py`` runs on every cell."""

    def test_safe_cell_keeps_the_depth_first_result(self):
        # mck-smoke holds every pinned cell's counts through check().
        cell = MODEL_CHECK_CELLS["poe-nofault"]
        assert check(cell) == explore(cell)

    def test_counterexample_is_the_breadth_first_depth(self):
        # Three replicas tolerate no fault, so the crash is a stall wherever
        # it lands: depth-first fires the deliveries timed before it first,
        # breadth-first finds the crash as the first event.
        config = ModelCheckConfig(crashing(2, at_ms=6.5, num_replicas=3))
        found = explore(config).counterexample
        shortest = check(config).counterexample
        bounded = replace(config, max_depth=len(found.trace))
        breadth_first = explore(bounded, order="bfs").counterexample
        assert shortest.kind == found.kind == "stall"
        assert len(shortest.trace) == len(breadth_first.trace) < len(found.trace)
        entries = counterexample_to_json(shortest)["trace"]
        cluster, _violations = replay_trace(config, entries)
        assert not modelcheck._quorum_reachable(cluster)


class TestTraceReplay:
    def test_label_mismatch_is_rejected(self):
        config = MODEL_CHECK_CELLS["poe-nofault"]
        _cluster, scheduler = build_cluster(config)
        seq, _time, _label = scheduler.choices()[0]
        entries = [{"seq": seq, "label": ["deliver", "replica:9",
                                          "replica:9", "Forged", 0, 0, None]}]
        with pytest.raises(TraceMismatch, match="recorded label"):
            replay_trace(config, entries)

    def test_unschedulable_event_is_rejected(self):
        config = MODEL_CHECK_CELLS["poe-nofault"]
        with pytest.raises(TraceMismatch, match="not schedulable"):
            replay_trace(config, [{"seq": 999_999, "label": None}])

    def test_json_round_trip(self, tmp_path):
        demo = run_revert_demo(walks=1)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(demo.minimal_json()))
        config, entries = load_trace(str(path))
        assert config == REVERT_DEMO_CONFIG
        assert len(entries) == len(demo.minimal_trace)
        payload = counterexample_to_json(demo.counterexample)
        assert payload["schema"] == TRACE_SCHEMA == 3
        assert payload["config"]["deployment"]["crashes"] == [["replica:3", 2.0]]

    def test_a_crash_and_an_equivocator_write_and_load_back_equal(self, tmp_path):
        config = replace(MODEL_CHECK_CELLS["pbft-equivocate-vc"], max_depth=17)
        assert config.deployment.byzantine == (ByzantineSpec("equivocate", 0),)
        path = str(tmp_path / "trace.json")
        write_counterexample(
            Counterexample(kind="invariant", config=config, trace=[], violations=[]),
            path)
        loaded, entries = load_trace(path)
        assert loaded == config
        assert entries == []

    def test_a_deployment_a_trace_cannot_express_is_refused(self):
        ids = MODEL_CHECK_DEPLOYMENT.replica_ids()
        partitioned = ModelCheckConfig(replace(
            MODEL_CHECK_DEPLOYMENT,
            faults=FaultSchedule().add_partition(ids[:1], ids[1:], until_ms=5.0)))
        with pytest.raises(ValueError, match="cannot record the deployment's partitions"):
            counterexample_to_json(Counterexample(
                kind="invariant", config=partitioned, trace=[], violations=[]))

    def test_a_schema_2_trace_is_refused_by_name(self, tmp_path):
        # Schema 2 wrote protocol, num_replicas, crash_replica, ... as
        # fields of the config itself.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({
            "schema": 2, "kind": "invariant", "trace": [], "violations": [],
            "config": {"protocol": "poe-mac", "num_replicas": 4,
                       "crash_replica": 3, "crash_at_ms": 2.0}}))
        with pytest.raises(ValueError, match="unsupported trace schema 2"):
            load_trace(str(path))


class TestConfigValidation:
    def test_an_unknown_timer_gate_is_rejected(self):
        with pytest.raises(ValueError, match="expected global or eager"):
            ModelCheckConfig(timer_gate="ower")

    def test_an_unknown_timer_gate_in_a_trace_file_is_rejected(self, tmp_path):
        payload = counterexample_to_json(Counterexample(
            kind="invariant", config=ModelCheckConfig(), trace=[], violations=[]))
        payload["config"]["timer_gate"] = "eagre"
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown timer_gate 'eagre'"):
            load_trace(str(path))

    def test_every_timer_gate_is_accepted(self):
        for gate in ("global", "eager"):
            assert ModelCheckConfig(timer_gate=gate).timer_gate == gate


class TestRevertDemo:
    def test_pinned_walk_rediscovers_the_stale_slot_bug(self):
        demo = run_revert_demo(walks=1)
        assert demo.found
        assert demo.violating_walk == 0
        kinds = {v.kind for v in demo.counterexample.violations}
        assert "duplicate-execution" in kinds

    def test_minimal_trace_shrinks_and_still_replays(self):
        demo = run_revert_demo(walks=1)
        assert len(demo.minimal_trace) < len(demo.counterexample.trace)
        assert [v.kind for v in demo.replay_violations] \
            == ["duplicate-execution"]

    def test_fixed_code_survives_the_same_schedule(self):
        """The eviction fix closes the bug: same pinned walk, no violation.

        ``run_revert_demo`` restores the real ``adopt_new_view`` on exit,
        so hunting the identical walk against the fixed code must come
        back clean — the demo's counterexample is attributable to the
        reverted fix alone.
        """
        demo = run_revert_demo(walks=1)
        assert demo.found
        clean = hunt(REVERT_DEMO_CONFIG, walks=1,
                     walk_seed=REVERT_DEMO_WALK_SEED,
                     defer_p=REVERT_DEMO_DEFER_P, ordered=True,
                     max_steps=REVERT_DEMO_MAX_STEPS)
        assert clean.ok
        entries = [{"seq": seq, "label": None}
                   for seq, _label in demo.minimal_trace]
        _cluster, violations = replay_trace(REVERT_DEMO_CONFIG, entries)
        assert violations == []

"""Seeded-bug demo: the model checker rediscovers a fixed recovery bug.

PR 3 fixed a stale-slot eviction bug in :meth:`PoeReplica.adopt_new_view`:
a batch parked in ``_committed`` at its view-0 slot survives the view
change, and when the new primary re-proposes the same batch at a lower
slot, ``try_execute`` later drains the stale entry too — the batch
executes at two slots.  This module re-introduces the bug by making
:meth:`PoeReplica.evict_uncovered` a no-op for the duration of the demo
(the real code keeps the fix, and no copy of the handler exists for a
patch to miss) and drives the model checker's
randomized deferral hunt to a minimal, replayable counterexample.

The bug is *structurally unreachable* under the checker's ``global``
timer gate: any replica whose view-change timer fires under that gate
has already drained its inbound deliveries, and with three
live replicas the second backup to time out always completes the gapped
slot before joining the view change.  The demo therefore runs with
``timer_gate="eager"`` — timers race deliveries freely — where
exhaustive exploration is intractable and the hunt's sticky deferral
sets do the work.  The schedule that exhibits the bug defers a handful
of deliveries to the next primary (replica 1) so that it enters view 1
clean of the parked batch and re-proposes it at slot 1.

``REVERT_DEMO_WALK_SEED`` pins the violating walk: walk *i* of a hunt
draws from ``Random(1_000_003 * (walk_seed + i))``, so the walk that
found the violation replays alone with ``walks=1``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.core.replica import PoeReplica
from repro.fabric.audit import AuditViolation
from repro.fabric.modelcheck import (
    Counterexample,
    ModelCheckConfig,
    counterexample_to_json,
    hunt,
    replay_trace,
    shrink_trace,
)

#: The hunt cell: eager timer gate, backup 3 down from the start so the
#: three live replicas are exactly ``nf`` and every certification needs
#: all of them.  Two outstanding batches give the new primary something
#: to re-propose at a shifted slot.
REVERT_DEMO_CONFIG = ModelCheckConfig(
    protocol="poe-mac", num_batches=2, client_outstanding=2,
    crash_replica=3, crash_at_start=True, checkpoint_interval=10,
    view_bound=1, timer_gate="eager")

#: ``walk_seed`` of the known violating walk (found once with a 20k-walk
#: hunt at the same ``defer_p``; CI replays just this walk).
REVERT_DEMO_WALK_SEED = 518
REVERT_DEMO_DEFER_P = 0.15
REVERT_DEMO_MAX_STEPS = 300


def reverted_stale_slot_fix():
    """Context manager disabling today's fix: ``adopt_new_view`` keeps
    calling :meth:`PoeReplica.evict_uncovered`, which evicts nothing."""
    return mock.patch.object(PoeReplica, "evict_uncovered",
                             lambda self, prefix, kmax: None)


@dataclass
class RevertDemoResult:
    """Everything the demo established, ready for printing or asserting."""

    config: ModelCheckConfig
    walks: int = 0
    violating_walk: Optional[int] = None
    counterexample: Optional[Counterexample] = None
    #: Delta-debugged local minimum of the found trace.
    minimal_trace: List[Tuple[int, Tuple]] = field(default_factory=list)
    #: Violations observed when replaying the minimal trace.
    replay_violations: List[AuditViolation] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def minimal_json(self) -> Dict[str, object]:
        """The minimal trace as a replayable counterexample document."""
        assert self.counterexample is not None
        minimal = Counterexample(
            kind=self.counterexample.kind, config=self.config,
            trace=self.minimal_trace, violations=self.replay_violations)
        return counterexample_to_json(minimal)


def run_revert_demo(walks: int = 1,
                    walk_seed: int = REVERT_DEMO_WALK_SEED,
                    shrink: bool = True) -> RevertDemoResult:
    """Hunt for the reverted bug and shrink the trace it finds.

    The defaults replay exactly the pinned violating walk; pass a larger
    ``walks`` with a different ``walk_seed`` to search afresh.  The
    shrunk trace is re-validated with :func:`replay_trace` (under the
    monkeypatch, so the recorded violations reproduce).
    """
    result = RevertDemoResult(config=REVERT_DEMO_CONFIG)
    with reverted_stale_slot_fix():
        outcome = hunt(REVERT_DEMO_CONFIG, walks=walks, walk_seed=walk_seed,
                       defer_p=REVERT_DEMO_DEFER_P, ordered=True,
                       max_steps=REVERT_DEMO_MAX_STEPS)
        result.walks = outcome.walks
        result.violating_walk = outcome.violating_walk
        result.counterexample = outcome.counterexample
        if outcome.counterexample is None:
            return result
        trace = outcome.counterexample.trace
        if shrink:
            trace = shrink_trace(REVERT_DEMO_CONFIG, trace)
        result.minimal_trace = list(trace)
        entries = [{"seq": seq, "label": None} for seq, _label in trace]
        _cluster, violations = replay_trace(REVERT_DEMO_CONFIG, entries)
        result.replay_violations = violations
    return result

"""Bounded model checker: every delivery ordering of a tiny cluster.

The fault matrix samples interleavings with seeds; this module *explores*
them.  It drives the ordinary cluster fabric — real replicas, real
network driver, real client pools — through **all** schedulable event
orderings for tiny configurations (n=4, a couple of consensus slots,
optional crash/equivocate choice points), asserting the pure safety
invariants of :mod:`repro.fabric.audit` in every reachable state.

How it works:

* the cluster runs on a
  :class:`~repro.net.simulator.ControlledScheduler`, whose pending
  events are explicit labelled choice points;
* a run is identified by its **trace** — the ordered tuple of chosen
  event sequence numbers.  Forking a run is replaying its trace from a
  fresh cluster (sequence numbers are deterministic functions of the
  choice prefix), so no live object is ever deep-copied;
* reached states are deduplicated by the canonical state fingerprint
  (:func:`repro.fabric.fingerprint.cluster_state_fingerprint`): the
  consensus-visible replica state, the pool state and the label multiset
  of still-pending events.  Virtual timestamps are excluded — the
  checker treats the network as fully asynchronous;
* timers are *choice-gated*: by default a timer may only fire when no
  message delivery is enabled.  Orderings of in-flight messages are
  explored exhaustively; timeout storms are not, which is what keeps
  exhaustive n=4 runs inside CI minutes.  ``timer_gate="eager"`` lifts
  the gate entirely;
* a state with no enabled event and unfinished clients is a **deadlock**
  (distinguished from normal quiescence, where every pool completed its
  budget); a state where fewer than a commit quorum of replicas are
  alive is a **stall** leaf and is not expanded further (expected when
  the configuration crashes more than f replicas — set
  ``expect_stall=True``);
* on a violation the trace is re-run to attach labels, minimised by a
  breadth-first re-exploration (BFS visits states in nondecreasing
  depth, so the first violating state it finds is a shortest
  counterexample), and serialised to JSON for
  ``examples/model_check.py --replay``.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.audit import (
    AuditViolation,
    check_replica_state,
    honest_live_replicas,
    slot_key_for,
)
from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.fingerprint import cluster_state_fingerprint
from repro.net.byzantine import ByzantineSpec
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.simulator import ControlledScheduler

#: Version tag of the counterexample-trace JSON format (2: four config fields became constants).
TRACE_SCHEMA = 2

#: An exploration stops (``state bound hit``) after this many distinct states.
MAX_STATES = 120_000

#: Probability that an unordered hunt step prefers an enabled timer/crash
#: transition over a delivery.
HUNT_FAULT_BIAS = 0.5


@dataclass(frozen=True)
class ModelCheckConfig:
    """One model-checking cell: a tiny deployment plus exploration bounds.

    The deployment fields mirror :class:`~repro.fabric.cluster.ClusterConfig`
    but default to the smallest interesting instance: n=4, one client,
    two single-transaction consensus slots, a checkpoint boundary inside
    the explored window, and fixed-delay lossless network conditions so
    no RNG is consumed anywhere on a path (fingerprint deduplication
    then collapses commuting deliveries exactly).

    ``crash_replica`` schedules a crash transition that the checker
    interleaves at every position like any other event — a crash choice
    point.  ``byzantine_behavior`` routes replica 0, the view-0 primary,
    through a network-boundary behaviour (e.g. ``"equivocate"``), whose forged
    deliveries become ordinary delivery choice points.
    """

    protocol: str = "poe-mac"
    num_replicas: int = 4
    num_batches: int = 2
    client_outstanding: int = 2
    checkpoint_interval: int = 2
    request_timeout_ms: float = 100.0
    crash_replica: Optional[int] = None
    crash_at_ms: float = 2.0
    #: Fire the crash transition as a mandatory first step instead of
    #: interleaving it as a choice point.  With an interleaved crash the
    #: checker also explores orderings that finish all slots before the
    #: crash lands (no view change on those paths); crashing up front
    #: forces every completing ordering through a view change.
    crash_at_start: bool = False
    byzantine_behavior: Optional[str] = None
    max_depth: int = 240
    #: States where any replica's view exceeds this become leaves.  Timer
    #: chains make the view dimension unbounded (every timeout round can
    #: start another view change); real recovery needs at most a couple
    #: of views at this scale, so deeper view towers are pruned like
    #: depth-bound truncation.
    view_bound: int = 2
    #: When timers become choice points.  ``"global"`` (default): only at
    #: delivery quiescence — no message at all is in flight; the smallest
    #: space, but it excludes every schedule where a timeout races an
    #: undelivered message.  ``"eager"``: timers are always choices; the
    #: full asynchronous space, usually only tractable for :func:`hunt`.
    timer_gate: str = "global"
    #: Partial-order reduction over *deliveries only*.  Deliveries to
    #: different receivers commute: each touches only its receiver's
    #: state, the message soup is append-only, and firing one delivery
    #: can never dequeue another.  Expanding only the earliest enabled
    #: delivery's receiver (a persistent set) therefore preserves
    #: reachability of invariant violations while cutting interleaving
    #: breadth by roughly the node count; orderings of messages to the
    #: *same* receiver — where equivocation bites — stay exhaustive.
    #: Timers are **never** pruned (a delivery may cancel or re-arm a
    #: timer, so timer orderings do not commute), and the reduction
    #: steps aside entirely when a crash/recover or unknown-footprint
    #: event is enabled.  Disable to explore every interleaving of every
    #: event.
    persistent_sets: bool = True
    expect_stall: bool = False

    #: Batch size, network delay, seed, corrupted replica: constants, not fields.
    batch_size = 1
    delay_ms = 1.0
    seed = 11
    byzantine_replica = 0

    def __post_init__(self) -> None:
        if self.timer_gate not in ("global", "eager"):
            raise ValueError(f"unknown timer_gate {self.timer_gate!r}; "
                             f"expected global or eager")


@dataclass
class Counterexample:
    """A violating run: the ordered event choices that reach it."""

    kind: str  # "invariant" | "deadlock" | "stall"
    config: ModelCheckConfig
    #: Ordered (seq, label) choices from the initial state.
    trace: List[Tuple[int, Tuple]]
    violations: List[AuditViolation]

    def summary(self) -> str:
        lines = [f"{self.kind} after {len(self.trace)} events:"]
        lines.extend(f"  - [{v.kind}] {v.detail}" for v in self.violations)
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """Everything one bounded exploration established."""

    config: ModelCheckConfig
    states_explored: int = 0
    transitions: int = 0
    quiescent_leaves: int = 0
    truncated_leaves: int = 0
    view_capped_leaves: int = 0
    stall_leaves: int = 0
    deadlock_leaves: int = 0
    max_view: int = 0
    #: Smallest max-honest-view over all quiescent leaves: ``>= 1`` proves
    #: every completing ordering went through at least one view change.
    min_quiescent_view: Optional[int] = None
    hit_state_bound: bool = False
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        head = (f"{self.config.protocol}: {self.states_explored} states, "
                f"{self.transitions} transitions, "
                f"{self.quiescent_leaves} quiescent / "
                f"{self.stall_leaves} stalled / "
                f"{self.deadlock_leaves} deadlocked / "
                f"{self.truncated_leaves} truncated / "
                f"{self.view_capped_leaves} view-capped leaves, "
                f"max view {self.max_view}")
        if self.hit_state_bound:
            head += " [state bound hit]"
        if self.ok:
            return f"SAFE ({head})"
        return f"UNSAFE ({head})\n{self.counterexample.summary()}"


# ------------------------------------------------------------------ build
#: (replica_ids, client_ids, seed) -> authenticator map.  The trusted
#: setup is deterministic (a pair secret derived on first use has the same
#: bytes in every replay), so the many thousand replays of one
#: configuration share a single provisioning run.  Without it,
#: provisioning per replay took about an eighth of ``model_check.py``
#: against ``MCK_EXPECTATIONS.json`` (28.1-29.5 s against 24.6-26.0 s on
#: a 2-core x86 VM).
_AUTH_CACHE: Dict[Tuple, Dict[str, object]] = {}


def _authenticators_for(cluster_config: ClusterConfig):
    from repro.crypto.authenticator import make_authenticators

    key = (tuple(cluster_config.replica_ids()),
           tuple(cluster_config.client_ids()), cluster_config.seed)
    cached = _AUTH_CACHE.get(key)
    if cached is None:
        cached = make_authenticators(
            replica_ids=cluster_config.replica_ids(),
            client_ids=cluster_config.client_ids(),
            seed=f"cluster-seed-{cluster_config.seed}".encode(),
        )
        _AUTH_CACHE[key] = cached
    return cached


def build_cluster(config: ModelCheckConfig) -> Tuple[Cluster, ControlledScheduler]:
    """One fresh, started cluster on a controlled scheduler."""
    faults = FaultSchedule()
    if config.crash_replica is not None:
        faults.add_crash(replica_id(config.crash_replica),
                         at_ms=config.crash_at_ms)
    byzantine = ()
    if config.byzantine_behavior is not None:
        byzantine = (ByzantineSpec(behavior=config.byzantine_behavior,
                                   replica_index=config.byzantine_replica),)
    scheduler = ControlledScheduler()
    cluster_config = ClusterConfig(
        protocol=config.protocol,
        num_replicas=config.num_replicas,
        batch_size=config.batch_size,
        num_clients=1,
        client_outstanding=config.client_outstanding,
        total_batches=config.num_batches,
        request_timeout_ms=config.request_timeout_ms,
        checkpoint_interval=config.checkpoint_interval,
        conditions=NetworkConditions.uniform_delay(config.delay_ms,
                                                   seed=config.seed),
        faults=faults,
        byzantine=byzantine,
        seed=config.seed,
    )
    cluster = Cluster(cluster_config, simulator=scheduler,
                      authenticators=_authenticators_for(cluster_config))
    cluster.start()
    if config.crash_at_start and config.crash_replica is not None:
        target = ("crash", replica_id(config.crash_replica))
        for seq, _time, label in scheduler.choices():
            if label == target:
                scheduler.fire(seq)
                break
        else:
            raise RuntimeError("crash_at_start: no pending crash transition")
    return cluster, scheduler


class TraceMismatch(ValueError):
    """A replayed event is not schedulable, or its label differs from the
    recorded one."""


def _replay(config: ModelCheckConfig, trace: Sequence[int],
            labelled: bool = False, recorded: Optional[Sequence] = None,
            ) -> Tuple[Cluster, ControlledScheduler,
                       Optional[List[Tuple[int, Tuple]]]]:
    """Fire *trace* (event sequence numbers) on a fresh cluster.

    Returns the cluster, its scheduler and, when asked for with *labelled*
    or *recorded*, the ``(seq, label)`` of every fired event (else
    ``None``).  Looking a label up scans the pending events, so
    :func:`explore`'s replays skip it.  A labelled replay raises
    :class:`TraceMismatch` at a step whose event is not schedulable or
    whose label differs from *recorded*'s (one label or ``None`` per step).
    """
    cluster, scheduler = build_cluster(config)
    labels = [] if labelled or recorded is not None else None
    for index, seq in enumerate(trace):
        if labels is not None:
            live = next((label for s, _t, label in scheduler.choices()
                         if s == seq), None)
            if live is None:
                raise TraceMismatch(
                    f"step {index}: event seq {seq} is not schedulable here")
            want = recorded[index] if recorded is not None else None
            if want is not None and _jsonable(live) != want:
                raise TraceMismatch(
                    f"step {index}: recorded label {want!r} but the live "
                    f"event is {_jsonable(live)!r}")
            labels.append((seq, live))
        scheduler.fire(seq)
    return cluster, scheduler, labels


def _violations(cluster: Cluster) -> List[AuditViolation]:
    """The replica-state invariants over *cluster*'s honest live replicas."""
    return check_replica_state(honest_live_replicas(cluster),
                               slot_key_for(cluster))


# ------------------------------------------------------------- state view
def _state_fingerprint(cluster: Cluster, choices) -> str:
    pending = tuple(sorted(repr(label) for _seq, _time, label in choices))
    return cluster_state_fingerprint(cluster, pending)


def _quorum_reachable(cluster: Cluster) -> bool:
    live = sum(1 for replica in cluster.replicas if not replica.crashed)
    return live >= cluster.node_config.nf


def _enabled(choices, cluster: Cluster, config: ModelCheckConfig):
    """The subset of pending events offered as choices in this state.

    Deliveries to crashed nodes and timers owned by crashed nodes are
    no-ops and are filtered out; timers are gated per
    ``config.timer_gate``.  With ``persistent_sets`` the deliveries are
    further restricted to one receiver's (the receiver of the earliest
    enabled delivery) — see :class:`ModelCheckConfig`.  Timers are never
    pruned, and the reduction steps aside whenever an event with an
    unknown footprint (opaque label) or an interleaved crash/recover
    transition is enabled: fault transitions must be explored against
    every node's schedule, not just their own.
    """
    nodes = {replica.node_id: replica for replica in cluster.replicas}
    immediate = []
    timers = []
    for seq, time_ms, label in choices:
        kind = label[0]
        if kind == "timer":
            owner = nodes.get(label[1])
            if owner is not None and owner.crashed:
                continue
            timers.append((seq, time_ms, label))
        elif kind == "deliver":
            receiver = nodes.get(label[2])
            if receiver is not None and receiver.crashed:
                continue
            immediate.append((seq, time_ms, label))
        else:  # crash/recover transitions, opaque events
            immediate.append((seq, time_ms, label))
    if config.timer_gate == "eager":
        enabled = immediate + timers
    else:  # "global"
        enabled = immediate if immediate else timers
    enabled.sort(key=lambda entry: (entry[1], entry[0]))
    if not config.persistent_sets:
        return enabled
    if any(entry[2][0] not in ("deliver", "timer") for entry in enabled):
        return enabled
    deliveries = [entry for entry in enabled if entry[2][0] == "deliver"]
    if len(deliveries) < 2:
        return enabled
    focus = deliveries[0][2][2]  # receiver of the earliest enabled delivery
    return [entry for entry in enabled
            if entry[2][0] != "deliver" or entry[2][2] == focus]


# ------------------------------------------------------------ exploration
def explore(config: ModelCheckConfig, order: str = "dfs") -> ExploreResult:
    """Bounded exhaustive exploration; stops at the first violation.

    ``order`` is ``"dfs"`` (default, memory-light) or ``"bfs"`` (visits
    states in nondecreasing depth — used for counterexample
    minimisation).
    """
    result = ExploreResult(config=config)
    visited = set()
    frontier: deque = deque([()])
    pop = frontier.pop if order == "dfs" else frontier.popleft
    while frontier:
        trace = pop()
        cluster, scheduler, _labels = _replay(config, trace)
        choices = scheduler.choices()
        fingerprint = _state_fingerprint(cluster, choices)
        if fingerprint in visited:
            continue
        if result.states_explored >= MAX_STATES:
            result.hit_state_bound = True
            break
        visited.add(fingerprint)
        result.states_explored += 1
        honest = honest_live_replicas(cluster)
        state_view = 0
        for replica in cluster.replicas:
            if replica.view > state_view:
                state_view = replica.view
        if state_view > result.max_view:
            result.max_view = state_view
        violations = check_replica_state(honest, slot_key_for(cluster))
        if violations:
            result.counterexample = Counterexample(
                kind="invariant", config=config,
                trace=_replay(config, trace, labelled=True)[2], violations=violations)
            break
        if all(pool.is_done() for pool in cluster.pools):
            result.quiescent_leaves += 1
            leaf_view = max((replica.view for replica in honest), default=0)
            if (result.min_quiescent_view is None
                    or leaf_view < result.min_quiescent_view):
                result.min_quiescent_view = leaf_view
            continue
        if not _quorum_reachable(cluster):
            result.stall_leaves += 1
            if not config.expect_stall:
                live = sum(1 for r in cluster.replicas if not r.crashed)
                result.counterexample = Counterexample(
                    kind="stall", config=config,
                    trace=_replay(config, trace, labelled=True)[2],
                    violations=[AuditViolation(
                        kind="stall",
                        detail=(f"only {live} live replicas; commit quorum "
                                f"{cluster.node_config.nf} unreachable"))])
                break
            continue
        if state_view > config.view_bound:
            result.view_capped_leaves += 1
            continue
        enabled = _enabled(choices, cluster, config)
        if not enabled:
            result.deadlock_leaves += 1
            if not config.expect_stall:
                result.counterexample = Counterexample(
                    kind="deadlock", config=config,
                    trace=_replay(config, trace, labelled=True)[2],
                    violations=[AuditViolation(
                        kind="deadlock",
                        detail=("no enabled events but "
                                f"{sum(not p.is_done() for p in cluster.pools)}"
                                " client pool(s) incomplete"))])
                break
            continue
        if len(trace) >= config.max_depth:
            result.truncated_leaves += 1
            continue
        for seq, _time, _label in reversed(enabled):
            frontier.append(trace + (seq,))
            result.transitions += 1
    return result


def check(config: ModelCheckConfig) -> ExploreResult:
    """Explore depth-first; on violation, minimise the counterexample.

    Minimisation re-explores breadth-first with the depth capped at the
    found trace's length: BFS reaches violating states in nondecreasing
    depth, so its first hit is a shortest counterexample.  If the BFS is
    cut short by the state bound, the DFS trace is kept.
    """
    result = explore(config, order="dfs")
    if result.counterexample is None:
        return result
    found = result.counterexample
    if len(found.trace) > 1:
        bounded = replace(config, max_depth=len(found.trace))
        shorter = explore(bounded, order="bfs")
        if (shorter.counterexample is not None
                and len(shorter.counterexample.trace) < len(found.trace)):
            result.counterexample = shorter.counterexample
    return result


# -------------------------------------------------------------- bug hunts
@dataclass
class HuntResult:
    """Outcome of a randomized schedule hunt."""

    config: ModelCheckConfig
    walks: int = 0
    steps: int = 0
    #: Index of the violating walk (reproducible: walk i always draws
    #: from ``Random(walk_seed * 1_000_003 + i)``).
    violating_walk: Optional[int] = None
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _defer_key(label: Tuple) -> Optional[Tuple]:
    """The deferral-set key of an event, or ``None`` if never deferrable.

    Deliveries key on (receiver, type, view, sequence, content tag) — one
    key covers e.g. "all view-0 SUPPORTs for slot 2 arriving at replica 1"
    while keeping retransmissions of different batches, and the same slot
    re-proposed in a later view, separately deferrable.  Timers key on
    their full label.  Crash/recover transitions and opaque events are
    never deferred.
    """
    kind = label[0]
    if kind == "deliver":
        return (label[2], label[3], label[4], label[5], label[6])
    if kind == "timer":
        return label
    return None


def hunt(config: ModelCheckConfig, walks: int = 500, walk_seed: int = 1,
         defer_p: float = 0.0, ordered: bool = False,
         max_steps: int = 400) -> HuntResult:
    """Randomized schedule exploration: seeded walks instead of DFS.

    Exhaustive exploration under the global timer gate can never reach
    the schedules where a view change races in-flight deliveries — the
    gate only lets timers fire at delivery quiescence.  Lifting the gate
    entirely (``timer_gate="eager"``) makes the space far too large to
    exhaust, so bug hunting uses the other classic levers:

    * per-walk random **deferral sets** (delay-bounded scheduling): with
      probability *defer_p* an event class (see :func:`_defer_key`) is
      declared *slow* for the whole walk and withheld while anything
      else is enabled.  Recovery bugs need a handful of specific
      messages to stay in flight across a view change; a uniform walk
      almost never keeps them undelivered long enough, a sticky deferral
      set routinely does;
    * with ``ordered=True`` each walk fires the *earliest* eligible
      event, so the schedule is the realistic timestamp order perturbed
      only by the deferral set — all randomness goes into *which* events
      are late, none into unrealistic shuffling of the rest;
    * with ``ordered=False`` events are sampled uniformly, preferring a
      timer/crash transition with probability ``HUNT_FAULT_BIAS`` whenever one
      is enabled (bugs in recovery logic live where timeouts preempt
      deliveries).

    Each walk fires events on one live cluster — no replay cost — and
    evaluates the safety invariants after every event.  The persistent-
    set reduction is disabled inside walks (a withheld delivery would pin
    the reduction's focus on its receiver forever).  Walk *i* draws from
    ``Random(1_000_003 * (walk_seed + i))``, so the violating walk alone
    is reproducible by rerunning with ``walk_seed = walk_seed + i`` and
    ``walks=1``; a found trace stays replayable with
    :func:`replay_trace`.
    """
    result = HuntResult(config=config)
    full = replace(config, persistent_sets=False)
    for walk_index in range(walks):
        rng = random.Random(1_000_003 * (walk_seed + walk_index))
        cluster, scheduler = build_cluster(config)
        trace: List[Tuple[int, Tuple]] = []
        slow: Dict[Tuple, bool] = {}
        result.walks += 1

        def _is_slow(label: Tuple) -> bool:
            if defer_p <= 0.0:
                return False
            key = _defer_key(label)
            if key is None:
                return False
            flag = slow.get(key)
            if flag is None:
                flag = rng.random() < defer_p
                slow[key] = flag
            return flag

        for _step in range(max_steps):
            enabled = _enabled(scheduler.choices(), cluster, full)
            if not enabled:
                break
            if all(pool.is_done() for pool in cluster.pools):
                break
            if max(replica.view for replica in cluster.replicas) > config.view_bound:
                break  # timeout churn: this walk is a view tower, abandon it
            eligible = [entry for entry in enabled
                        if not _is_slow(entry[2])] or enabled
            if ordered:
                seq, _time, label = eligible[0]
            else:
                faults = [entry for entry in eligible
                          if entry[2][0] in ("timer", "crash", "recover")]
                pool = faults if faults and rng.random() < HUNT_FAULT_BIAS else eligible
                seq, _time, label = pool[rng.randrange(len(pool))]
            trace.append((seq, label))
            scheduler.fire(seq)
            result.steps += 1
            violations = _violations(cluster)
            if violations:
                result.violating_walk = walk_index
                result.counterexample = Counterexample(
                    kind="invariant", config=config, trace=trace,
                    violations=violations)
                return result
    return result


def shrink_trace(config: ModelCheckConfig,
                 trace: Sequence[Tuple[int, Tuple]]) -> List[Tuple[int, Tuple]]:
    """Greedy delta-debugging of a violating trace to a local minimum.

    Event sequence numbers are assigned at *scheduling* time, so dropping
    a fired event never renumbers the others — it only removes the events
    its callback would have scheduled.  A candidate removal is kept when
    the remaining sequence numbers are all still schedulable in order and
    the final state still violates an invariant.  Iterates to a fixpoint:
    the result replays via :func:`replay_trace` and no single event can
    be removed from it.
    """
    current = [seq for seq, _label in trace]

    def _still_violates(seqs: List[int]) -> bool:
        try:
            cluster, _scheduler, _labels = _replay(config, seqs, labelled=True)
        except TraceMismatch:
            return False
        return bool(_violations(cluster))

    shrunk = True
    while shrunk:
        shrunk = False
        index = len(current) - 1
        while index >= 0:
            candidate = current[:index] + current[index + 1:]
            if _still_violates(candidate):
                current = candidate
                shrunk = True
            index -= 1
    return _replay(config, current, labelled=True)[2]


# ---------------------------------------------------------------- tracing
def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


def counterexample_to_json(counterexample: Counterexample) -> Dict[str, object]:
    """The replayable JSON form of one counterexample."""
    return {
        "schema": TRACE_SCHEMA,
        "kind": counterexample.kind,
        "config": asdict(counterexample.config),
        "trace": [{"seq": seq, "label": _jsonable(label)}
                  for seq, label in counterexample.trace],
        "violations": [{"kind": violation.kind, "detail": violation.detail}
                       for violation in counterexample.violations],
    }


def write_counterexample(counterexample: Counterexample, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counterexample_to_json(counterexample), handle, indent=2)
        handle.write("\n")


def load_trace(path: str) -> Tuple[ModelCheckConfig, List[Dict[str, object]]]:
    """Load a serialized counterexample: (config, trace entries)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {payload.get('schema')!r}")
    config_fields = dict(payload["config"])
    config = ModelCheckConfig(**config_fields)
    return config, list(payload["trace"])


def replay_trace(config: ModelCheckConfig, entries: Sequence[Dict[str, object]],
                 ) -> Tuple[Cluster, List[AuditViolation]]:
    """Re-execute a recorded trace, validating each step's label.

    Returns the final cluster and the invariant violations it exhibits
    (the recorded ones, if the trace is genuine and the underlying bug is
    still present).
    """
    cluster, _scheduler, _labels = _replay(
        config, [entry["seq"] for entry in entries],
        recorded=[entry.get("label") for entry in entries])
    return cluster, _violations(cluster)


# ----------------------------------------------------------------- cells
#: The exhaustive CI cells: PoE and PBFT, each with a crash choice point
#: (forcing at least one view change on every completing ordering) and
#: with an equivocating-then-crashing primary (both choice-point kinds in
#: one run).  Zyzzyva and SBFT ride behind the ``--all-protocols`` flag
#: of examples/model_check.py.
MODEL_CHECK_CELLS: Dict[str, ModelCheckConfig] = {
    # Fault-free baseline: one batch, every interleaving of the happy path.
    "poe-nofault": ModelCheckConfig(
        protocol="poe-mac", num_batches=1, client_outstanding=1),
    # Primary may crash at any point relative to the protocol messages;
    # schedules that stay in view 0 and schedules that force a view change
    # are both inside the bound.
    "poe-crash-interleaved": ModelCheckConfig(
        protocol="poe-mac", crash_replica=0, num_batches=1,
        client_outstanding=1, view_bound=1),
    # Primary down from the start: every schedule must recover through at
    # least one view change before the two batches can quiesce.
    "poe-crash-vc": ModelCheckConfig(
        protocol="poe-mac", crash_replica=0, crash_at_start=True,
        num_batches=2, client_outstanding=1, view_bound=1),
    "pbft-crash-vc": ModelCheckConfig(
        protocol="pbft", crash_replica=0, crash_at_start=True,
        num_batches=2, client_outstanding=1, view_bound=1),
    # Equivocating primary plus a crashed backup: the three live replicas
    # are exactly nf, so any split vote forces the view change to sort out
    # the conflicting proposals.
    "poe-equivocate-vc": ModelCheckConfig(
        protocol="poe-mac", byzantine_behavior="equivocate",
        crash_replica=3, crash_at_start=True,
        num_batches=1, client_outstanding=1, view_bound=1),
    "pbft-equivocate-vc": ModelCheckConfig(
        protocol="pbft", byzantine_behavior="equivocate",
        crash_replica=3, crash_at_start=True,
        num_batches=1, client_outstanding=1, view_bound=1),
}

EXTRA_CELLS: Dict[str, ModelCheckConfig] = {
    "zyzzyva-crash-vc": ModelCheckConfig(
        protocol="zyzzyva", crash_replica=0, crash_at_start=True,
        num_batches=2, client_outstanding=1, view_bound=1),
    "sbft-crash-vc": ModelCheckConfig(
        protocol="sbft", crash_replica=0, crash_at_start=True,
        num_batches=2, client_outstanding=1, view_bound=1),
}

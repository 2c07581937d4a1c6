"""Simulated message fabric connecting sans-IO protocol nodes.

The :class:`SimNetwork` is the driver that runs protocol state machines on
top of the discrete-event :class:`~repro.net.simulator.Simulator`.  For
every step output it

* charges the step's CPU cost to the node's (single) worker thread, so a
  busy replica delays its own subsequent sends — this models the
  RESILIENTDB pipeline bottleneck (Section III / Figure 6 of the paper);
* expands ``Broadcast`` actions to per-receiver sends;
* samples a delivery delay from the :class:`NetworkConditions` and applies
  the :class:`FaultSchedule` (crashes, partitions, dark replicas);
* materialises and cancels named timers.

What the network keeps per node — its timers, when its CPU and uplink are
next free, the Byzantine behaviour its traffic passes through, its handler
table and the time its first crash window opens — is one
:class:`NodeHandle` in ``_nodes``.  Registration only grows, so nothing is
pruned; a crash resets the handle's timers and CPU in place.

One delivered message is three Python frames: the simulator's run loop,
:meth:`SimNetwork._deliver`, and the protocol handler it looks up in the
node's table.  On the way in it cost one float comparison per end against
the handles' ``safe_until`` (the schedule is asked only about a node at
or past a crash window, or when links can be cut) and a share of one heap
entry per broadcast; on the way out the node's action list is looked at,
and replaced only if the step put something in it.  On lossless,
override-free, topology-free conditions both send paths draw the jitter
themselves: the one ``random()`` ``propagation_ms`` would have drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.net.byzantine import ByzantineBehavior, Delivery
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.simulator import Simulator, Timer
from repro.protocols.base import (
    Broadcast,
    CancelTimer,
    ClientNode,
    Message,
    Node,
    ProtocolNode,
    Send,
    SetTimer,
)

AnyNode = Union[ProtocolNode, ClientNode]

#: Observer signature: (sender, receiver, message, deliver_time_ms).
MessageObserver = Callable[[str, str, Message, float], None]

_NEVER = float("inf")


@dataclass(slots=True)
class NodeHandle:
    """Book-keeping the network keeps per registered node.

    ``dispatch`` is the node's own message-class -> handler table, held
    here so a delivery resolves its handler with one attribute load and
    one dict probe, in the network's frame.
    """

    node: AnyNode
    is_replica: bool
    dispatch: Mapping[type, Callable]
    timers: Dict[str, Timer] = field(default_factory=dict)
    #: Whether the node's ``start`` hook has run — a node crashed at boot
    #: has not started, and a later recovery must boot it first.
    started: bool = False
    #: Virtual times at which the node's single worker thread, and a
    #: replica's uplink, are done with everything booked on them so far.
    cpu_free_at: float = 0.0
    uplink_free_at: float = 0.0
    #: What the node sends passes through this (:meth:`SimNetwork.set_byzantine`).
    behavior: Optional[ByzantineBehavior] = None
    #: The node is certainly not crashed before this time (the start of its
    #: earliest crash window); the per-message fault checks ask the schedule
    #: about it only from then on (:meth:`SimNetwork._compile_faults`).
    safe_until: float = _NEVER


class _ForeignNode(Node):
    """Drives an object that is not a :class:`Node` as one: poebench's
    network drive registers a stub with ``node_id``, ``start(now_ms)`` and
    ``deliver_into(sender, message, now_ms, actions) -> cpu_ms``."""

    def __init__(self, inner: object) -> None:
        super().__init__()
        self.inner = inner
        self.node_id = inner.node_id

    def on_start(self, now_ms: float) -> None:
        output = self.inner.start(now_ms)
        self._pending_actions.extend(output.actions)
        self._pending_cpu_ms += output.cpu_ms

    def on_message(self, sender: str, message: Message, now_ms: float) -> None:
        self._pending_cpu_ms += self.inner.deliver_into(
            sender, message, now_ms, self._pending_actions)


class SimNetwork:
    """Connects protocol nodes through simulated, possibly faulty links."""

    def __init__(
        self,
        simulator: Simulator,
        conditions: Optional[NetworkConditions] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.sim = simulator
        self.conditions = conditions or NetworkConditions.lan()
        self.faults = faults or FaultSchedule.none()
        self.dropped_count = 0
        self.sent_count = 0
        self._nodes: Dict[str, NodeHandle] = {}
        self._replica_ids: List[str] = []
        #: (replica id, handle) pairs in registration order — the broadcast
        #: fan-out resolves receivers from this list instead of per-message
        #: dict lookups.
        self._replica_handles: List[Tuple[str, NodeHandle]] = []
        self._observers: List[MessageObserver] = []
        #: Optional shard-boundary hook for multi-network (sharded)
        #: deployments.  A send whose receiver is not registered here is
        #: offered to ``boundary.transmit(origin, sender, receiver,
        #: message, ready_at)``, which computes a deterministic (RNG-free)
        #: send->deliver timestamp and routes the message to the
        #: receiver's home network — possibly in another worker process.
        #: Deliveries come back in through :meth:`deliver_boundary`, so a
        #: node's timers and step outputs are always managed by its home
        #: network.  ``None`` (the single-network default) costs one
        #: attribute load per transmit.
        self.boundary: Optional[object] = None
        self._compile_faults()

    def _compile_faults(self) -> None:
        """Compile the schedule into what the per-message checks compare:
        each handle's ``safe_until`` and whether any fault severs links.
        Those checks redo it when ``faults.version`` has moved (``add_*``
        on the schedule, :meth:`crash`)."""
        faults = self.faults
        self._fault_version = faults.version
        self._link_faults = bool(faults.partitions or faults.dark_replicas)
        for node_id, handle in self._nodes.items():
            handle.safe_until = faults.safe_until(node_id)

    # -- registration ----------------------------------------------------------
    def add_replica(self, node: ProtocolNode) -> None:
        """Register a replica node (targets of ``Broadcast`` actions)."""
        if not isinstance(node, Node):
            node = _ForeignNode(node)
        handle = NodeHandle(
            node=node, is_replica=True, dispatch=node._dispatch,
            safe_until=self.faults.safe_until(node.node_id))
        self._nodes[node.node_id] = handle
        self._replica_ids.append(node.node_id)
        self._replica_handles.append((node.node_id, handle))

    def add_client(self, node: ClientNode) -> None:
        """Register a client node."""
        self._nodes[node.node_id] = NodeHandle(
            node=node, is_replica=False, dispatch=node._dispatch,
            safe_until=self.faults.safe_until(node.node_id))

    def add_observer(self, observer: MessageObserver) -> None:
        """Register a callback invoked for every delivered message."""
        self._observers.append(observer)

    def set_byzantine(self, node_id: str, behavior: ByzantineBehavior,
                      seed: object = 0) -> None:
        """Route *node_id*'s outgoing traffic through a Byzantine behaviour.

        The node itself keeps running its honest state machine; the
        behaviour tampers at the network boundary.  Must be called after
        every replica is registered (the behaviour needs the membership to
        derive its target groups).  The behaviour is handed the node and
        this network, then bound.  Fabricated messages still leave the
        Byzantine node's own transport, so receivers observe the true
        sender regardless of any identity claimed in the payload.
        """
        handle = self._nodes[node_id]
        behavior.node = handle.node
        behavior.network = self
        behavior.bind(node_id, self._replica_ids, seed)
        handle.behavior = behavior

    def node(self, node_id: str) -> AnyNode:
        return self._nodes[node_id].node

    # -- lifecycle --------------------------------------------------------------
    def start_all(self) -> None:
        """Boot every registered node at the current virtual time."""
        for node_id in list(self._nodes):
            handle = self._nodes[node_id]
            if self.faults.crashed_at(node_id, self.sim.now):
                handle.node.crashed = True
                continue
            self._boot(node_id, handle)
        self._schedule_fault_transitions()

    def _boot(self, node_id: str, handle: NodeHandle) -> None:
        """Run the node's ``start`` step and apply what it produced."""
        handle.started = True
        output = handle.node.start(self.sim.now)
        self._finish_step(handle, node_id, output.cpu_ms, output.actions)

    def _finish_step(self, handle: NodeHandle, node_id: str, cpu_ms: float,
                     actions: List[object]) -> None:
        """Book a step's CPU on the node's worker and apply its actions as of
        the time the work is done.  Work is serialised per node: one busy
        until ``t`` runs the step over ``[t, t + cpu_ms]``.  (:meth:`_deliver`
        does the same in its own frame.)"""
        now = self.sim.now
        free_at = handle.cpu_free_at
        start = now if now > free_at else free_at
        ready_at = start + cpu_ms if cpu_ms > 0.0 else start
        handle.cpu_free_at = ready_at
        if actions:
            self._apply_actions(node_id, actions, ready_at)

    def crash(self, node_id: str, at_ms: Optional[float] = None) -> None:
        """Crash a node immediately or at a future time."""
        when = self.sim.now if at_ms is None else at_ms
        self.faults.add_crash(node_id, at_ms=when)
        if when <= self.sim.now:
            self._apply_crash(node_id)
        else:
            self._note_label(
                self.sim.schedule_at(when, lambda: self._apply_crash(node_id)),
                ("crash", node_id))

    def _note_label(self, event, label: Tuple[str, str]) -> None:
        """Label a fault-transition event for the model checker's scheduler.

        A no-op on the plain simulator; only the cold fault-scheduling
        paths call it, so the delivery hot path is untouched.
        """
        note = getattr(self.sim, "note_label", None)
        if note is not None:
            note(event, label)

    def _apply_crash(self, node_id: str) -> None:
        handle = self._nodes.get(node_id)
        if handle is None:
            return
        handle.node.crashed = True
        for timer in handle.timers.values():
            timer.cancel()
        handle.timers.clear()
        handle.cpu_free_at = 0.0

    def _schedule_fault_transitions(self) -> None:
        for crash in self.faults.crashes:
            if crash.at_ms > self.sim.now:
                self._note_label(
                    self.sim.schedule_at(
                        crash.at_ms,
                        lambda node_id=crash.node_id: self._apply_crash(node_id)),
                    ("crash", crash.node_id))
            elif self.faults.crashed_at(crash.node_id, self.sim.now):
                self._apply_crash(crash.node_id)
            # Bounded crash windows recover (membership churn): the node
            # rejoins at ``until_ms`` and catches up through the normal
            # checkpoint/state-transfer machinery.
            if crash.until_ms is not None and crash.until_ms > self.sim.now:
                self._note_label(
                    self.sim.schedule_at(
                        crash.until_ms,
                        lambda node_id=crash.node_id: self._apply_recover(node_id)),
                    ("recover", crash.node_id))

    def _apply_recover(self, node_id: str) -> None:
        """Bring a node back after a bounded crash window (replica rejoin).

        If another crash window still covers the node this is a no-op.  A
        node crashed at boot is started now; one that had been running
        simply resumes — its next checkpoint observations (f+1 votes above
        its own state) drive state transfer, which is the rejoin path.
        """
        handle = self._nodes.get(node_id)
        if handle is None:
            return
        if self.faults.crashed_at(node_id, self.sim.now):
            return
        handle.node.crashed = False
        if not handle.started:
            self._boot(node_id, handle)

    # -- message plumbing --------------------------------------------------------
    def inject(self, sender: str, receiver: str, message: Message,
               delay_ms: float = 0.0) -> None:
        """Inject a message as if *sender* transmitted it (used by tests/harness).

        The message goes through the normal fault and delay machinery.
        """
        self._transmit(sender, receiver, message, ready_at=self.sim.now + delay_ms)

    def _apply_actions(self, node_id: str, actions: List[object],
                       ready_at: float) -> None:
        """Apply one step's actions (caller has already charged the CPU).

        The one place actions are interpreted.  The four action types are
        final, so they are matched by exact class; this loop runs once per
        protocol step.  A Byzantine sender differs only in that what it
        sends passes through its behaviour first; its timers are its own.
        """
        handle = self._nodes[node_id]
        behavior = handle.behavior
        for action in actions:
            cls = action.__class__
            if cls is Send:
                if behavior is None:
                    self._transmit(node_id, action.to, action.message, ready_at)
                else:
                    self._transmit_transformed(
                        behavior, node_id,
                        [Delivery(action.to, action.message)], ready_at)
            elif cls is Broadcast:
                if behavior is None:
                    self._transmit_broadcast(node_id, action.message,
                                             action.include_self, ready_at)
                else:
                    self._transmit_transformed(
                        behavior, node_id,
                        [Delivery(receiver, action.message)
                         for receiver in self._replica_ids
                         if receiver != node_id or action.include_self],
                        ready_at)
            elif cls is SetTimer:
                self._arm_timer(handle, node_id, action, ready_at)
            elif cls is CancelTimer:
                timer = handle.timers.pop(action.name, None)
                if timer is not None:
                    timer.cancel()
            else:
                raise TypeError(f"{node_id} produced an unknown action: {action!r}")

    def _transmit_transformed(self, behavior: ByzantineBehavior, node_id: str,
                              deliveries: List[Delivery], ready_at: float) -> None:
        for delivery in behavior.transform(deliveries, self.sim.now):
            self._transmit(node_id, delivery.receiver, delivery.message,
                           ready_at + delivery.delay_ms)

    def _arm_timer(self, handle: NodeHandle, node_id: str, action: SetTimer,
                   ready_at: float) -> None:
        existing = handle.timers.pop(action.name, None)
        if existing is not None:
            existing.cancel()
        fire_delay = max(0.0, ready_at - self.sim.now) + action.delay_ms

        def fire() -> None:
            handle.timers.pop(action.name, None)
            node = handle.node
            if node.crashed:
                return
            output = node.timer_fired(action.name, action.payload, self.sim.now)
            self._finish_step(handle, node_id, output.cpu_ms, output.actions)

        handle.timers[action.name] = self.sim.set_timer(node_id, action.name, fire_delay, fire)

    def _transmit(self, sender: str, receiver: str, message: Message,
                  ready_at: float) -> None:
        """Schedule delivery of one message, applying faults and delays.

        Replica senders pay serialization time on their uplink: broadcasting
        a large proposal to ``n - 1`` backups occupies the sender's
        bandwidth once per receiver, which is what makes the primary the
        bandwidth bottleneck under standard payloads (paper, Section IV-E).

        On lossless conditions with no link override and no topology the
        propagation delay is drawn here as ``latency + jitter * random()``,
        bit for bit the draw :meth:`NetworkConditions.propagation_ms` makes
        there (and :meth:`_transmit_broadcast` per receiver); any other
        conditions, and a node's message to itself, go through it.
        """
        self.sent_count += 1
        nodes = self._nodes
        receiver_handle = nodes.get(receiver)
        if receiver_handle is None:
            boundary = self.boundary
            if boundary is not None and boundary.transmit(
                    self, sender, receiver, message, ready_at):
                return
            self.dropped_count += 1
            return
        now = self.sim._now
        send_time = ready_at if ready_at > now else now
        conditions = self.conditions
        sender_handle = nodes.get(sender)
        if (sender_handle is not None and sender_handle.is_replica
                and sender != receiver):
            serialization_ms = conditions.serialization_delay_ms(
                message.size_bytes)
            if serialization_ms > 0:
                start = sender_handle.uplink_free_at
                if send_time > start:
                    start = send_time
                send_time = start + serialization_ms
                sender_handle.uplink_free_at = send_time
        faults = self.faults
        if faults.active:
            if faults.version != self._fault_version:
                self._compile_faults()
            # Both ends before their first crash window and no link fault:
            # nothing in the schedule can drop this message.
            if ((self._link_faults or sender_handle is None
                 or send_time >= sender_handle.safe_until
                 or send_time >= receiver_handle.safe_until)
                    and faults.drops(sender, receiver, send_time)):
                self.dropped_count += 1
                return
        if (sender != receiver and not conditions.overrides
                and conditions.loss_rate == 0.0 and conditions.topology is None):
            # uniform(0, j) evaluates to 0.0 + j * random().
            jitter = conditions.jitter_ms
            propagation = (conditions.latency_ms + jitter * conditions._rng.random()
                           if jitter > 0 else conditions.latency_ms)
        else:
            propagation = conditions.propagation_ms(sender, receiver, send_time)
            if propagation is None:
                self.dropped_count += 1
                return
        # functools.partial instead of a lambda: no closure cell allocation
        # per message, and a cheaper call on the other end.  The receiver
        # handle is resolved now — registration only ever grows — so the
        # delivery callback skips the per-message node lookup.
        self.sim.post_at(send_time + propagation,
                         partial(self._deliver, sender, receiver,
                                 receiver_handle, message))

    def _transmit_broadcast(self, sender: str, message: Message,
                            include_self: bool, ready_at: float) -> None:
        """Fan one broadcast out to every replica.

        Semantically equivalent to calling :meth:`_transmit` once per
        receiver (the MAC-mode protocols do this n² times per slot), but
        with the per-fan-out invariants hoisted out of the loop: the
        serialization delay, the sender's uplink cursor (read once,
        written once), the fault-schedule gate and the lossless-conditions
        fast path for the jitter draw.  RNG draw order — one ``random()``
        per non-self receiver, in membership order — matches the generic
        path exactly, so delivery timestamps are bit-identical.

        The loop decides *who* receives the message and *when*; the
        deliveries themselves are handed to the scheduler once, as one
        :meth:`~repro.net.simulator.Simulator.post_fanout` — one live heap
        entry per broadcast, not one per receiver.  Dropped and
        self-skipped receivers are simply not in the lists, so they
        consume no sequence number, exactly as if each surviving receiver
        were posted on its own.
        """
        conditions = self.conditions
        serialization = conditions.serialization_delay_ms(message.size_bytes)
        now = self.sim.now
        send_base = ready_at if ready_at > now else now
        sender_handle = self._nodes.get(sender)
        pays_uplink = (sender_handle is not None and sender_handle.is_replica
                       and serialization > 0)
        uplink_free = sender_handle.uplink_free_at if pays_uplink else 0.0
        faults = self.faults
        faults_active = faults.active
        if faults_active and faults.version != self._fault_version:
            self._compile_faults()
        # The time from which every receiver needs the schedule's verdict;
        # before it, only a receiver past its own ``safe_until`` does.
        ask_from = (-_NEVER if self._link_faults or sender_handle is None
                    else sender_handle.safe_until)
        fast_conditions = (not conditions.overrides and conditions.loss_rate == 0.0
                           and conditions.topology is None)
        latency = conditions.latency_ms
        jitter = conditions.jitter_ms
        random = conditions._rng.random
        local_ms = conditions.local_delivery_ms
        times: List[float] = []
        targets: List[Tuple[str, NodeHandle]] = []
        add_time = times.append
        add_target = targets.append
        sent = 0
        dropped = 0
        for target in self._replica_handles:
            receiver = target[0]
            if receiver == sender:
                if not include_self:
                    continue
                sent += 1
                send_time = send_base
                if (faults_active
                        and (send_time >= ask_from
                             or send_time >= target[1].safe_until)
                        and faults.drops(sender, receiver, send_time)):
                    dropped += 1
                    continue
                propagation = local_ms
            else:
                sent += 1
                if pays_uplink:
                    start = uplink_free if uplink_free > send_base else send_base
                    send_time = start + serialization
                    uplink_free = send_time
                else:
                    send_time = send_base
                if (faults_active
                        and (send_time >= ask_from
                             or send_time >= target[1].safe_until)
                        and faults.drops(sender, receiver, send_time)):
                    dropped += 1
                    continue
                if fast_conditions:
                    # Same draw as NetworkConditions.propagation_ms:
                    # uniform(0, j) evaluates to 0.0 + j * random().
                    propagation = (latency + jitter * random() if jitter > 0
                                   else latency)
                else:
                    sampled = conditions.propagation_ms(sender, receiver, send_time)
                    if sampled is None:
                        dropped += 1
                        continue
                    propagation = sampled
            add_time(send_time + propagation)
            add_target(target)
        self.sim.post_fanout(times, targets, self._deliver, sender, message)
        self.sent_count += sent
        self.dropped_count += dropped
        if pays_uplink:
            sender_handle.uplink_free_at = uplink_free

    def _deliver(self, sender: str, receiver: str, handle: NodeHandle,
                 message: Message) -> None:
        """Deliver one scheduled message (what the run loop calls per delivery).

        *handle* was resolved when the message was transmitted —
        registration only grows, so it cannot go stale.  Between the run
        loop and the protocol handler this is the only Python frame.
        """
        node = handle.node
        if node.crashed:
            self.dropped_count += 1
            return
        now = self.sim._now
        faults = self.faults
        if faults.has_crashes:
            if faults.version != self._fault_version:
                self._compile_faults()
            if now >= handle.safe_until and faults.crashed_at(receiver, now):
                node.crashed = True
                self.dropped_count += 1
                return
        observers = self._observers
        if observers:
            for observer in observers:
                observer(sender, receiver, message, now)
        # Node.deliver and _finish_step, in this frame.
        node._pending_cpu_ms = node._base_processing_ms
        handler = handle.dispatch.get(message.__class__)
        if handler is None:
            node.on_message(sender, message, now)
        else:
            handler(sender, message, now)
        cpu_ms = node._pending_cpu_ms
        node._pending_cpu_ms = 0.0
        free_at = handle.cpu_free_at
        start = now if now > free_at else free_at
        ready_at = start + cpu_ms if cpu_ms > 0.0 else start
        handle.cpu_free_at = ready_at
        actions = node._pending_actions
        if actions:
            node._pending_actions = []
            self._apply_actions(receiver, actions, ready_at)

    def deliver_boundary(self, sender: str, receiver: str, message: Message,
                         send_time_ms: float, deliver_at_ms: float) -> None:
        """Schedule delivery of a message that crossed a shard boundary.

        The boundary computed the deterministic ``send -> deliver``
        timestamps; this side only applies the receiving network's fault
        schedule (evaluated at send time, exactly as :meth:`_transmit`
        would) and posts the same ``partial(self._deliver, ...)`` callback
        shape the local path uses, so delivered boundary messages are
        indistinguishable from local ones downstream (observers, tracing,
        the model checker's delivery labels).
        """
        handle = self._nodes.get(receiver)
        if handle is None:
            self.dropped_count += 1
            return
        faults = self.faults
        if faults.active and faults.drops(sender, receiver, send_time_ms):
            self.dropped_count += 1
            return
        self.sim.post_at(deliver_at_ms,
                         partial(self._deliver, sender, receiver,
                                 handle, message))

    # -- convenience --------------------------------------------------------------
    def run(self, until_ms: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the underlying simulator."""
        return self.sim.run(until_ms=until_ms, max_events=max_events)

    def run_until_idle(self, max_events: int = 2_000_000) -> float:
        return self.sim.run_until_idle(max_events=max_events)

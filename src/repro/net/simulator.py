"""Deterministic discrete-event simulator.

Everything in the evaluation fabric runs on top of this scheduler: message
deliveries, protocol timers and client request injection.  It is an event
heap and a clock, nothing more — what a node's CPU or uplink is busy with
is the network driver's book-keeping (:mod:`repro.net.network`).  Time is
virtual and measured in milliseconds (floats).  Two properties matter for
reproducibility:

* events scheduled for the same instant fire in insertion order (the heap
  key includes a monotonically increasing sequence number);
* all randomness used by the network and workloads flows through seeded
  generators owned by their respective components, never globals.

The queue holds plain ``(time_ms, seq, callback)`` tuples rather than
comparable event objects: tuple comparison happens entirely in C, which is
what makes ``heappush``/``heappop`` the cheap part of the hot loop.
Cancellation uses a side table of sequence numbers (lazy deletion): a
cancelled entry stays in the heap and is skipped when it surfaces.

A heap entry is one timer, one unicast delivery, or one *broadcast*
(:meth:`Simulator.post_fanout`).  A broadcast to k receivers reserves k
consecutive sequence numbers but keeps a single live entry, keyed by the
smallest ``(time_ms, seq)`` among its deliveries not yet made.  The run
loop steps that entry itself: one ``heapreplace`` under the key of the
next delivery (a ``heappop`` after the last), then the delivery callable
``deliver(sender, receiver, handle, message)`` called directly — one heap
sift and no frame of the simulator's own between the loop and the network.
A timer or unicast entry costs one ``heappop`` and one call.  So the heap —
and what the cyclic collector walks — holds one entry per broadcast in
flight instead of one per receiver (n² of them per consensus slot in the
MAC-mode protocols).  Firing order is provably that of k separate
entries: ``(time_ms, seq)`` is a total order, every broadcast's entry sits
at the minimum of its own remaining keys, so the heap minimum is the
minimum over *all* pending deliveries, and each delivery is still stepped
under its own key — which is all that ``run``'s horizon and event budget,
``next_event_time`` and ``processed_events`` ever look at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional, Set, Tuple


class Event:
    """Handle for a scheduled callback.

    The simulator returns one of these from :meth:`Simulator.schedule`; it
    is a cancellation token, not the heap entry itself.  ``cancel()``
    registers the entry's sequence number in the simulator's cancel table
    so the event is skipped when it reaches the head of the heap.

    Attributes:
        time_ms: virtual time at which the event fires.
        seq: tie-breaking insertion sequence number.
        cancelled: whether :meth:`cancel` was called.
    """

    __slots__ = ("time_ms", "seq", "cancelled", "_cancel_table")

    def __init__(self, time_ms: float, seq: int, cancel_table: Set[int]) -> None:
        self.time_ms = time_ms
        self.seq = seq
        self.cancelled = False
        self._cancel_table = cancel_table

    def cancel(self) -> None:
        """Prevent the callback from running when the event is popped."""
        if not self.cancelled:
            self.cancelled = True
            self._cancel_table.add(self.seq)


@dataclass(slots=True)
class Timer:
    """A named, cancellable timer owned by a node.

    Protocol state machines request timers through actions; the simulator
    (or the asyncio transport) materialises them and calls back into the
    protocol with the timer name on expiry.
    """

    owner: str
    name: str
    event: Event

    def cancel(self) -> None:
        self.event.cancel()

    @property
    def active(self) -> bool:
        return not self.event.cancelled


class _FanOut:
    """One broadcast in flight (:meth:`Simulator.post_fanout`): a record,
    stepped by :meth:`Simulator.run`, not a callable."""

    __slots__ = ("times", "first_seq", "remaining", "targets", "deliver",
                 "sender", "message")

    def __init__(self, times: List[float], first_seq: int,
                 remaining: List[int], targets: List[Tuple],
                 deliver: Callable[..., None], sender: str,
                 message: object) -> None:
        self.times = times
        self.first_seq = first_seq
        #: Indices into ``times``/``targets`` of the deliveries not yet
        #: made, latest ``(time, seq)`` first: the next one is popped off
        #: the end.  The only state that changes after construction.
        self.remaining = remaining
        self.targets = targets
        self.deliver = deliver
        self.sender = sender
        self.message = message


class Simulator:
    """Virtual-time event loop."""

    __slots__ = ("_queue", "_seq", "_now", "_processed_events", "_cancelled")

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0
        self._processed_events = 0
        self._cancelled: Set[int] = set()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for run-length guards)."""
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Live heap entries (cancelled entries included).

        A broadcast in flight is one entry however many of its deliveries
        are still to come, so this is a lower bound on the number of
        callbacks yet to run, not a count of them.
        """
        return len(self._queue)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError("cannot schedule events in the past")
        seq = self._seq
        self._seq = seq + 1
        time_ms = self._now + delay_ms
        heappush(self._queue, (time_ms, seq, callback))
        return Event(time_ms, seq, self._cancelled)

    def schedule_at(self, time_ms: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at an absolute virtual time (clamped to now)."""
        delay = time_ms - self._now
        return self.schedule(delay if delay > 0.0 else 0.0, callback)

    def post_at(self, time_ms: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* at an absolute time without a cancel token.

        Message deliveries — the bulk of all scheduled events — are never
        cancelled, so the :class:`Event` handle :meth:`schedule` allocates
        per call is pure overhead for them.  The clamp arithmetic mirrors
        :meth:`schedule_at` + :meth:`schedule` exactly (``now + (t - now)``,
        not ``t``) so the produced timestamps, and with them heap ordering
        and determinism, are bit-identical to the token-returning path.
        """
        delay = time_ms - self._now
        if delay < 0.0:
            delay = 0.0
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, callback))

    def post_fanout(self, times: List[float], targets: List[Tuple],
                    deliver: Callable[..., None], sender: str,
                    message: object) -> None:
        """Schedule ``deliver(sender, *targets[i], message)`` at ``times[i]``.

        Equivalent, event for event, to one :meth:`post_at` per target in
        list order — the same consecutive sequence numbers, the same clamp
        arithmetic, every delivery popped under its own ``(time, seq)`` —
        but with one live heap entry for the whole broadcast (see the
        module docstring).  *times* need not be sorted; ties fire in list
        order.  Each target is a ``(receiver, handle)`` pair.
        """
        count = len(times)
        if not count:
            return
        now = self._now
        first_seq = self._seq
        self._seq = first_seq + count
        # post_at's clamp, bit for bit: ``now + max(t - now, 0)``, not ``t``.
        clamped: List[float] = []
        add = clamped.append
        for time_ms in times:
            delay = time_ms - now
            add(now + (0.0 if delay < 0.0 else delay))
        if count > 1:
            # sorted() is stable: equal times stay in index (= seq) order.
            # Reversed, the next delivery is always the last element.
            remaining = sorted(range(count), key=clamped.__getitem__)
            remaining.reverse()
        else:
            remaining = [0]
        head = remaining[-1]
        heappush(self._queue, (
            clamped[head], first_seq + head,
            _FanOut(clamped, first_seq, remaining, targets, deliver, sender,
                    message)))

    def set_timer(self, owner: str, name: str, delay_ms: float,
                  callback: Callable[[], None]) -> Timer:
        """Create a named timer for a node."""
        event = self.schedule(delay_ms, callback)
        return Timer(owner=owner, name=name, event=event)

    # -- execution -------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` if none remain."""
        before = self._processed_events
        self.run(max_events=1)
        return self._processed_events != before

    def run(self, until_ms: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, *until_ms*, or *max_events*.

        Cancelled entries never count against *max_events*.  Returns the
        virtual time when the run stopped.

        A broadcast's entry is stepped in place: ``heapreplace`` under the
        key of its next delivery (``heappop`` after the last), *then* the
        delivery — so while a delivery's handlers run, or after one raised,
        the heap already describes everything still pending.
        """
        queue = self._queue
        cancelled = self._cancelled
        fan_out = _FanOut
        executed = 0
        while queue:
            if max_events is not None and executed >= max_events:
                break
            time_ms, seq, callback = queue[0]
            if cancelled and seq in cancelled:
                heappop(queue)
                cancelled.discard(seq)
                continue
            if until_ms is not None and time_ms > until_ms:
                self._now = until_ms
                break
            if time_ms > self._now:
                self._now = time_ms
            self._processed_events += 1
            executed += 1
            if callback.__class__ is fan_out:
                remaining = callback.remaining
                index = remaining.pop()
                if remaining:
                    following = remaining[-1]
                    heapreplace(queue, (callback.times[following],
                                        callback.first_seq + following,
                                        callback))
                else:
                    heappop(queue)
                receiver, handle = callback.targets[index]
                callback.deliver(callback.sender, receiver, handle,
                                 callback.message)
            else:
                heappop(queue)
                callback()
        if until_ms is not None and not queue:
            self._now = max(self._now, until_ms)
        return self._now

    def run_until_idle(self, max_events: int = 1_000_000) -> float:
        """Drain the event queue (with a safety cap on event count)."""
        return self.run(max_events=max_events)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live pending event, ``None`` if idle.

        Cancelled heap entries encountered on the way are discarded (they
        would be skipped by :meth:`run` anyway and never count as
        processed), so the probe is amortised O(1) and leaves the head of
        the heap live.  The windowed sharded drivers use this as each
        runtime's horizon when computing the next conservative window
        edge; it never runs callbacks and never moves the clock.
        """
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            time_ms, seq, _ = queue[0]
            if cancelled and seq in cancelled:
                heappop(queue)
                cancelled.discard(seq)
                continue
            return time_ms
        return None


class ControlledScheduler(Simulator):
    """A simulator whose pending events are explicit, labelled choices.

    The bounded model checker (:mod:`repro.fabric.modelcheck`) drives a
    cluster through *every* delivery ordering instead of timestamp order.
    This subclass is its scheduler: :meth:`choices` lists the live
    (non-cancelled) pending events with stable, hashable labels, and
    :meth:`fire` executes one chosen event regardless of its position in
    the heap.  Firing out of timestamp order is safe — the clock only
    ever advances (``now = max(now, event time)``), which models an
    asynchronous network where any undelivered message may arrive next.

    Labels are how a recorded trace stays replayable and how the pending
    set enters the state fingerprint:

    * timers carry ``("timer", owner, name)`` (captured in
      :meth:`set_timer`);
    * message deliveries are recognised by their
      ``partial(SimNetwork._deliver, sender, receiver, handle, message)``
      callback shape and labelled with sender, receiver, message type and
      a content tag.  :meth:`post_fanout` is overridden to expand every
      broadcast into that shape, one heap entry per receiver, so each
      pending delivery is its own choice;
    * anything else (crash/recover transitions) is labelled explicitly by
      its scheduler via :meth:`note_label`, falling back to the
      callback's qualified name.

    The base class is untouched: none of this bookkeeping runs when a
    plain :class:`Simulator` drives a benchmark (``post_at``/
    ``post_fanout``/``run`` keep their hot-path shape), so the
    perf-smoke event pins cannot move.
    """

    __slots__ = ("_labels",)

    def __init__(self) -> None:
        super().__init__()
        #: seq -> label for events whose label is not derivable from the
        #: callback alone (timers, fault transitions).
        self._labels: Dict[int, Tuple] = {}

    # -- labelling -----------------------------------------------------------
    def set_timer(self, owner: str, name: str, delay_ms: float,
                  callback: Callable[[], None]) -> Timer:
        timer = super().set_timer(owner, name, delay_ms, callback)
        self._labels[timer.event.seq] = ("timer", owner, name)
        return timer

    def note_label(self, event: Event, label: Tuple) -> None:
        """Attach an explicit label to a scheduled event (fault hooks)."""
        self._labels[event.seq] = label

    def post_fanout(self, times: List[float], targets: List[Tuple],
                    deliver: Callable[..., None], sender: str,
                    message: object) -> None:
        """One labelled heap entry per delivery instead of one per broadcast.

        Exactly what the base method is specified to be equivalent to, so
        a run of this scheduler in timestamp order doubles as the
        differential oracle for it (``tests/test_fanout_equivalence.py``).
        """
        for time_ms, (receiver, handle) in zip(times, targets):
            self.post_at(time_ms, partial(deliver, sender, receiver, handle,
                                          message))

    @staticmethod
    def _message_tag(message: object) -> object:
        """Content tag distinguishing same-type messages in one mailbox.

        Equivocated proposals share (type, view, sequence) but differ in
        payload; the tag keeps their labels — and with them the pending
        part of the state fingerprint — distinct.
        """
        batch = getattr(message, "batch", None)
        if batch is not None:
            return (batch.batch_id, batch.digest())
        for attr in ("proposal_digest", "state_digest", "batch_digest",
                     "batch_id"):
            value = getattr(message, attr, None)
            if value:
                return value
        return None

    def _label_of(self, seq: int, callback: Callable[[], None]) -> Tuple:
        label = self._labels.get(seq)
        if label is not None:
            return label
        func = getattr(callback, "func", None)
        if func is not None and getattr(func, "__name__", "") == "_deliver":
            sender, receiver, _handle, message = callback.args
            return ("deliver", sender, receiver, type(message).__name__,
                    getattr(message, "view", None),
                    getattr(message, "sequence", None),
                    self._message_tag(message))
        name = getattr(callback, "__qualname__", None) or repr(callback)
        return ("opaque", name)

    # -- choice points -------------------------------------------------------
    def choices(self) -> List[Tuple[int, float, Tuple]]:
        """Live pending events as ``(seq, time_ms, label)``, canonically
        ordered by ``(time_ms, seq)`` — the order :meth:`step` would use."""
        cancelled = self._cancelled
        live = [(time_ms, seq, self._label_of(seq, callback))
                for time_ms, seq, callback in self._queue
                if seq not in cancelled]
        live.sort(key=lambda entry: (entry[0], entry[1]))
        return [(seq, time_ms, label) for time_ms, seq, label in live]

    def fire(self, seq: int) -> None:
        """Execute the pending event *seq*, wherever it sits in the heap.

        Queue surgery is O(n) + a re-heapify — irrelevant at model-check
        scale (a handful of pending events), and the timestamp invariants
        of :meth:`step` are preserved: the clock never goes backwards.
        """
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[1] == seq:
                break
        else:
            raise KeyError(f"no pending event with seq {seq}")
        if seq in self._cancelled:
            raise KeyError(f"event {seq} was cancelled")
        time_ms, _, callback = entry
        last = queue.pop()
        if index < len(queue):
            queue[index] = last
            heapify(queue)
        self._labels.pop(seq, None)
        if time_ms > self._now:
            self._now = time_ms
        self._processed_events += 1
        callback()

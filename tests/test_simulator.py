"""Tests for the discrete-event simulator and network condition models."""

import pytest
from hypothesis import given, strategies as st

from repro.net.conditions import LinkOverride, NetworkConditions
from repro.net.faults import CrashFault, FaultSchedule
from repro.net.simulator import ControlledScheduler, Simulator, _FanOut


class TestSimulatorScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(10.0, lambda: order.append("c"))
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in ["first", "second", "third"]:
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        observed = []
        sim.schedule(7.5, lambda: observed.append(sim.now))
        sim.run_until_idle()
        assert observed == [7.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(100.0, lambda: fired.append("late"))
        sim.run(until_ms=50.0)
        assert fired == ["early"]
        assert sim.now == 50.0

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3]

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert sim.processed_events == 5

    def test_cancelled_events_do_not_count_as_processed(self):
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(6)]
        for event in events[::2]:
            event.cancel()
        sim.run_until_idle()
        assert sim.processed_events == 3

    def test_interleaved_cancellations_preserve_order(self):
        sim = Simulator()
        fired = []
        events = {}
        for label in ["a", "b", "c", "d", "e"]:
            events[label] = sim.schedule(2.0, lambda label=label: fired.append(label))
        events["b"].cancel()
        events["d"].cancel()
        sim.run_until_idle()
        assert fired == ["a", "c", "e"]

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, lambda: fired.append("head"))
        sim.schedule(2.0, lambda: fired.append("tail"))
        head.cancel()
        assert sim.step() is True
        assert fired == ["tail"]
        assert sim.step() is False

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        event.cancel()
        sim.schedule(1.0, lambda: fired.append("y"))
        sim.run_until_idle()
        assert fired == ["y"]
        assert event.cancelled

    def test_schedule_at_in_the_past_clamps_to_now(self):
        sim = Simulator()
        observed = []
        sim.schedule(10.0, lambda: None)
        sim.run_until_idle()
        assert sim.now == 10.0
        sim.schedule_at(3.0, lambda: observed.append(sim.now))
        sim.run_until_idle()
        # The late event fires immediately at the current clock; time
        # never moves backwards.
        assert observed == [10.0]
        assert sim.now == 10.0

    def test_max_events_ignores_cancelled_heads(self):
        sim = Simulator()
        fired = []
        cancelled = [sim.schedule(1.0, lambda: fired.append("dead"))
                     for _ in range(3)]
        for event in cancelled:
            event.cancel()
        for label in ["a", "b", "c"]:
            sim.schedule(2.0, lambda label=label: fired.append(label))
        sim.run(max_events=2)
        # The three cancelled heads are discarded for free; exactly two
        # live events consume the budget and one stays pending.
        assert fired == ["a", "b"]
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_run_until_ms_with_all_heads_cancelled(self):
        sim = Simulator()
        event = sim.schedule(5.0, lambda: None)
        event.cancel()
        sim.run(until_ms=50.0)
        assert sim.now == 50.0
        assert sim.processed_events == 0


class _Recorder:
    """Delivery target for fan-out tests: logs (label, virtual time)."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def deliver(self, sender, receiver, handle, message):
        if message == "boom":
            raise RuntimeError("handler bug")
        self.log.append((f"{sender}>{receiver}", self.sim.now))

    def note(self, label):
        return lambda: self.log.append((label, self.sim.now))


def _pending_keys(sim):
    """``(time, seq)`` of every live pending callback, read off the heap:
    a broadcast's entry stands for all of its deliveries not yet made."""
    keys = []
    for time_ms, seq, callback in sim._queue:
        if seq in sim._cancelled:
            continue
        if isinstance(callback, _FanOut):
            keys.extend((callback.times[index], callback.first_seq + index)
                        for index in callback.remaining)
        else:
            keys.append((time_ms, seq))
    return sorted(keys)


def _targets(*names):
    return [(name, None) for name in names]


class TestFanOut:
    """``post_fanout``: one heap entry per broadcast, same firing order."""

    def test_unsorted_and_tied_times_fire_in_time_then_seq_order(self):
        sim = Simulator()
        rec = _Recorder(sim)
        sim.schedule(2.0, rec.note("timer@2"))            # seq 0
        dead = sim.schedule(1.0, rec.note("cancelled"))   # seq 1
        sim.post_fanout([3.0, 1.0, 2.0, 1.0], _targets("a", "b", "c", "d"),
                        rec.deliver, "x", "m")            # seqs 2..5
        sim.post_at(1.0, rec.note("post@1"))              # seq 6
        sim.post_fanout([2.0, 0.5], _targets("e", "f"),
                        rec.deliver, "y", "m")            # seqs 7, 8
        after = sim.schedule(2.0, rec.note("timer@2b"))   # seq 9
        dead.cancel()
        assert after.seq == 9  # a fan-out reserves one seq per delivery
        sim.run_until_idle()
        assert rec.log == [
            ("y>f", 0.5),
            ("x>b", 1.0), ("x>d", 1.0), ("post@1", 1.0),
            ("timer@2", 2.0), ("x>c", 2.0), ("y>e", 2.0), ("timer@2b", 2.0),
            ("x>a", 3.0),
        ]
        assert sim.processed_events == 9  # once per delivery, not per entry

    def test_one_live_heap_entry_per_broadcast(self):
        sim = Simulator()
        rec = _Recorder(sim)
        sim.post_fanout([1.0, 2.0, 3.0], _targets("a", "b", "c"),
                        rec.deliver, "x", "m")
        sim.post_fanout([1.5], _targets("d"), rec.deliver, "y", "m")
        assert sim.pending_events == 2
        assert sim.step() and sim.step()
        assert sim.pending_events == 1  # y is done, x has two to go
        sim.run_until_idle()
        assert sim.pending_events == 0
        assert [label for label, _ in rec.log] == ["x>a", "y>d", "x>b", "x>c"]

    def test_empty_fanout_reserves_nothing(self):
        sim = Simulator()
        sim.post_fanout([], [], lambda *args: None, "x", "m")
        assert sim.pending_events == 0
        assert sim.schedule(1.0, lambda: None).seq == 0

    def test_past_times_clamp_to_now_like_post_at(self):
        sim = Simulator()
        rec = _Recorder(sim)
        sim.schedule(10.0, lambda: None)
        sim.run_until_idle()
        sim.post_fanout([12.0, 3.0, 10.0], _targets("a", "b", "c"),
                        rec.deliver, "x", "m")
        sim.run_until_idle()
        # b and c both clamp to now=10 and tie; seq (list) order decides.
        assert rec.log == [("x>b", 10.0), ("x>c", 10.0), ("x>a", 12.0)]

    def test_run_until_stops_between_two_deliveries_and_resumes(self):
        sim = Simulator()
        rec = _Recorder(sim)
        sim.post_fanout([1.0, 5.0, 3.0], _targets("a", "b", "c"),
                        rec.deliver, "x", "m")
        assert sim.run(until_ms=2.0) == 2.0
        assert rec.log == [("x>a", 1.0)]
        assert sim.processed_events == 1
        assert sim.next_event_time() == 3.0
        assert sim.run(until_ms=4.0) == 4.0
        assert rec.log == [("x>a", 1.0), ("x>c", 3.0)]
        sim.run_until_idle()
        assert rec.log == [("x>a", 1.0), ("x>c", 3.0), ("x>b", 5.0)]
        assert sim.now == 5.0

    def test_max_events_cuts_mid_fanout(self):
        sim = Simulator()
        rec = _Recorder(sim)
        sim.post_fanout([1.0, 2.0, 3.0, 4.0], _targets("a", "b", "c", "d"),
                        rec.deliver, "x", "m")
        sim.run(max_events=2)
        assert [label for label, _ in rec.log] == ["x>a", "x>b"]
        assert sim.now == 2.0
        sim.run(max_events=1)
        assert [label for label, _ in rec.log] == ["x>a", "x>b", "x>c"]
        sim.run_until_idle()
        assert sim.processed_events == 4

    def test_next_event_time_is_the_true_minimum_throughout(self):
        sim = Simulator()
        seen = []
        pending = [1.0, 1.0, 2.5, 3.0, 4.0, 6.0]

        def deliver(sender, receiver, handle, message):
            # Asked from inside a delivery, the heap must already show the
            # same broadcast's next delivery.
            seen.append((sim.now, sim.next_event_time()))

        sim.post_fanout([4.0, 1.0, 6.0], _targets("a", "b", "c"),
                        deliver, "x", "m")
        sim.post_fanout([2.5, 1.0], _targets("d", "e"), deliver, "y", "m")
        sim.schedule(3.0, lambda: seen.append((sim.now, sim.next_event_time())))
        assert sim.next_event_time() == 1.0
        sim.run_until_idle()
        upcoming = pending[1:] + [None]
        assert seen == list(zip(pending, upcoming))
        assert sim.next_event_time() is None

    def test_exception_in_one_delivery_leaves_the_rest_scheduled(self):
        sim = Simulator()
        log = []

        def deliver(sender, receiver, handle, message):
            if receiver == "b":
                raise RuntimeError("handler bug")
            log.append(receiver)

        sim.post_fanout([1.0, 2.0, 3.0], _targets("a", "b", "c"),
                        deliver, "x", "m")
        sim.post_at(2.5, lambda: log.append("other"))
        with pytest.raises(RuntimeError):
            sim.run_until_idle()
        assert log == ["a"]
        assert sim.next_event_time() == 2.5
        sim.run_until_idle()
        assert log == ["a", "other", "c"]
        assert sim.processed_events == 4  # the failed delivery was popped
        assert sim.pending_events == 0

    def test_step_is_the_one_event_case_of_run(self):
        sim = Simulator()
        rec = _Recorder(sim)
        dead = sim.schedule(1.5, rec.note("cancelled"))       # seq 0
        sim.post_fanout([1.0, 3.0, 2.0], _targets("a", "b", "c"),
                        rec.deliver, "x", "m")                # seqs 1..3
        sim.schedule(2.0, rec.note("timer@2"))                # seq 4
        dead.cancel()
        assert sim.step()
        assert rec.log == [("x>a", 1.0)]
        # Mid-broadcast: the entry moved under its next key, nothing else.
        assert _pending_keys(sim) == [(2.0, 3), (2.0, 4), (3.0, 2)]
        assert sim.pending_events == 3  # cancelled timer, broadcast, timer
        assert sim.step()  # skips the cancelled timer without counting it
        assert sim.step() and sim.step()
        assert rec.log == [("x>a", 1.0), ("x>c", 2.0), ("timer@2", 2.0),
                           ("x>b", 3.0)]
        assert not sim.step()
        assert sim.processed_events == 4
        assert sim.pending_events == 0

    def test_step_that_raises_leaves_the_heap_complete(self):
        sim = Simulator()
        rec = _Recorder(sim)
        sim.post_fanout([1.0, 2.0], _targets("a", "b"), rec.deliver, "x",
                        "boom")
        with pytest.raises(RuntimeError):
            sim.step()
        assert _pending_keys(sim) == [(2.0, 1)]
        assert sim.processed_events == 1
        with pytest.raises(RuntimeError):
            sim.step()
        assert _pending_keys(sim) == []
        assert not sim.step()

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("fanout"),
                      st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0, 1.1,
                                                2.0, 2.05]),
                               max_size=6)),
            st.tuples(st.just("post"), st.sampled_from([0.0, 0.3, 1.0, 2.0])),
            st.tuples(st.just("timer"), st.sampled_from([0.0, 0.3, 1.0])),
            st.tuples(st.just("cancelled"), st.sampled_from([0.3, 1.0])),
            st.tuples(st.just("boom"),
                      st.lists(st.sampled_from([0.1, 0.7, 1.0]), min_size=1,
                               max_size=3)),
            st.tuples(st.just("run"), st.sampled_from([0.2, 0.7, 1.05])),
            st.tuples(st.just("events"), st.sampled_from([1, 2, 5])),
            st.tuples(st.just("step"), st.none())),
        max_size=12))
    def test_fires_like_one_post_at_per_delivery(self, program):
        """The plain simulator's natively stepped fan-out entries against
        the controlled scheduler's expansion into one ``post_at`` per
        delivery: same firing log, same clock, same event count, same next
        seq — over ties, past (clamped) times, deliveries that raise, and
        runs cut short by a horizon, an event budget or ``step()``.  After
        every stop both heaps describe the same pending deliveries."""
        outcomes = []
        for sim in (Simulator(), ControlledScheduler()):
            rec = _Recorder(sim)

            def drive(run):
                try:
                    run()
                except RuntimeError:
                    rec.log.append(("raised", sim.now))
                rec.log.append(("stopped", sim.now, sim.next_event_time(),
                                _pending_keys(sim)))

            for step, (kind, arg) in enumerate(program):
                if kind in ("fanout", "boom"):
                    sim.post_fanout(
                        list(arg), _targets(*(f"r{i}" for i in range(len(arg)))),
                        rec.deliver, f"b{step}",
                        "boom" if kind == "boom" else "m")
                elif kind == "post":
                    sim.post_at(arg, rec.note(f"post{step}"))
                elif kind == "timer":
                    sim.schedule(arg, rec.note(f"timer{step}"))
                elif kind == "cancelled":
                    sim.schedule(arg, rec.note(f"dead{step}")).cancel()
                elif kind == "run":
                    drive(lambda: sim.run(until_ms=sim.now + arg))
                elif kind == "events":
                    drive(lambda: sim.run(max_events=arg))
                else:
                    drive(sim.step)
            while sim.next_event_time() is not None:
                drive(sim.run_until_idle)
            outcomes.append((rec.log, sim.now, sim.processed_events,
                             sim.schedule(0.0, lambda: None).seq))
        assert outcomes[0] == outcomes[1]


class TestSimulatorTimers:
    def test_timers_belong_to_owner(self):
        sim = Simulator()
        fired = []
        timer = sim.set_timer("node-a", "t", 2.0, lambda: fired.append("fired"))
        assert timer.owner == "node-a"
        assert timer.active
        sim.run_until_idle()
        assert fired == ["fired"]

    def test_cancelled_timer_reports_inactive(self):
        sim = Simulator()
        timer = sim.set_timer("node-a", "t", 2.0, lambda: None)
        timer.cancel()
        assert not timer.active
        sim.run_until_idle()
        assert sim.processed_events == 0


class TestNetworkConditions:
    def test_delay_includes_latency(self):
        conditions = NetworkConditions(latency_ms=5.0, jitter_ms=0.0,
                                       bandwidth_mbps=None)
        delay = conditions.sample_delay_ms("a", "b", 1000)
        assert delay == pytest.approx(5.0)

    def test_serialization_delay_scales_with_size(self):
        conditions = NetworkConditions(latency_ms=0.0, jitter_ms=0.0,
                                       bandwidth_mbps=8.0)  # 1000 bytes/ms
        small = conditions.sample_delay_ms("a", "b", 1_000)
        large = conditions.sample_delay_ms("a", "b", 10_000)
        assert large > small
        assert large == pytest.approx(10.0)

    def test_local_delivery_uses_local_delay(self):
        conditions = NetworkConditions(latency_ms=5.0, local_delivery_ms=0.01)
        assert conditions.sample_delay_ms("a", "a", 100) == pytest.approx(0.01)

    def test_loss_rate_drops_messages(self):
        conditions = NetworkConditions(latency_ms=1.0, jitter_ms=0.0, loss_rate=1.0)
        assert conditions.sample_delay_ms("a", "b", 100) is None

    def test_link_override_changes_latency(self):
        conditions = NetworkConditions(latency_ms=1.0, jitter_ms=0.0,
                                       bandwidth_mbps=None)
        conditions.override_link("a", "b", LinkOverride(latency_ms=50.0))
        assert conditions.sample_delay_ms("a", "b", 100) == pytest.approx(50.0)
        assert conditions.sample_delay_ms("b", "a", 100) == pytest.approx(1.0)

    def test_uniform_delay_preset_has_no_jitter(self):
        conditions = NetworkConditions.uniform_delay(20.0)
        samples = {conditions.sample_delay_ms("a", "b", 10_000) for _ in range(10)}
        assert samples == {20.0}


class TestFaultSchedule:
    def test_crash_applies_from_start_time(self):
        faults = FaultSchedule.single_backup_crash("replica:3", at_ms=100.0)
        assert not faults.crashed_at("replica:3", 50.0)
        assert faults.crashed_at("replica:3", 150.0)

    def test_crash_with_recovery_window(self):
        faults = FaultSchedule().add_crash("replica:1", at_ms=10.0, until_ms=20.0)
        assert faults.crashed_at("replica:1", 15.0)
        assert not faults.crashed_at("replica:1", 25.0)

    def test_crashed_node_drops_messages_both_directions(self):
        faults = FaultSchedule.single_backup_crash("replica:2", at_ms=0.0)
        assert faults.drops("replica:2", "replica:0", 1.0)
        assert faults.drops("replica:0", "replica:2", 1.0)
        assert not faults.drops("replica:0", "replica:1", 1.0)

    def test_dark_replica_drops_only_selected_links(self):
        faults = FaultSchedule().add_dark_replicas("replica:0", ["replica:1"])
        assert faults.drops("replica:0", "replica:1", 5.0)
        assert not faults.drops("replica:0", "replica:2", 5.0)
        assert not faults.drops("replica:1", "replica:0", 5.0)

    def test_partition_separates_groups_symmetrically(self):
        faults = FaultSchedule().add_partition(["a", "b"], ["c"], at_ms=0.0)
        assert faults.drops("a", "c", 1.0)
        assert faults.drops("c", "b", 1.0)
        assert not faults.drops("a", "b", 1.0)

    def test_partition_window_expires(self):
        faults = FaultSchedule().add_partition(["a"], ["b"], at_ms=0.0, until_ms=10.0)
        assert faults.drops("a", "b", 5.0)
        assert not faults.drops("a", "b", 15.0)

    def test_every_mutation_moves_the_version(self):
        faults = FaultSchedule()
        seen = [faults.version]
        faults.add_crash("x", at_ms=3.0)
        seen.append(faults.version)
        faults.add_partition(["x"], ["y"])
        seen.append(faults.version)
        faults.add_dark_replicas("x", ["y"])
        seen.append(faults.version)
        assert len(set(seen)) == 4
        assert faults.safe_until("x") == 3.0
        faults.add_crash("x", at_ms=1.0, until_ms=2.0)
        assert faults.safe_until("x") == 1.0  # the earliest window's start

    def test_crashed_nodes_listing(self):
        faults = FaultSchedule()
        faults.add_crash("x", at_ms=0.0)
        faults.add_crash("y", at_ms=100.0)
        assert faults.crashed_nodes(50.0) == {"x"}
        assert faults.crashed_nodes(150.0) == {"x", "y"}


def _scan_crashed_at(faults, node_id, now_ms):
    """``crashed_at`` as the whole-list scan it was before the index."""
    for crash in faults.crashes:
        if crash.node_id != node_id:
            continue
        if now_ms < crash.at_ms:
            continue
        if crash.until_ms is not None and now_ms >= crash.until_ms:
            continue
        return True
    return False


def _scan_drops(faults, sender, receiver, now_ms):
    """``drops`` over the scan above, with no early return."""
    if (_scan_crashed_at(faults, sender, now_ms)
            or _scan_crashed_at(faults, receiver, now_ms)):
        return True
    for dark in faults.dark_replicas:
        if (dark.sender == sender and receiver in dark.receivers
                and now_ms >= dark.at_ms
                and (dark.until_ms is None or now_ms < dark.until_ms)):
            return True
    for partition in faults.partitions:
        if (partition.separates(sender, receiver) and now_ms >= partition.at_ms
                and (partition.until_ms is None
                     or now_ms < partition.until_ms)):
            return True
    return False


_NODES = ["n0", "n1", "n2", "n3"]
_TIMES = (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)
#: (start, end) with the end, when there is one, not before the start (the
#: schedule rejects a window that ends before it starts).
_WINDOWS = st.sampled_from(_TIMES).flatmap(lambda at: st.tuples(
    st.just(at), st.one_of(st.none(), st.sampled_from([u for u in _TIMES if u >= at]))))


class TestFaultScheduleIndex:
    @given(crashes=st.lists(st.tuples(st.sampled_from(_NODES), _WINDOWS),
                            max_size=6),
           dark=st.lists(st.tuples(st.sampled_from(_NODES),
                                   st.lists(st.sampled_from(_NODES),
                                            max_size=3), _WINDOWS),
                         max_size=2),
           partitions=st.lists(st.tuples(st.sampled_from(_NODES),
                                         st.sampled_from(_NODES), _WINDOWS),
                               max_size=2),
           via_constructor=st.booleans())
    def test_queries_match_the_linear_scan(self, crashes, dark, partitions,
                                           via_constructor):
        """Random schedules, bounded and unbounded windows, built through
        the constructor or the ``add_*`` methods in any mix."""
        if via_constructor:
            faults = FaultSchedule(crashes=[
                CrashFault(node_id=node, at_ms=at_ms, until_ms=until_ms)
                for node, (at_ms, until_ms) in crashes])
        else:
            faults = FaultSchedule()
            for node, (at_ms, until_ms) in crashes:
                faults.add_crash(node, at_ms=at_ms, until_ms=until_ms)
        for sender, receivers, (at_ms, until_ms) in dark:
            faults.add_dark_replicas(sender, receivers, at_ms=at_ms,
                                     until_ms=until_ms)
        for side_a, side_b, (at_ms, until_ms) in partitions:
            faults.add_partition([side_a], [side_b], at_ms=at_ms,
                                 until_ms=until_ms)
        assert faults.has_crashes == bool(crashes)
        assert faults.safe_until("stranger") == float("inf")
        for now_ms in (0.0, 4.9, 5.0, 12.0, 19.9, 20.0, 50.0):
            crashed = {node for node in _NODES
                       if _scan_crashed_at(faults, node, now_ms)}
            assert faults.crashed_nodes(now_ms) == crashed
            for node in _NODES + ["stranger"]:
                assert faults.crashed_at(node, now_ms) == (node in crashed)
                # What the network compiles onto its handles: before this
                # time the node is not crashed, whatever else is scheduled.
                if now_ms < faults.safe_until(node):
                    assert node not in crashed
            for sender in _NODES:
                for receiver in _NODES:
                    assert (faults.drops(sender, receiver, now_ms)
                            == _scan_drops(faults, sender, receiver, now_ms))

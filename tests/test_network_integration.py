"""Tests for SimNetwork driving protocol nodes, and the asyncio transport."""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.authenticator import make_authenticators
from repro.crypto.cost import CryptoOp
from repro.core.client import PoeClientPool
from repro.core.replica import PoeReplica
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.net.transport import AsyncTransport
from repro.protocols.base import Message, NodeConfig, ProtocolNode
from repro.workload.transactions import make_no_op_batch

REPLICAS = [f"replica:{i}" for i in range(4)]


class PingNode(ProtocolNode):
    """Minimal node used to exercise the drivers: replies 'pong' to 'ping'."""

    def __init__(self, node_id, config, authenticator):
        super().__init__(node_id, config, authenticator)
        self.received = []
        self.timer_fired_count = 0

    def on_start(self, now_ms):
        if self.node_id == "replica:0":
            self.set_timer("tick", 5.0)

    def on_message(self, sender, message, now_ms):
        self.received.append((sender, type(message).__name__, now_ms))
        if type(message).__name__ == "PingMessage":
            self.send(sender, PongMessage())
        self.charge(CryptoOp.MAC_VERIFY)

    def on_timer(self, name, payload, now_ms):
        self.timer_fired_count += 1


class PingMessage(Message):
    pass


class PongMessage(Message):
    pass


def build_ping_network(conditions=None, faults=None):
    config = NodeConfig(replica_ids=list(REPLICAS))
    auths = make_authenticators(REPLICAS, seed=b"net-tests")
    simulator = Simulator()
    network = SimNetwork(simulator, conditions=conditions, faults=faults, trace=True)
    nodes = []
    for rid in REPLICAS:
        node = PingNode(rid, config, auths[rid])
        nodes.append(node)
        network.add_replica(node)
    return simulator, network, nodes


class TestSimNetwork:
    def test_messages_are_delivered_with_latency(self):
        conditions = NetworkConditions(latency_ms=2.0, jitter_ms=0.0,
                                       bandwidth_mbps=None)
        simulator, network, nodes = build_ping_network(conditions)
        network.start_all()
        network.inject("replica:0", "replica:1", PingMessage())
        network.run_until_idle()
        assert nodes[1].received
        _, _, arrival = nodes[1].received[0]
        assert arrival == pytest.approx(2.0, abs=0.1)
        # The pong came back to replica 0.
        assert any(kind == "PongMessage" for _, kind, _ in nodes[0].received)

    def test_timers_fire_through_the_driver(self):
        simulator, network, nodes = build_ping_network()
        network.start_all()
        network.run_until_idle()
        assert nodes[0].timer_fired_count == 1

    def test_crashed_nodes_receive_nothing(self):
        faults = FaultSchedule.single_backup_crash("replica:2", at_ms=0.0)
        simulator, network, nodes = build_ping_network(faults=faults)
        network.start_all()
        network.inject("replica:0", "replica:2", PingMessage())
        network.run_until_idle()
        assert nodes[2].received == []
        assert network.dropped_count >= 1

    def test_crash_mid_run_stops_delivery(self):
        simulator, network, nodes = build_ping_network()
        network.start_all()
        network.crash("replica:1", at_ms=5.0)
        network.inject("replica:0", "replica:1", PingMessage(), delay_ms=10.0)
        network.run_until_idle()
        assert nodes[1].received == []

    def test_cpu_cost_delays_outgoing_messages(self):
        """A busy node's replies leave only after its modelled CPU work."""
        class SlowNode(PingNode):
            def on_message(self, sender, message, now_ms):
                super().on_message(sender, message, now_ms)
                self.add_cpu(50.0)

        config = NodeConfig(replica_ids=list(REPLICAS))
        auths = make_authenticators(REPLICAS, seed=b"net-slow")
        simulator = Simulator()
        network = SimNetwork(simulator,
                             conditions=NetworkConditions(latency_ms=1.0,
                                                          jitter_ms=0.0))
        slow = SlowNode("replica:0", config, auths["replica:0"])
        fast = PingNode("replica:1", config, auths["replica:1"])
        network.add_replica(slow)
        network.add_replica(fast)
        network.start_all()
        network.inject("replica:1", "replica:0", PingMessage())
        network.run_until_idle()
        pongs = [entry for entry in fast.received if entry[1] == "PongMessage"]
        assert pongs
        assert pongs[0][2] >= 50.0

    def test_observer_sees_every_delivery(self):
        simulator, network, nodes = build_ping_network()
        seen = []
        network.add_observer(lambda s, r, m, t: seen.append((s, r, type(m).__name__)))
        network.start_all()
        network.inject("replica:0", "replica:1", PingMessage())
        network.run_until_idle()
        assert ("replica:0", "replica:1", "PingMessage") in seen

    def test_trace_records_delivered_messages(self):
        simulator, network, nodes = build_ping_network()
        network.start_all()
        network.inject("replica:0", "replica:1", PingMessage())
        network.run_until_idle()
        assert any(type(record.message).__name__ == "PingMessage"
                   for record in network.delivered)

    def test_a_raising_step_leaves_its_actions_to_the_next_one(self):
        # What the Node contract documents: a raising step is fatal to the
        # run.  A caller that catches the error and runs on finds the pong
        # of the interrupted step leaving with the node's next step.
        simulator, network, nodes = build_ping_network()
        network.start_all()
        charge = nodes[1].charge

        def failing(*args):
            nodes[1].charge = charge
            raise RuntimeError("handler bug")

        nodes[1].charge = failing
        network.inject("replica:0", "replica:1", PingMessage())
        with pytest.raises(RuntimeError):
            network.run_until_idle()
        assert nodes[0].received == []
        network.inject("replica:2", "replica:1", PingMessage())
        network.run_until_idle()
        second_ping_at = nodes[1].received[1][2]
        for node in (nodes[0], nodes[2]):
            (sender, type_name, at), = node.received
            assert (sender, type_name) == ("replica:1", "PongMessage")
            assert at > second_ping_at


class BusyNode(PingNode):
    """Every delivery costs at least 10 ms of this node's CPU."""

    def on_message(self, sender, message, now_ms):
        super().on_message(sender, message, now_ms)
        self.add_cpu(10.0)


def build_busy_network(simulator, node_ids, faults=None):
    config = NodeConfig(replica_ids=list(REPLICAS))
    auths = make_authenticators(REPLICAS, seed=b"net-busy")
    network = SimNetwork(simulator, faults=faults, conditions=NetworkConditions(
        latency_ms=1.0, jitter_ms=0.0, bandwidth_mbps=None))
    for node_id in node_ids:
        network.add_replica(BusyNode(node_id, config, auths[node_id]))
    return network


def pong_arrivals(network, node_id):
    return [at for _, kind, at in network.node(node_id).received
            if kind == "PongMessage"]


class TestCpuAccounting:
    """A node's CPU is one field of its handle on the network that hosts
    it: the simulator under it is an event heap and keeps no accounts."""

    def test_steps_on_one_node_serialise(self):
        network = build_busy_network(Simulator(), REPLICAS[:3])
        network.start_all()
        # Two pings reach replica:0 at t=1; it answers them one after the
        # other, each answer leaving when its step's CPU work is done.
        network.inject("replica:1", "replica:0", PingMessage())
        network.inject("replica:2", "replica:0", PingMessage())
        network.run_until_idle()
        step_ms = pong_arrivals(network, "replica:1")[0] - 2.0
        assert step_ms >= 10.0
        assert pong_arrivals(network, "replica:2") == [
            pytest.approx(2.0 + 2 * step_ms)]
        assert network._nodes["replica:0"].cpu_free_at == pytest.approx(
            1.0 + 2 * step_ms)

    def test_nodes_do_not_share_a_cpu_and_a_backlog_expires(self):
        network = build_busy_network(Simulator(), REPLICAS[:3])
        network.start_all()
        network.inject("replica:2", "replica:0", PingMessage())
        network.inject("replica:2", "replica:1", PingMessage())
        # Long after the first backlog drained, new work starts on arrival.
        network.inject("replica:2", "replica:0", PingMessage(), delay_ms=100.0)
        network.run_until_idle()
        first, second, late = pong_arrivals(network, "replica:2")
        assert first == second
        assert late == pytest.approx(first + 100.0)

    def test_crash_resets_the_cpu_backlog(self):
        faults = FaultSchedule.none()
        faults.add_crash("replica:0", at_ms=2.0, until_ms=4.0)
        network = build_busy_network(Simulator(), REPLICAS[:2], faults=faults)
        network.start_all()
        network.inject("replica:1", "replica:0", PingMessage())
        network.run(until_ms=3.0)
        handle = network._nodes["replica:0"]
        assert handle.node.crashed and handle.cpu_free_at == 0.0
        # Back up at t=4: the step at t=5 does not queue behind work the
        # crashed incarnation had booked until t>=11.
        network.inject("replica:1", "replica:0", PingMessage(), delay_ms=1.0)
        network.run_until_idle()
        first, second = pong_arrivals(network, "replica:1")
        assert second == pytest.approx(5.0 + (first - 1.0))

    def test_networks_sharing_a_simulator_account_on_their_own_handles(self):
        # The sharded fabric's home runtime: a hub network beside shard 0
        # on one simulator.  Work on one does not occupy the other.
        simulator = Simulator()
        shard = build_busy_network(simulator, REPLICAS[:2])
        hub = build_busy_network(simulator, REPLICAS[2:])
        shard.start_all()
        hub.start_all()
        shard.inject("replica:1", "replica:0", PingMessage())
        hub.inject("replica:3", "replica:2", PingMessage())
        simulator.run_until_idle()
        assert pong_arrivals(shard, "replica:1") == pong_arrivals(hub, "replica:3")
        assert (shard._nodes["replica:0"].cpu_free_at
                == hub._nodes["replica:2"].cpu_free_at > 10.0)
        assert "replica:2" not in shard._nodes and "replica:0" not in hub._nodes


class Note(Message):
    pass


class ChatterNode(ProtocolNode):
    """Every millisecond: one broadcast (to itself too, every other round)
    and one unicast to the next replica; logs what reaches it."""

    ROUNDS = 24

    def __init__(self, node_id, config, authenticator):
        super().__init__(node_id, config, authenticator)
        self.received = []
        self.round = 0

    def on_start(self, now_ms):
        self.set_timer("tick", 1.0)

    def on_timer(self, name, payload, now_ms):
        self.round += 1
        self.broadcast(Note(), include_self=self.round % 2 == 0)
        peer = REPLICAS[(REPLICAS.index(self.node_id) + 1) % len(REPLICAS)]
        self.send(peer, Note())
        if self.round < self.ROUNDS:
            self.set_timer("tick", 1.0)

    def on_message(self, sender, message, now_ms):
        self.received.append((sender, now_ms))


class AlwaysAskNetwork(SimNetwork):
    """The network as it was before crash windows were compiled onto the
    handles: every transmit and every delivery asks the schedule."""

    def _compile_faults(self):
        super()._compile_faults()
        self._link_faults = True
        for handle in self._nodes.values():
            handle.safe_until = float("-inf")


_REPLICA = st.sampled_from(REPLICAS)
_AT = st.sampled_from([0.0, 2.0, 3.5, 7.0, 11.0])
_UNTIL = st.one_of(st.none(), st.sampled_from([5.0, 9.0, 14.0, 30.0]))
_FAULT = st.one_of(
    st.tuples(st.just("crash"), _REPLICA, _AT, _UNTIL),
    st.tuples(st.just("partition"), _REPLICA, _REPLICA, _AT, _UNTIL),
    st.tuples(st.just("dark"), _REPLICA, _REPLICA, _AT, _UNTIL))
#: What happens to a running network: the driver's own crash() (now, or at
#: a later time), or the schedule object mutated behind its back.
_MID_RUN = st.one_of(
    st.tuples(st.just("network.crash"), _REPLICA,
              st.one_of(st.none(), st.sampled_from([0.5, 4.0]))),
    _FAULT)


def _add_fault(faults, fault, offset_ms=0.0):
    kind = fault[0]
    at_ms = fault[-2] + offset_ms
    until_ms = None if fault[-1] is None else fault[-1] + offset_ms
    if kind == "crash":
        faults.add_crash(fault[1], at_ms=at_ms, until_ms=until_ms)
    elif kind == "partition":
        faults.add_partition([fault[1]], [fault[2]], at_ms=at_ms,
                             until_ms=until_ms)
    else:
        faults.add_dark_replicas(fault[1], [fault[2]], at_ms=at_ms,
                                 until_ms=until_ms)


def _chatter_run(network_cls, initial, mid_run):
    faults = FaultSchedule()
    for fault in initial:
        _add_fault(faults, fault)
    config = NodeConfig(replica_ids=list(REPLICAS))
    auths = make_authenticators(REPLICAS, seed=b"net-faults")
    simulator = Simulator()
    network = network_cls(simulator, faults=faults,
                          conditions=NetworkConditions(jitter_ms=0.3, seed=3))
    nodes = [ChatterNode(rid, config, auths[rid]) for rid in REPLICAS]
    for node in nodes:
        network.add_replica(node)
    network._compile_faults()  # AlwaysAskNetwork: cover the new handles
    network.start_all()
    for step, change in enumerate(mid_run):
        network.run(until_ms=2.6 * (step + 1))
        if change[0] == "network.crash":
            _, node_id, delay_ms = change
            network.crash(node_id, at_ms=None if delay_ms is None
                          else simulator.now + delay_ms)
        else:
            # Not before now: a fault cannot be scheduled into the past.
            _add_fault(network.faults, change, offset_ms=simulator.now)
    network.run_until_idle()
    return ([node.received for node in nodes],
            [node.crashed for node in nodes],
            network.sent_count, network.dropped_count,
            simulator.processed_events, simulator.now)


class TestFaultThresholds:
    """Crash windows compiled onto the handles (``safe_until``) against the
    schedule asked about every message."""

    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(_FAULT, max_size=3),
           mid_run=st.lists(_MID_RUN, max_size=4))
    def test_threshold_path_agrees_with_the_schedule(self, initial, mid_run):
        compiled = _chatter_run(SimNetwork, initial, mid_run)
        asked = _chatter_run(AlwaysAskNetwork, initial, mid_run)
        assert compiled == asked

    def test_direct_mutation_reaches_a_delivery_already_in_flight(self):
        # No transmit happens between the mutation and the delivery: the
        # delivery itself must notice that the schedule moved.
        simulator, network, nodes = build_ping_network(
            NetworkConditions(latency_ms=2.0, jitter_ms=0.0,
                              bandwidth_mbps=None),
            faults=FaultSchedule().add_crash("replica:3", at_ms=50.0))
        network.start_all()
        network.inject("replica:0", "replica:1", PingMessage())
        network.run(until_ms=1.0)
        network.faults.add_crash("replica:1", at_ms=1.5)
        network.run_until_idle()
        assert nodes[1].received == [] and nodes[1].crashed
        assert network._nodes["replica:1"].safe_until == 1.5
        assert network._nodes["replica:0"].safe_until == float("inf")

    def test_recovered_node_is_asked_about_from_its_first_window_on(self):
        faults = FaultSchedule().add_crash("replica:1", at_ms=2.0, until_ms=4.0)
        simulator, network, nodes = build_ping_network(
            NetworkConditions(latency_ms=1.0, jitter_ms=0.0,
                              bandwidth_mbps=None), faults=faults)
        network.start_all()
        for delay_ms in (0.0, 2.0, 5.0):
            network.inject("replica:0", "replica:1", PingMessage(),
                           delay_ms=delay_ms)
        network.run_until_idle()
        assert [at for _, _, at in nodes[1].received] == [1.0, 6.0]
        assert network.dropped_count == 1


class TestAsyncTransport:
    def test_poe_cluster_runs_on_asyncio(self):
        """The same sans-IO PoE replicas complete batches on a live event loop."""
        async def scenario():
            config = NodeConfig(replica_ids=list(REPLICAS), batch_size=5,
                                request_timeout_ms=2000.0,
                                execute_operations=True)
            auths = make_authenticators(REPLICAS, ["client:0"], seed=b"async")
            transport = AsyncTransport()
            for rid in REPLICAS:
                transport.add_replica(PoeReplica(rid, config, auths[rid]))
            pool = PoeClientPool(
                "client:0", config,
                batch_source=lambda i, now: make_no_op_batch(
                    f"async:batch:{i}", "client:0", 5, created_at_ms=now),
                target_outstanding=2, total_batches=4)
            transport.add_client(pool)
            await transport.start()
            for _ in range(200):
                if pool.is_done():
                    break
                await asyncio.sleep(0.01)
            await transport.stop()
            return pool, [transport.node(rid) for rid in REPLICAS]

        pool, replicas = asyncio.run(scenario())
        assert pool.is_done()
        assert all(replica.executed_batches == 4 for replica in replicas)
        assert len({replica.executor.state_digest() for replica in replicas}) == 1

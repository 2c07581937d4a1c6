"""What the per-batch handler path assumes, pinned where it could break.

* ``primary_id`` / ``is_primary()`` answer from a memo keyed on the view:
  every way a replica's view or membership changes must leave them equal
  to ``primary_for_view(view)``.
* ``SimNetwork._transmit`` draws a topology-free delay in its own frame:
  the delivery times must be those of the general ``propagation_ms`` path,
  bit for bit and draw for draw.
* ``try_execute`` adds a batch's execution and hash cost to the step's CPU
  itself: the float must be the one ``charge_execution`` then ``charge``
  produce.
* A stable checkpoint skips the reply-retention scan while nothing can have
  aged out: the pruned set must be the set the scan prunes.
* The PoE propose and certify handlers and ``send_replies`` add each
  charge to the step's CPU themselves: the float must be the one the
  ``charge`` calls produce, for a count above 1 and for a zero-cost op.
* ``SimNetwork._transmit`` computes the serialization delay and pushes the
  heap entry itself: the entries, clock values and uplinks must be those
  of ``serialization_delay_ms`` and ``Simulator.post_at``.
* The per-batch path reads a batch's size as ``len(batch.transactions) or
  batch.logical_size``: it must be ``len(batch)`` for every kind of batch.
* Modelled execution hashes the result over the batch digest it holds:
  it must be ``modelled_result_digest``.
* A threshold share and certificate are over ``flat_digest`` of the
  proposal digest: it must be ``shared_digest`` of it.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.core.messages import PoeCertify, PoePropose
from repro.core.replica import PoeReplica
from repro.core.view_change import proposal_digest
from repro.crypto.authenticator import SchemeKind, make_authenticators
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.crypto.hashing import digest, flat_digest, shared_digest
from repro.ledger.blockchain import Blockchain
from repro.ledger.execution import SpeculativeExecutor, modelled_result_digest
from repro.ledger.store import KeyValueStore
from repro.net.conditions import LatencyTopology, NetworkConditions
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.protocols.base import Message, Node, NodeConfig
from repro.protocols.checkpoint import StateTransferResponse
from repro.protocols.epoch import EpochEntry, make_reconfig_record
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.recovery import NewView
from repro.workload.transactions import (
    RequestBatch,
    Transaction,
    make_no_op_batch,
    make_synthetic_batch,
)
from repro.workload.xshard import make_control_batch
from repro.workload.ycsb import YcsbConfig, YcsbWorkload

REPLICAS = [f"replica:{i}" for i in range(7)]
AUTHS = make_authenticators(REPLICAS, ["client:0"], seed=b"handler-path")


def make_replica(rid="replica:2", cost_model=None, **config_kwargs):
    config_kwargs.setdefault("checkpoint_interval", 4)
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2,
                        **config_kwargs)
    return PoeReplica(rid, config, AUTHS[rid], cost_model=cost_model,
                      scheme=SchemeKind.MACS)


# ------------------------------------------------------------ primary memo
def _enter_new_view(replica, amount, now_ms):
    replica._enter_new_view(NewView(new_view=replica.view + amount), (), now_ms)


def _adopt_transferred_view(replica, amount, now_ms):
    sequence = replica.last_executed_sequence + 3
    head_hash = b"head-%d" % sequence
    state_digest = digest("state", sequence, head_hash, b"")
    replica._verified_checkpoint_digests[sequence] = state_digest
    replica.handle_state_transfer_response("replica:1", StateTransferResponse(
        sequence=sequence, view=replica.view + amount,
        state_digest=state_digest, head_hash=head_hash), now_ms)
    assert replica.last_executed_sequence == sequence


def _view_change_timer(replica, amount, now_ms):
    replica.view_change_in_progress = True
    replica._progress_timers.add("unserved")
    replica.handle_view_change_timer(
        replica.VIEW_CHANGE_TIMER, replica.view + amount, now_ms)


def _assign_view(replica, amount, now_ms):
    replica.view = amount * 5


def _activate_epoch(replica, amount, now_ms):
    """Activate an epoch whose membership differs in size from the active
    one: it rotates which replica leads the *same* view."""
    config = replica.config
    members = config.membership(replica.epoch)
    if len(members) > 4:
        keep = [rid for rid in members if rid != replica.node_id]
        removed = (keep[amount % len(keep)],)
        new_members = tuple(rid for rid in members if rid not in removed)
        added = ()
    else:
        added = tuple(rid for rid in REPLICAS if rid not in members)
        new_members, removed = members + added, ()
    epoch = config.latest_epoch + 1
    boundary = max(replica.last_executed_sequence,
                   config.epoch_activations[config.latest_epoch] + 1)
    config.register_epoch(epoch, boundary, new_members)
    replica._pending_epochs[epoch] = EpochEntry(
        epoch=epoch, activation_sequence=boundary, members=new_members,
        added=added, removed=removed, committed_at=boundary)
    replica._activate_epochs(boundary, now_ms)
    assert replica.epoch == epoch and len(new_members) != len(members)


VIEW_STEPS = (_enter_new_view, _adopt_transferred_view, _view_change_timer,
              _assign_view, _activate_epoch)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REPLICAS[:4]),
       st.lists(st.tuples(st.sampled_from(VIEW_STEPS),
                          st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=12))
def test_primary_memo_follows_every_view_and_membership_change(rid, steps):
    replica = make_replica(rid)

    def check():
        expected = replica.primary_for_view(replica.view)
        assert replica.primary_id == expected
        assert replica.is_primary() == (replica.node_id == expected)
        # Asked in the other order, from a cold memo.
        replica._primary_view = None
        assert replica.is_primary() == (replica.node_id == expected)
        assert replica.primary_id == expected

    check()
    for now_ms, (step, amount) in enumerate(steps, start=1):
        replica._primary_view = None
        replica.primary_id  # the memo is warm when the step runs
        step(replica, amount, float(now_ms))
        replica._collect()
        check()


def test_an_epoch_activation_moves_the_primary_of_an_unchanged_view():
    """The one case the view key cannot see: same view, new membership."""
    replica = make_replica("replica:2")
    replica.view = 6
    assert replica.primary_id == "replica:6" and not replica.is_primary()
    members = tuple(REPLICAS[1:])  # replica:0 leaves: view 6 -> members[0]
    replica.config.register_epoch(1, 3, members)
    replica._pending_epochs[1] = EpochEntry(
        epoch=1, activation_sequence=3, members=members,
        removed=("replica:0",), committed_at=1)
    replica._activate_epochs(3, now_ms=1.0)
    assert replica.primary_id == replica.primary_for_view(6) == "replica:1"
    replica.view = 1
    assert replica.primary_id == "replica:2" and replica.is_primary()


def test_a_grown_membership_rotates_hotstuff_leaders_like_poe_primaries():
    """Right after an activation grows 4 -> 7, a HotStuff replica's round
    leaders and a PoE replica's primaries both rotate over the seven."""
    config = NodeConfig(replica_ids=REPLICAS[:4], batch_size=2,
                        checkpoint_interval=4)
    poe = PoeReplica("replica:1", config, AUTHS["replica:1"],
                     scheme=SchemeKind.MACS)
    hotstuff = HotStuffReplica("replica:2", config, AUTHS["replica:2"])
    grown = tuple(REPLICAS)
    config.register_epoch(1, 3, grown)
    for replica in (poe, hotstuff):
        assert replica.primary_for_view(5) == "replica:1"
        replica._pending_epochs[1] = EpochEntry(
            epoch=1, activation_sequence=3, members=grown,
            added=grown[4:], committed_at=1)
        replica._activate_epochs(3, now_ms=1.0)
        assert replica.epoch == 1
        assert [replica.primary_for_view(view) for view in range(4, 9)] == [
            "replica:4", "replica:5", "replica:6", "replica:0", "replica:1"]
    poe.view = 8
    assert poe.primary_id == "replica:1" and poe.is_primary()
    # Round 9 was replica:1's on four replicas; on seven it is replica:2's.
    assert hotstuff.primary_for_view(9) == hotstuff.node_id


# ------------------------------------------------- unicast delay fast path
class _Sink(Node):
    def __init__(self, node_id):
        super().__init__()
        self.node_id = node_id

    def on_message(self, sender, message, now_ms):
        pass


def _network(conditions):
    network = SimNetwork(Simulator(), conditions=conditions)
    for index in range(5):
        network.add_replica(_Sink(f"replica:{index}"))
    network.add_client(_Sink("client:0"))
    log = []
    network.add_observer(lambda sender, receiver, message, time_ms: log.append(
        (sender, receiver, message.size_bytes, time_ms)))
    return network, log


_NODE = st.sampled_from([f"replica:{index}" for index in range(5)] + ["client:0"])
_SEND = st.tuples(st.booleans(), _NODE, _NODE, st.booleans(),
                  st.floats(min_value=0.0, max_value=3.0),
                  st.integers(min_value=0, max_value=20_000))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([None, 2000.0]),
       st.lists(_SEND, min_size=1, max_size=40))
def test_unicast_fast_path_draws_what_propagation_ms_draws(jitter, bandwidth,
                                                           sends):
    def run(force_general_path):
        # One region at the default latency: every draw goes through
        # NetworkConditions.propagation_ms's general branch, to the same delay.
        topology = (LatencyTopology(intra_ms=NetworkConditions.latency_ms)
                    if force_general_path else None)
        conditions = NetworkConditions(jitter_ms=jitter, seed=11,
                                       bandwidth_mbps=bandwidth,
                                       topology=topology)
        network, log = _network(conditions)
        for broadcast, sender, receiver, include_self, ready_at, size in sends:
            message = Message(size_bytes=size)
            if broadcast:
                network._transmit_broadcast(sender, message, include_self,
                                            ready_at)
            else:
                network._transmit(sender, receiver, message, ready_at)
        network.run_until_idle()
        return log, network.sent_count, network._rng.random()

    fast, general = run(False), run(True)
    assert fast == general
    assert fast[1] == len(fast[0])  # no faults: everything sent arrived


# ---------------------------------------------------- execution CPU charge
_COST = st.sampled_from([0.0, 0.001, 0.0021, 0.013, 0.1, 1.0 / 3.0])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=400), min_size=1,
                max_size=6),
       _COST, _COST, st.sampled_from([0.0, 0.008, 0.1 + 0.2]))
def test_one_step_charges_what_charge_execution_then_charge_hash_do(
        sizes, hash_ms, mac_sign_ms, base_ms):
    """A step that executes ``len(sizes)`` batches: the CPU float is the
    one produced by ``charge_execution(n)``, ``charge(HASH)`` and the
    reply's ``charge(MAC_SIGN)`` per batch, in that order — a merged sum
    would round differently."""
    costs = CryptoCostModel(costs_ms={CryptoOp.HASH: hash_ms,
                                      CryptoOp.MAC_SIGN: mac_sign_ms})
    replica = make_replica(cost_model=costs, checkpoint_interval=1000)
    reference = make_replica(cost_model=costs, checkpoint_interval=1000)
    replica._pending_cpu_ms = reference._pending_cpu_ms = base_ms
    batches = [make_synthetic_batch(f"b{sequence}", "client:0", size)
               for sequence, size in enumerate(sizes)]
    # Committed last slot first: the final commit executes them all at once.
    for sequence in reversed(range(len(batches))):
        assert replica.executed_batches == 0
        replica.commit_slot(sequence, 0, batches[sequence], now_ms=1.0)
    assert replica.executed_batches == len(batches)
    assert replica.executed_txns == sum(sizes)
    for batch in batches:
        reference.charge_execution(len(batch))
        reference.charge(CryptoOp.HASH)
        reference.charge(CryptoOp.MAC_SIGN)
    assert replica._pending_cpu_ms == reference._pending_cpu_ms


# ------------------------------------------------- reply-retention scanning
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                          st.floats(min_value=0.0, max_value=40.0)),
                min_size=1, max_size=25))
def test_skipping_the_retention_scan_prunes_the_same_set(steps):
    """Two replicas take the same executions and stable checkpoints; one is
    made to scan at every checkpoint (what every checkpoint used to do)."""
    skipping = make_replica(request_timeout_ms=1.0)
    scanning = make_replica(request_timeout_ms=1.0)
    now_ms, sequence = 0.0, 0
    for executed, elapsed_ms in steps:
        for replica in (skipping, scanning):
            for offset in range(executed):
                batch_id = f"b{sequence + offset}"
                replica._batch_sequence[batch_id] = (sequence + offset, now_ms)
                replica._replied[batch_id] = object()
                replica._seen_batch_ids.add(batch_id)
        sequence += executed
        now_ms += elapsed_ms
        scanning._oldest_executed_at = float("-inf")
        for replica in (skipping, scanning):
            replica.on_stable_checkpoint(sequence - 1, now_ms)
        assert skipping._batch_sequence == scanning._batch_sequence
        assert skipping._replied.keys() == scanning._replied.keys()
        assert skipping._seen_batch_ids == scanning._seen_batch_ids
        assert all(executed_at >= skipping._oldest_executed_at
                   for _, executed_at in skipping._batch_sequence.values())
    assert len(scanning._batch_sequence) <= sequence


# ---------------------------------------------- in-frame charges, PoE path
@settings(max_examples=60, deadline=None)
@given(_COST, _COST, _COST, _COST, st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=300))
def test_in_frame_charges_add_what_charge_adds(hash_ms, share_ms, verify_ms,
                                                mac_sign_ms, clients, size):
    """A threshold backup's PROPOSE and CERTIFY steps: each step's CPU is
    the float the ``charge`` calls make.  A batch with no ``reply_to`` is
    answered to each of its *clients*, so the reply's MAC charge has that
    count."""
    costs = CryptoCostModel(costs_ms={
        CryptoOp.HASH: hash_ms, CryptoOp.THRESHOLD_SHARE: share_ms,
        CryptoOp.THRESHOLD_VERIFY: verify_ms, CryptoOp.MAC_SIGN: mac_sign_ms})
    config = NodeConfig(replica_ids=list(REPLICAS), batch_size=2)
    backup = PoeReplica("replica:2", config, AUTHS["replica:2"],
                        cost_model=costs, scheme=SchemeKind.THRESHOLD)
    reference = PoeReplica("replica:3", config, AUTHS["replica:3"],
                           cost_model=costs, scheme=SchemeKind.THRESHOLD)
    batch = RequestBatch(batch_id="b", transactions=tuple(
        Transaction(txn_id=f"t{index}", client_id=f"client:{index}")
        for index in range(clients)), logical_size=size)

    def expected(*charges):
        reference._pending_cpu_ms = config.base_processing_ms
        for charge in charges:
            charge()
        return reference._pending_cpu_ms

    output = backup.deliver("replica:0", PoePropose(view=0, sequence=0,
                                                    batch=batch), 1.0)
    assert output.cpu_ms == expected(
        lambda: reference.charge(CryptoOp.HASH),
        lambda: reference.charge(CryptoOp.THRESHOLD_SHARE))
    digest_h = proposal_digest(0, 0, batch.digest())
    scheme = AUTHS["replica:0"].threshold
    certificate = scheme.aggregate(scheme.sign_share(index, digest_h)
                                   for index in range(1, 6))
    output = backup.deliver("replica:0", PoeCertify(
        view=0, sequence=0, proposal_digest=digest_h,
        certificate=certificate), 2.0)
    assert backup.executed_batches == 1
    assert len(output.sends()) == clients
    assert output.cpu_ms == expected(
        lambda: reference.charge(CryptoOp.THRESHOLD_VERIFY),
        lambda: reference.charge_execution(len(batch)),
        lambda: reference.charge(CryptoOp.HASH),
        lambda: reference.charge(CryptoOp.MAC_SIGN, clients))


# ------------------------------------------ unicast serialization and push
def _transmit_through_the_calls(network, sender, receiver, message, ready_at):
    """``SimNetwork._transmit`` on fault-free conditions, written with
    ``serialization_delay_ms`` and ``Simulator.post_at``."""
    conditions = network.conditions
    now = network.sim.now
    send_time = ready_at if ready_at > now else now
    handle = network._nodes[sender]
    if handle.is_replica and sender != receiver:
        serialization_ms = conditions.serialization_delay_ms(message.size_bytes)
        if serialization_ms > 0:
            send_time = max(handle.uplink_free_at, send_time) + serialization_ms
            handle.uplink_free_at = send_time
    network.sent_count += 1
    network.sim.post_at(
        send_time + conditions.propagation_ms(sender, receiver, send_time,
                                              network._rng.random),
        partial(network._deliver, sender, receiver, network._nodes[receiver],
                message))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([None, 2000.0, 7.5]),
       st.lists(st.tuples(_NODE, _NODE, st.floats(min_value=0.0, max_value=3.0),
                          st.integers(min_value=0, max_value=20_000),
                          st.floats(min_value=0.0, max_value=2.0)),
                min_size=1, max_size=30))
def test_transmit_pushes_what_serialization_delay_and_post_at_push(
        jitter, bandwidth, sends):
    def run(transmit):
        conditions = NetworkConditions(jitter_ms=jitter, seed=5,
                                       bandwidth_mbps=bandwidth)
        network, deliveries = _network(conditions)
        states = []
        for sender, receiver, ready_at, size, advance_ms in sends:
            transmit(network, sender, receiver, Message(size_bytes=size),
                     network.sim.now + ready_at)
            entries = sorted(entry[:2] for entry in network.sim._queue)
            network.run(until_ms=network.sim.now + advance_ms)
            states.append((entries, network.sim.now, tuple(
                handle.uplink_free_at for handle in network._nodes.values())))
        network.run_until_idle()
        return states, deliveries, network.sent_count

    assert (run(SimNetwork._transmit)
            == run(_transmit_through_the_calls))


# ------------------------------------------------------------- batch size
def _batches_of_every_kind():
    ycsb = YcsbWorkload(YcsbConfig.small(seed=4), client_id="client:0")
    return [make_synthetic_batch("s", "client:0", 7),
            make_synthetic_batch("s0", "client:0", 0),
            make_no_op_batch("n", "client:0", 3),
            ycsb.next_batch(5, reply_to="client:0"),
            make_control_batch("x", "prepare", 0, (0, 1), logical_size=4),
            make_reconfig_record(1, add=("replica:7",)),
            RequestBatch(batch_id="both", transactions=(
                Transaction(txn_id="t", client_id="client:0"),), logical_size=9)]


def test_the_batch_size_read_is_len_of_the_batch():
    for batch in _batches_of_every_kind():
        assert (len(batch.transactions) or batch.logical_size) == len(batch)


# ------------------------------------------------ modelled result digest
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7))
def test_modelled_execution_hashes_what_modelled_result_digest_hashes(picks):
    batches = _batches_of_every_kind()
    executor = SpeculativeExecutor(KeyValueStore(), Blockchain(),
                                   apply_operations=False)
    for sequence, pick in enumerate(picks):
        batch = batches[pick]
        record = executor.execute(sequence=sequence, view=0, batch=batch)
        assert record.result_digest == modelled_result_digest(sequence, batch)


# ------------------------------------------------ threshold payload digest
@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_threshold_payloads_are_the_shared_digest_of_the_proposal(digest_h):
    scheme = AUTHS["replica:0"].threshold
    shares = [scheme.sign_share(index, digest_h) for index in range(1, 6)]
    certificate = scheme.aggregate(shares)
    assert flat_digest(digest_h) == shared_digest(digest_h) == digest(digest_h)
    assert {share.payload_digest for share in shares} == {shared_digest(digest_h)}
    assert certificate.payload_digest == shared_digest(digest_h)
    assert scheme.verify(certificate, digest_h)
    assert all(scheme.verify_share(share, digest_h) for share in shares)

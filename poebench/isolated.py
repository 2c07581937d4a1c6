"""Isolated drives: one layer's public functions alone, with fixed inputs.

Each drive reports operations per second.  They say how fast a layer is
when nothing else runs, so a layer optimisation can be seen (or not
seen) here before it is looked for in ``host_txn_per_s``.  At scale 1 a
drive takes 0.1-0.3 s.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from repro.bench.perf import measure_event_loop
from repro.crypto.authenticator import make_authenticators
from repro.crypto.hashing import digest
from repro.crypto.threshold import ThresholdScheme
from repro.ledger.blockchain import Blockchain
from repro.ledger.execution import SpeculativeExecutor
from repro.ledger.store import KeyValueStore
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.protocols.base import Broadcast, Message, StepOutput
from repro.workload.ycsb import YcsbConfig, YcsbWorkload

N = 32
QUORUM = N - (N - 1) // 3

Sized = Callable[[int], int]


def _per_second(ops: int, fn: Callable[[], None]) -> float:
    start = time.perf_counter()
    fn()
    return ops / (time.perf_counter() - start)


def _simulator(sized: Sized) -> Dict[str, float]:
    loop = measure_event_loop(num_events=sized(60_000), repeats=2)
    return {
        "net.simulator.iso_events_per_s": loop["events_per_sec"],
        "net.simulator.iso_cancel_events_per_s":
            loop["cancellation_mix"]["events_per_sec"],
    }


class _FloodNode:
    """Stub replica: broadcasts once per round, the next round when every
    peer's message of this one arrived (the SUPPORT flood's shape)."""

    crashed = False

    def __init__(self, node_id: str, rounds: int) -> None:
        self.node_id = node_id
        self.expected = rounds * (N - 1)
        self.received = 0

    def start(self, now_ms: float) -> StepOutput:
        return StepOutput(actions=[Broadcast(Message())])

    def deliver_into(self, sender, message, now_ms, actions) -> float:
        self.received += 1
        if self.received % (N - 1) == 0 and self.received < self.expected:
            actions.append(Broadcast(Message()))
        return 0.0


def _network(sized: Sized) -> Dict[str, float]:
    rounds = sized(60)
    network = SimNetwork(Simulator())
    for i in range(N):
        network.add_replica(_FloodNode(f"replica:{i}", rounds))
    network.start_all()
    messages = rounds * N * (N - 1)
    rate = _per_second(messages, network.run_until_idle)
    if network.sent_count != messages:
        raise AssertionError(f"flood sent {network.sent_count} messages")
    return {"net.network.iso_msgs_per_s": rate}


def _mac(sized: Sized, auths, payload: bytes) -> Dict[str, float]:
    sender, receiver = auths["replica:0"], auths["replica:1"]
    count = sized(15_000)

    def sign_and_verify() -> None:
        for seq in range(count):
            tag = sender.mac_sign("replica:1", 0, seq, payload)
            if not receiver.mac_verify(tag, 0, seq, payload):
                raise AssertionError("MAC did not verify")

    return {"crypto.mac.iso_ops_per_s": _per_second(2 * count, sign_and_verify)}


def _threshold(sized: Sized, seed: int, payload: bytes) -> Dict[str, float]:
    scheme = ThresholdScheme.setup(N, QUORUM, f"iso-{seed}".encode())
    count = sized(20_000)

    def share_and_verify() -> None:
        for seq in range(count):
            share = scheme.sign_share(1 + seq % N, 0, seq, payload)
            if not scheme.verify_share(share, 0, seq, payload):
                raise AssertionError("share did not verify")

    shares = [scheme.sign_share(i, 0, 0, payload) for i in range(1, N + 1)]
    rng = random.Random(seed)
    signer_sets = {
        "hot": [shares[:QUORUM]] * sized(20_000),
        # Random signer sets, so the Lagrange-coefficient memo misses.
        "cold": [rng.sample(shares, QUORUM) for _ in range(sized(1_000))],
    }

    def aggregate(sets) -> Callable[[], None]:
        def run() -> None:
            for signers in sets:
                scheme.aggregate(signers)
        return run

    out = {"crypto.threshold.iso_share_ops_per_s":
           _per_second(2 * count, share_and_verify)}
    for name, sets in signer_sets.items():
        out[f"crypto.threshold.iso_aggregates_{name}_per_s"] = \
            _per_second(len(sets), aggregate(sets))
    return out


def _ycsb_hashing_ledger(sized: Sized, seed: int, auths,
                         payload: bytes) -> Dict[str, float]:
    """Generate signed YCSB batches, hash them, execute them: the three
    drives share the batches, each timing its own step."""
    workload = YcsbWorkload(YcsbConfig.small(seed=seed), client_id="client:0",
                            authenticator=auths["client:0"])
    count = sized(60)
    batches = []

    def generate() -> None:
        batches.extend(workload.next_batch(100) for _ in range(count))

    # Digests are memoised per object and the generator hands out signed
    # copies whose memo is still empty, so each batch is hashed exactly
    # once, here; the ledger drive then finds the digests ready.
    def batch_digests() -> None:
        for batch in batches:
            batch.digest()

    small = sized(100_000)

    def small_digests() -> None:
        for seq in range(small):
            digest(0, seq, payload)

    executor = SpeculativeExecutor(
        KeyValueStore(workload.initial_table()), Blockchain())

    def execute() -> None:
        for sequence, batch in enumerate(batches):
            executor.execute(sequence, 0, batch)

    return {
        "workload.ycsb.iso_txn_per_s": _per_second(100 * count, generate),
        "crypto.hashing.iso_batch_digests_per_s":
            _per_second(count, batch_digests),
        "crypto.hashing.iso_small_digests_per_s":
            _per_second(small, small_digests),
        "ledger.iso_txn_per_s": _per_second(100 * count, execute),
    }


def run_all(seed: int, scale: float) -> Dict[str, float]:
    """Every isolated drive, its operation counts shrunk by *scale*."""
    def sized(full: int) -> int:
        return max(8, round(full * scale))

    auths = make_authenticators([f"replica:{i}" for i in range(N)],
                                ["client:0"], seed=f"iso-{seed}".encode())
    payload = digest("iso", seed)
    return {
        **_simulator(sized),
        **_network(sized),
        **_mac(sized, auths, payload),
        **_threshold(sized, seed, payload),
        **_ycsb_hashing_ledger(sized, seed, auths, payload),
    }

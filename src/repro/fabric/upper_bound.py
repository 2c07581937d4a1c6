"""System-characterisation experiment: upper bounds without consensus.

The paper's Figure 7 measures the maximum throughput the fabric can reach
when there is *no communication among replicas*: clients send requests to
the primary, which either simply answers ("No Execution") or executes the
query before answering ("Execution").  This bounds what any consensus
protocol built on the same fabric can achieve.

The :class:`EchoReplica` below is a degenerate protocol node implementing
exactly that behaviour on the simulated fabric; :func:`run_upper_bound`
runs both configurations and reports their throughput and latency.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.authenticator import Authenticator, make_authenticators
from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.fabric.metrics import RunResult, summarize
from repro.net.conditions import NetworkConditions
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.protocols.base import Message, NodeConfig, ProtocolNode
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.workload.clients import ClientPool


class EchoReplica(ProtocolNode):
    """A single server that answers clients directly, without consensus.

    The paper's upper-bound measurement allows *two* worker threads at the
    primary with no ordering between them (Section IV-B); ``worker_threads``
    models that by dividing the charged CPU time accordingly.
    """

    def __init__(self, node_id: str, config: NodeConfig,
                 authenticator: Authenticator,
                 cost_model: Optional[CryptoCostModel] = None,
                 execute: bool = True,
                 worker_threads: int = 2) -> None:
        super().__init__(node_id, config, authenticator, cost_model)
        self.execute = execute
        self.worker_threads = max(1, worker_threads)
        self.answered_batches = 0

    def on_message(self, sender: str, message: Message, now_ms: float) -> None:
        if not isinstance(message, ClientRequestMessage):
            return
        batch = message.batch
        self.charge(CryptoOp.VERIFY)
        if self.execute:
            self.charge_execution(len(batch))
        self.charge(CryptoOp.MAC_SIGN)
        self._pending_cpu_ms /= self.worker_threads
        self.answered_batches += 1
        self.send(message.reply_to or sender, ClientReplyMessage(
            batch_id=batch.batch_id,
            view=0,
            sequence=self.answered_batches,
            result_digest=b"echo",
            replica_id=self.node_id,
            size_bytes=self.config.reply_size_bytes(len(batch)),
        ))


def run_upper_bound(
    execute: bool,
    batch_size: int = 100,
    num_batches: int = 400,
    client_outstanding: int = 32,
    latency_ms: float = 0.5,
    seed: int = 1,
) -> RunResult:
    """Measure the no-consensus upper bound with or without execution."""
    replica_ids = ["replica:0"]
    pool_id = "client:0"
    auth = make_authenticators(replica_ids, [pool_id],
                               seed=f"upper-bound-{seed}".encode())
    config = NodeConfig(replica_ids=replica_ids, batch_size=batch_size,
                        out_of_order=True)
    simulator = Simulator()
    network = SimNetwork(simulator,
                         conditions=NetworkConditions(latency_ms=latency_ms,
                                                      jitter_ms=0.05, seed=seed))
    replica = EchoReplica("replica:0", config, auth["replica:0"],
                          CryptoCostModel.cmac(), execute=execute)
    pool = ClientPool(pool_id, config, quorum_rule="1",
                      target_outstanding=client_outstanding,
                      total_batches=num_batches)
    network.add_replica(replica)
    network.add_client(pool)
    network.start_all()
    network.run_until_idle()
    label = "Execution" if execute else "No Execution"
    return summarize(
        protocol=f"upper-bound ({label})",
        n=1,
        completions=pool.completions,
        metadata={"execute": execute, "batch_size": batch_size},
    )

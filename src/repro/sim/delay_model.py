"""Message-delay simulation of consensus throughput (Figure 11).

The paper's simulation "processes every message send/receive but replaces
computation with a fixed delay".  That is this repository's engine with no
crypto cost, one-transaction batches and an uplink nobody waits for, so a
point of the figure is one :func:`~repro.fabric.experiments.run_experiment`
call over :data:`~repro.fabric.experiments.FIGURE_DEPLOYMENT` with the
conditions and cost model set here.  Nothing here knows how many rounds or messages a protocol needs:
both are read off the run.

The module keeps its path because ``poebench/test_poebench.py::
test_every_module_has_a_layer`` pins the module set both ways; deleting the
``sim`` package is left to the benchmark re-baseline PR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List

from repro.crypto.cost import CryptoCostModel
from repro.fabric.experiments import FIGURE_DEPLOYMENT, run_experiment, sequential
from repro.net.conditions import NetworkConditions

#: PoE as deployed (MACs up to 16 replicas, threshold signatures above),
#: its MAC-only mode, and the four baselines.
FIGURE_11_PROTOCOLS = ("poe", "poe-mac", "pbft", "sbft", "zyzzyva", "hotstuff")


@dataclass(frozen=True)
class DelaySimulationResult:
    """One measured point: client-to-client decisions/s and counted traffic."""

    protocol: str
    num_replicas: int
    message_delay_ms: float
    out_of_order_window: int
    decisions: int
    messages_sent: int
    throughput_decisions_per_s: float
    budget_met: bool

    @property
    def hops_per_decision(self) -> float:
        """Message delays one decision occupies the pipeline for."""
        return 1000.0 / (self.throughput_decisions_per_s * self.message_delay_ms)

    def row(self) -> Dict[str, object]:
        return {"protocol": self.protocol, "n": self.num_replicas,
                "delay_ms": self.message_delay_ms,
                "ooo_window": self.out_of_order_window,
                "decisions_per_s": round(self.throughput_decisions_per_s, 2),
                "messages_per_decision": round(self.messages_sent / self.decisions, 2),
                "hops": round(self.hops_per_decision, 2),
                "budget_met": self.budget_met}


def delay_point(protocol: str, num_replicas: int, message_delay_ms: float,
                decisions: int, window: int = 1) -> DelaySimulationResult:
    """Run *decisions* one-transaction decisions with *window* in flight.

    ``window=1`` is the figure's sequential mode (HotStuff keeps the four
    its chained pipeline spans); above one the primary proposes out of
    order, up to ``NodeConfig.max_in_flight`` (128) slots ahead.
    """
    config = replace(
        FIGURE_DEPLOYMENT, protocol=protocol, num_replicas=num_replicas,
        batch_size=1, total_batches=decisions, client_outstanding=window,
        conditions=NetworkConditions(latency_ms=message_delay_ms,
                                     jitter_ms=message_delay_ms * 0.1,
                                     bandwidth_mbps=1e9),
        cost_model=CryptoCostModel.none())
    result = run_experiment(config if window > 1 else sequential(config))
    return DelaySimulationResult(
        protocol=protocol, num_replicas=num_replicas,
        message_delay_ms=message_delay_ms, out_of_order_window=window,
        decisions=decisions, messages_sent=result.metadata["messages_sent"],
        throughput_decisions_per_s=result.throughput_txn_per_s,
        budget_met=result.metadata["budget_met"])


def sweep_delays(protocols: Iterable[str] = FIGURE_11_PROTOCOLS,
                 replica_counts: Iterable[int] = (4, 16, 128),
                 delays_ms: Iterable[float] = (10.0, 20.0, 40.0),
                 decisions: int = 60, window: int = 1,
                 ) -> List[DelaySimulationResult]:
    """Every (n, delay, protocol) point of one Figure 11 plot."""
    return [delay_point(protocol, n, delay, decisions, window)
            for n in replica_counts for delay in delays_ms
            for protocol in protocols]

"""Network substrate: discrete-event simulation and live asyncio transport.

The paper evaluates PoE on a Google Cloud deployment plus a pure
message-delay simulation (Figure 11).  Neither a 91-VM cluster nor its
absolute throughput numbers are reproducible on a laptop, so this package
provides:

* :mod:`repro.net.simulator` -- a deterministic discrete-event scheduler
  with a virtual clock, timers and per-node CPU accounting;
* :mod:`repro.net.conditions` -- configurable latency, bandwidth, loss and
  jitter models;
* :mod:`repro.net.network` -- the simulated message fabric connecting
  protocol nodes, with crash/partition/dark-replica fault injection;
* :mod:`repro.net.transport` -- an asyncio in-process transport that runs
  the very same sans-IO protocol state machines live (used by examples).
"""

from repro.net.simulator import Simulator, Event, Timer
from repro.net.conditions import NetworkConditions, LinkOverride
from repro.net.network import SimNetwork, NodeHandle
from repro.net.faults import FaultSchedule, CrashFault, PartitionFault, DarkReplicaFault
from repro.net.byzantine import (
    ByzantineBehavior,
    ByzantineSpec,
    EquivocatingPrimary,
    MessageDelayer,
    MessageReplayer,
    StaleCertifier,
    make_behavior,
)
from repro.net.transport import AsyncTransport, AsyncNode

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "NetworkConditions",
    "LinkOverride",
    "SimNetwork",
    "NodeHandle",
    "FaultSchedule",
    "CrashFault",
    "PartitionFault",
    "DarkReplicaFault",
    "ByzantineBehavior",
    "ByzantineSpec",
    "EquivocatingPrimary",
    "MessageDelayer",
    "MessageReplayer",
    "StaleCertifier",
    "make_behavior",
    "AsyncTransport",
    "AsyncNode",
]

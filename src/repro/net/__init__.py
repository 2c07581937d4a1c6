"""Network substrate: discrete-event simulation and fault injection.

The paper evaluates PoE on a Google Cloud deployment plus a pure
message-delay simulation (Figure 11).  Neither a 91-VM cluster nor its
absolute throughput numbers are reproducible on a laptop, so this package
provides:

* :mod:`repro.net.simulator` -- a deterministic discrete-event scheduler
  with a virtual clock, timers and per-node CPU accounting;
* :mod:`repro.net.conditions` -- configurable latency, bandwidth and
  jitter models;
* :mod:`repro.net.network` -- the simulated message fabric connecting
  protocol nodes, with crash/partition/dark-replica fault injection.

The live asyncio transport (:mod:`repro.net.transport`) is imported by
its module path only, so a simulated run never loads ``asyncio``.
"""

from repro.net.simulator import Simulator, Event, Timer
from repro.net.conditions import NetworkConditions
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

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "NetworkConditions",
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
]

"""Fault injection for the simulated network.

The paper's experiments exercise three failure modes:

* a crashed backup replica (Figures 9(a), 9(b), 9(e), 9(f), 9(i), 9(j));
* a crashed/benign-faulty primary triggering a view-change (Figure 10);
* byzantine primaries that equivocate or keep replicas "in the dark"
  (Example 3 in the paper), which the correctness tests exercise.

Faults are expressed as schedule entries applied to a :class:`SimNetwork`:
crash a node at a given time, partition groups of nodes, or silently drop
the messages a sender addresses to a set of receivers (dark replicas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class CrashFault:
    """Crash *node_id* at *at_ms*; optionally recover at *until_ms*."""

    node_id: str
    at_ms: float = 0.0
    until_ms: Optional[float] = None


@dataclass(frozen=True)
class PartitionFault:
    """Sever all links between *group_a* and *group_b* during a window."""

    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]
    at_ms: float = 0.0
    until_ms: Optional[float] = None

    def separates(self, sender: str, receiver: str) -> bool:
        return (sender in self.group_a and receiver in self.group_b) or (
            sender in self.group_b and receiver in self.group_a
        )


@dataclass(frozen=True)
class DarkReplicaFault:
    """Drop messages from *sender* to each receiver in *receivers*.

    Models a malicious primary that keeps a subset of replicas in the
    dark (paper, Example 3 case 2).
    """

    sender: str
    receivers: Tuple[str, ...]
    at_ms: float = 0.0
    until_ms: Optional[float] = None


@dataclass
class FaultSchedule:
    """A collection of faults applied to one simulation run.

    ``active`` and ``has_crashes`` are maintained attributes rather than
    properties: the network reads them once per transmitted/delivered
    message, and every mutation funnels through the ``add_*`` methods,
    which refresh them — together with the per-node crash index the
    queries below read instead of scanning ``crashes`` — and bump
    ``version``, which is how the network knows to recompile the per-node
    :meth:`safe_until` times it keeps on its handles.  The refresh also
    rejects a window whose ``until_ms`` is before its ``at_ms``.
    """

    crashes: List[CrashFault] = field(default_factory=list)
    partitions: List[PartitionFault] = field(default_factory=list)
    dark_replicas: List[DarkReplicaFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.version = 0
        self._refresh_flags()

    def _refresh_flags(self) -> None:
        for window in (*self.crashes, *self.partitions, *self.dark_replicas):
            if window.until_ms is not None and window.until_ms < window.at_ms:
                raise ValueError(f"{window}: until_ms {window.until_ms} is before "
                                 f"at_ms {window.at_ms}")
        self.version += 1
        #: Whether any fault is configured (fast-path gate for ``drops``).
        self.active = bool(self.crashes or self.partitions or self.dark_replicas)
        #: Whether any crash fault is configured (gate for ``crashed_at``).
        self.has_crashes = bool(self.crashes)
        #: node id -> that node's crash windows.  Most nodes never crash,
        #: so most ``crashed_at`` queries end at one dict miss.
        self._crashes_by_node: Dict[str, List[CrashFault]] = {}
        for crash in self.crashes:
            self._crashes_by_node.setdefault(crash.node_id, []).append(crash)

    @classmethod
    def none(cls) -> "FaultSchedule":
        return cls()

    @classmethod
    def single_backup_crash(cls, node_id: str, at_ms: float = 0.0) -> "FaultSchedule":
        """The paper's standard "single backup failure" configuration."""
        return cls(crashes=[CrashFault(node_id=node_id, at_ms=at_ms)])

    @classmethod
    def primary_crash(cls, node_id: str, at_ms: float) -> "FaultSchedule":
        """Crash the primary mid-run to trigger a view-change (Figure 10)."""
        return cls(crashes=[CrashFault(node_id=node_id, at_ms=at_ms)])

    def add_crash(self, node_id: str, at_ms: float = 0.0,
                  until_ms: Optional[float] = None) -> "FaultSchedule":
        self.crashes.append(CrashFault(node_id=node_id, at_ms=at_ms, until_ms=until_ms))
        self._refresh_flags()
        return self

    def add_dark_replicas(self, sender: str, receivers: Iterable[str],
                          at_ms: float = 0.0,
                          until_ms: Optional[float] = None) -> "FaultSchedule":
        self.dark_replicas.append(
            DarkReplicaFault(sender=sender, receivers=tuple(receivers),
                             at_ms=at_ms, until_ms=until_ms)
        )
        self._refresh_flags()
        return self

    def add_partition(self, group_a: Iterable[str], group_b: Iterable[str],
                      at_ms: float = 0.0,
                      until_ms: Optional[float] = None) -> "FaultSchedule":
        self.partitions.append(
            PartitionFault(group_a=tuple(group_a), group_b=tuple(group_b),
                           at_ms=at_ms, until_ms=until_ms)
        )
        self._refresh_flags()
        return self

    # -- queries used by SimNetwork ------------------------------------------
    def crashed_at(self, node_id: str, now_ms: float) -> bool:
        """Is *node_id* crashed at *now_ms*?"""
        windows = self._crashes_by_node.get(node_id)
        if windows is None:
            return False
        for crash in windows:
            if now_ms < crash.at_ms:
                continue
            if crash.until_ms is not None and now_ms >= crash.until_ms:
                continue
            return True
        return False

    def safe_until(self, node_id: str) -> float:
        """The time before which *node_id* is certainly not crashed: the
        start of its earliest crash window, infinity if it has none."""
        windows = self._crashes_by_node.get(node_id)
        if windows is None:
            return float("inf")
        return min(crash.at_ms for crash in windows)

    def crashed_nodes(self, now_ms: float) -> Set[str]:
        """All nodes crashed at *now_ms*."""
        return {node_id for node_id in self._crashes_by_node
                if self.crashed_at(node_id, now_ms)}

    def drops(self, sender: str, receiver: str, now_ms: float) -> bool:
        """Should a message from *sender* to *receiver* be dropped at *now_ms*?"""
        if self.crashed_at(sender, now_ms) or self.crashed_at(receiver, now_ms):
            return True
        if not (self.dark_replicas or self.partitions):
            return False
        for dark in self.dark_replicas:
            if dark.sender != sender or receiver not in dark.receivers:
                continue
            if now_ms < dark.at_ms:
                continue
            if dark.until_ms is not None and now_ms >= dark.until_ms:
                continue
            return True
        for partition in self.partitions:
            if not partition.separates(sender, receiver):
                continue
            if now_ms < partition.at_ms:
                continue
            if partition.until_ms is not None and now_ms >= partition.until_ms:
                continue
            return True
        return False

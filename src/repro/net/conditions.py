"""Network condition models: latency, jitter and bandwidth.

The evaluation fabric charges every message a delivery delay of

    propagation + serialisation + jitter

where serialisation is ``size_bytes / bandwidth``.  This captures the two
effects the paper leans on: message *count* (propagation-bound protocols,
Figure 11) and message *size* (the PROPOSE payload dominating bandwidth,
Figures 9(e)-(h) zero-payload experiments).

A :class:`NetworkConditions` is a value: it holds no run state.  The
jitter stream is the network's (``SimNetwork`` seeds it from
:attr:`NetworkConditions.seed`), a dropped message is the fault
schedule's decision, and a link's latency is the topology's.  Its
topology is a value too: frozen, its mappings held as :class:`FrozenDict`,
so conditions with one hash, compare by value, and a topology two configs
share cannot be changed under either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple


class FrozenDict(dict):
    """A dict that hashes by value and refuses every in-place change.
    A lookup is a plain dict probe."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        # Rebuilt from a plain dict: pickle and copy would otherwise refill
        # the new one item by item, which it refuses.
        return FrozenDict, (dict(self),)

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError(f"{type(self).__name__} cannot be changed in place")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


@dataclass(frozen=True)
class DriftPhase:
    """One piece of a piecewise-constant drift schedule.

    From ``at_ms`` on (until the next phase), every topology latency is
    multiplied by ``scale``; ``link_scale`` additionally multiplies the
    latency of specific directional ``(from_region, to_region)`` links.
    Drift is a deterministic function of virtual time, so drifting runs
    stay byte-identical across same-seed executions.
    """

    at_ms: float = 0.0
    scale: float = 1.0
    link_scale: Mapping[Tuple[str, str], float] = field(default_factory=FrozenDict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_scale", FrozenDict(self.link_scale))


@dataclass(frozen=True)
class LatencyTopology:
    """Region-structured propagation latencies with scheduled drift.

    Models the geo-distributed half of the evaluation: replicas grouped
    into regions, cheap intra-region links, per-link (directional, so
    possibly asymmetric) inter-region latencies, and a piecewise drift
    schedule that degrades or heals links mid-run.

    Attributes:
        regions: node id -> region name; unmapped nodes (typically client
            pools) fall into ``default_region``.
        intra_ms: latency between two nodes of the same region.
        link_ms: directional ``(from_region, to_region)`` latency; a
            missing direction falls back to the reverse direction, then
            to ``default_inter_ms``.
        default_inter_ms: latency between regions with no configured link.
        default_region: region assumed for nodes absent from ``regions``.
        drift: :class:`DriftPhase` schedule, sorted by ``at_ms``.
    """

    regions: Mapping[str, str] = field(default_factory=FrozenDict)
    intra_ms: float = 0.3
    link_ms: Mapping[Tuple[str, str], float] = field(default_factory=FrozenDict)
    default_inter_ms: float = 10.0
    default_region: str = ""
    drift: Tuple[DriftPhase, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", FrozenDict(self.regions))
        object.__setattr__(self, "link_ms", FrozenDict(self.link_ms))
        object.__setattr__(self, "drift", tuple(
            sorted(self.drift, key=lambda phase: phase.at_ms)))

    def region_of(self, node_id: str) -> str:
        return self.regions.get(node_id, self.default_region)

    def _phase_at(self, now_ms: float) -> Optional[DriftPhase]:
        current = None
        for phase in self.drift:
            if phase.at_ms > now_ms:
                break
            current = phase
        return current

    def latency_ms(self, sender: str, receiver: str, now_ms: float) -> float:
        """Directional propagation latency at virtual time *now_ms*."""
        source = self.region_of(sender)
        target = self.region_of(receiver)
        if source == target:
            base = self.intra_ms
        else:
            base = self.link_ms.get((source, target))
            if base is None:
                base = self.link_ms.get((target, source))
            if base is None:
                base = self.default_inter_ms
        phase = self._phase_at(now_ms)
        if phase is None:
            return base
        return base * phase.scale * phase.link_scale.get((source, target), 1.0)

    def min_latency_ms(self) -> float:
        """Lower bound on :meth:`latency_ms` over all links and all times.

        Used as the conservative lookahead for parallel sharded runs: no
        message can ever propagate faster than this, whatever the drift
        schedule does.
        """
        base = min([self.intra_ms, self.default_inter_ms, *self.link_ms.values()])
        scales = [1.0]
        for phase in self.drift:
            link_floor = min([1.0, *phase.link_scale.values()])
            scales.append(phase.scale * link_floor)
        return base * min(scales)


@dataclass(frozen=True)
class NetworkConditions:
    """Cluster-wide network model.

    Attributes:
        latency_ms: one-way propagation delay between any two nodes.
        jitter_ms: uniform jitter added to each delivery, ``[0, jitter_ms]``.
        bandwidth_mbps: per-link bandwidth used for serialisation delay;
            ``None`` disables size-dependent delay.
        local_delivery_ms: delay for a node sending a message to itself.
        topology: optional region-structured latency model; when set, it
            replaces ``latency_ms`` and may drift deterministically over
            virtual time.
        seed: seed of the jitter stream a network running on these
            conditions draws from.
    """

    latency_ms: float = 0.5
    jitter_ms: float = 0.05
    bandwidth_mbps: Optional[float] = 1000.0
    local_delivery_ms: float = 0.01
    topology: Optional[LatencyTopology] = None
    seed: int = 1

    def __post_init__(self) -> None:
        # Serialization delay is sampled once per transmitted message; cache
        # the bytes/ms conversion instead of redoing it on every call.
        object.__setattr__(self, "_bytes_per_ms", (
            self.bandwidth_mbps * 1_000_000 / 8 / 1000.0
            if self.bandwidth_mbps else 0.0))

    @classmethod
    def lan(cls, seed: int = 1) -> "NetworkConditions":
        """Single-datacenter conditions (the paper's Google Cloud region).

        The bandwidth is the *effective per-node goodput* used for sender
        uplink accounting, not the NIC line rate; 2 Gbit/s reproduces the
        paper's observation that large PROPOSE payloads saturate the
        primary at larger replica counts (Figures 9(e)-(h)).
        """
        return cls(latency_ms=0.5, jitter_ms=0.05, bandwidth_mbps=2000.0, seed=seed)

    @classmethod
    def uniform_delay(cls, delay_ms: float, seed: int = 1) -> "NetworkConditions":
        """Fixed delay, no jitter, no bandwidth limit (pure Figure 11 model)."""
        return cls(latency_ms=delay_ms, jitter_ms=0.0, bandwidth_mbps=None,
                   local_delivery_ms=0.0, seed=seed)

    def serialization_delay_ms(self, size_bytes: int) -> float:
        """Delay attributable to pushing *size_bytes* through the link."""
        if not self._bytes_per_ms:
            return 0.0
        return size_bytes / self._bytes_per_ms

    def propagation_ms(self, sender: str, receiver: str, now_ms: float,
                       random: Callable[[], float]) -> float:
        """Propagation delay (latency + jitter) for one message, its jitter
        drawn from *random* (the network's stream).

        Serialization is *not* included; the network driver accounts for it
        on the sender's uplink so that large broadcasts (e.g. a PROPOSE to
        90 backups) occupy the sender's bandwidth once per receiver.
        """
        if sender == receiver:
            return self.local_delivery_ms
        if self.topology is not None:
            latency = self.topology.latency_ms(sender, receiver, now_ms)
        else:
            latency = self.latency_ms
        # uniform(0, j) evaluates to 0.0 + j * random().
        return latency + self.jitter_ms * random() if self.jitter_ms > 0 else latency

    # -- Deterministic boundary model (parallel sharded runs) ------------
    #
    # Cross-shard traffic must carry send->deliver timestamps that every
    # driver (sequential reference, multiprocessing workers) computes
    # identically without sharing an RNG stream.  The boundary therefore
    # charges the *base* latency only: the (drifting) topology still
    # applies, jitter does not.

    def boundary_latency_ms(self, sender: str, receiver: str,
                            now_ms: float = 0.0) -> float:
        """RNG-free propagation latency for a cross-boundary message."""
        if self.topology is not None:
            return self.topology.latency_ms(sender, receiver, now_ms)
        return self.latency_ms

    def boundary_delay_ms(self, sender: str, receiver: str, size_bytes: int,
                          now_ms: float = 0.0) -> float:
        """Total RNG-free boundary delay (latency + serialization)."""
        return (self.boundary_latency_ms(sender, receiver, now_ms)
                + self.serialization_delay_ms(size_bytes))

    def min_propagation_ms(self) -> float:
        """Lower bound on :meth:`boundary_latency_ms` over links and time.

        This is the conservative-parallel lookahead: a shard simulator at
        virtual time ``t`` cannot be affected by any boundary message sent
        at or after ``t`` until ``t + min_propagation_ms()``, so all
        simulators may safely advance that far between exchanges.
        """
        if self.topology is not None:
            return self.topology.min_latency_ms()
        return self.latency_ms

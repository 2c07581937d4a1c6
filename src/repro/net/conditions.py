"""Network condition models: latency, jitter, bandwidth and loss.

The evaluation fabric charges every message a delivery delay of

    propagation + serialisation + jitter

where serialisation is ``size_bytes / bandwidth``.  This captures the two
effects the paper leans on: message *count* (propagation-bound protocols,
Figure 11) and message *size* (the PROPOSE payload dominating bandwidth,
Figures 9(e)-(h) zero-payload experiments).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class LinkOverride:
    """Per-link override of latency/loss (e.g. a slow or lossy replica)."""

    latency_ms: Optional[float] = None
    loss_rate: Optional[float] = None


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
    link_scale: Dict[Tuple[str, str], float] = field(default_factory=dict)


@dataclass
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

    regions: Dict[str, str] = field(default_factory=dict)
    intra_ms: float = 0.3
    link_ms: Dict[Tuple[str, str], float] = field(default_factory=dict)
    default_inter_ms: float = 10.0
    default_region: str = ""
    drift: Tuple[DriftPhase, ...] = ()

    def __post_init__(self) -> None:
        self.drift = tuple(sorted(self.drift, key=lambda phase: phase.at_ms))

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


@dataclass
class NetworkConditions:
    """Cluster-wide network model.

    Attributes:
        latency_ms: one-way propagation delay between any two nodes.
        jitter_ms: uniform jitter added to each delivery, ``[0, jitter_ms]``.
        bandwidth_mbps: per-link bandwidth used for serialisation delay;
            ``None`` disables size-dependent delay.
        loss_rate: probability that a message is silently dropped.
        local_delivery_ms: delay for a node sending a message to itself.
        overrides: per-(sender, receiver) link overrides.
        topology: optional region-structured latency model; when set, it
            replaces ``latency_ms`` (link overrides still win) and may
            drift deterministically over virtual time.
        seed: seed for the conditions' private RNG.
    """

    latency_ms: float = 0.5
    jitter_ms: float = 0.05
    bandwidth_mbps: Optional[float] = 1000.0
    loss_rate: float = 0.0
    local_delivery_ms: float = 0.01
    overrides: Dict[Tuple[str, str], LinkOverride] = field(default_factory=dict)
    topology: Optional[LatencyTopology] = None
    seed: int = 1

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        # Serialization delay is sampled once per transmitted message; cache
        # the bytes/ms conversion instead of redoing it on every call.
        self._bytes_per_ms = (
            self.bandwidth_mbps * 1_000_000 / 8 / 1000.0
            if self.bandwidth_mbps else 0.0
        )

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
                   loss_rate=0.0, local_delivery_ms=0.0, seed=seed)

    def override_link(self, sender: str, receiver: str, override: LinkOverride) -> None:
        """Install a per-link override (both directions must be set separately)."""
        self.overrides[(sender, receiver)] = override

    def serialization_delay_ms(self, size_bytes: int) -> float:
        """Delay attributable to pushing *size_bytes* through the link."""
        if not self._bytes_per_ms:
            return 0.0
        return size_bytes / self._bytes_per_ms

    def propagation_ms(self, sender: str, receiver: str,
                       now_ms: float = 0.0) -> Optional[float]:
        """Propagation delay (latency + jitter) for one message, ``None`` if lost.

        Serialization is *not* included; the network driver accounts for it
        on the sender's uplink so that large broadcasts (e.g. a PROPOSE to
        90 backups) occupy the sender's bandwidth once per receiver.
        """
        if sender == receiver:
            return self.local_delivery_ms
        override = self.overrides.get((sender, receiver))
        loss = override.loss_rate if override and override.loss_rate is not None else self.loss_rate
        if loss > 0 and self._rng.random() < loss:
            return None
        if override and override.latency_ms is not None:
            latency = override.latency_ms
        elif self.topology is not None:
            latency = self.topology.latency_ms(sender, receiver, now_ms)
        else:
            latency = self.latency_ms
        jitter = self._rng.uniform(0.0, self.jitter_ms) if self.jitter_ms > 0 else 0.0
        return latency + jitter

    def sample_delay_ms(self, sender: str, receiver: str, size_bytes: int,
                        now_ms: float = 0.0) -> Optional[float]:
        """Total delivery delay (propagation + serialization), ``None`` if lost."""
        propagation = self.propagation_ms(sender, receiver, now_ms)
        if propagation is None:
            return None
        if sender == receiver:
            return propagation
        return propagation + self.serialization_delay_ms(size_bytes)

    # -- Deterministic boundary model (parallel sharded runs) ------------
    #
    # Cross-shard traffic must carry send->deliver timestamps that every
    # driver (sequential reference, multiprocessing workers) computes
    # identically without sharing an RNG stream.  The boundary therefore
    # charges the *base* latency only: overrides and (drifting) topology
    # still apply, jitter and loss do not.

    def boundary_latency_ms(self, sender: str, receiver: str,
                            now_ms: float = 0.0) -> float:
        """RNG-free propagation latency for a cross-boundary message."""
        if self.overrides:
            override = self.overrides.get((sender, receiver))
            if override is not None and override.latency_ms is not None:
                return override.latency_ms
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
            candidates = [self.topology.min_latency_ms()]
        else:
            candidates = [self.latency_ms]
        for override in self.overrides.values():
            if override.latency_ms is not None:
                candidates.append(override.latency_ms)
        return min(candidates)

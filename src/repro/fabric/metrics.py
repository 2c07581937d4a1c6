"""Throughput and latency metrics.

The paper measures throughput as transactions executed per second and
latency as the client-observed round-trip time, averaged over the
measurement window after a warm-up period (Section IV, "Setup").  The
helpers here compute those statistics from the completion records the
client pools collect, and build per-second throughput timelines for the
view-change experiment (Figure 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.workload.clients import CompletionRecord


@dataclass(frozen=True)
class MetricsWindow:
    """A measurement window in virtual time, excluding warm-up."""

    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return max(0.0, self.end_ms - self.start_ms)

    def contains(self, record: CompletionRecord) -> bool:
        return self.start_ms <= record.completed_at_ms <= self.end_ms


def merged_completions(pools: Iterable[object]) -> List[CompletionRecord]:
    """Every pool's completion records, in completion order."""
    records = [record for pool in pools for record in pool.completions]
    records.sort(key=lambda record: record.completed_at_ms)
    return records


def warmup_window(records: Sequence[CompletionRecord],
                  warmup_fraction: float) -> Optional[MetricsWindow]:
    """The window left after dropping the first *warmup_fraction* of
    *records* (sorted by completion time); ``None`` without records."""
    if not records:
        return None
    start_index = min(int(len(records) * warmup_fraction), len(records) - 1)
    measured = records[start_index:]
    # Steady-state runs measure completion-to-completion; bursty runs
    # (e.g. every batch blocked on the same timeout) would yield a
    # near-zero window that way, so fall back to submission time.
    last_submission = max(record.submitted_at_ms for record in measured)
    return MetricsWindow(
        start_ms=min(measured[0].completed_at_ms, last_submission),
        end_ms=measured[-1].completed_at_ms,
    )


@dataclass
class RunResult:
    """Aggregated outcome of one experiment run.

    Attributes:
        protocol: protocol name.
        n: number of replicas.
        throughput_txn_per_s: completed transactions per simulated second.
        avg_latency_ms: mean client-observed latency over the window.
        p50_latency_ms / p99_latency_ms: latency percentiles.
        completed_txns: transactions completed inside the window.
        completed_batches: batches completed inside the window.
        duration_ms: measurement window length.
        metadata: free-form extras (batch size, failures, view changes, ...).
    """

    protocol: str
    n: int
    throughput_txn_per_s: float
    avg_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    completed_txns: int
    completed_batches: int
    duration_ms: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat dictionary for tabular reporting."""
        row = {
            "protocol": self.protocol,
            "n": self.n,
            "throughput_txn_per_s": round(self.throughput_txn_per_s, 1),
            "avg_latency_ms": round(self.avg_latency_ms, 3),
            "p50_latency_ms": round(self.p50_latency_ms, 3),
            "p99_latency_ms": round(self.p99_latency_ms, 3),
            "completed_txns": self.completed_txns,
            "duration_ms": round(self.duration_ms, 1),
        }
        row.update(self.metadata)
        return row


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


def summarize(
    protocol: str,
    n: int,
    completions: Iterable[CompletionRecord],
    window: Optional[MetricsWindow] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Summarise completion records into a :class:`RunResult`.

    If *window* is ``None`` the window spans from the first to the last
    completion (i.e. no warm-up exclusion).
    """
    records = list(completions)
    if window is None:
        if records:
            window = MetricsWindow(
                start_ms=min(r.completed_at_ms for r in records),
                end_ms=max(r.completed_at_ms for r in records),
            )
        else:
            window = MetricsWindow(start_ms=0.0, end_ms=0.0)
    in_window = [r for r in records if window.contains(r)]
    txns = sum(r.num_txns for r in in_window)
    latencies = sorted(r.latency_ms for r in in_window)
    duration_ms = window.duration_ms
    throughput = txns / (duration_ms / 1000.0) if duration_ms > 0 else 0.0
    avg_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return RunResult(
        protocol=protocol,
        n=n,
        throughput_txn_per_s=throughput,
        avg_latency_ms=avg_latency,
        p50_latency_ms=percentile(latencies, 0.50),
        p99_latency_ms=percentile(latencies, 0.99),
        completed_txns=txns,
        completed_batches=len(in_window),
        duration_ms=duration_ms,
        metadata=dict(metadata or {}),
    )


@dataclass
class ThroughputTimeline:
    """Per-bucket throughput over time (Figure 10 style)."""

    bucket_ms: float
    buckets: List[float] = field(default_factory=list)

    @classmethod
    def from_completions(cls, completions: Iterable[CompletionRecord],
                         bucket_ms: float = 1000.0,
                         end_ms: Optional[float] = None) -> "ThroughputTimeline":
        """Bucket completed transactions into per-interval throughput (txn/s)."""
        records = list(completions)
        if not records and end_ms is None:
            return cls(bucket_ms=bucket_ms, buckets=[])
        horizon = end_ms if end_ms is not None else max(
            r.completed_at_ms for r in records)
        num_buckets = int(math.ceil(horizon / bucket_ms)) if horizon > 0 else 0
        counts = [0.0] * num_buckets
        for record in records:
            index = min(num_buckets - 1, int(record.completed_at_ms // bucket_ms))
            if index >= 0:
                counts[index] += record.num_txns
        scale = 1000.0 / bucket_ms
        return cls(bucket_ms=bucket_ms, buckets=[c * scale for c in counts])

    def series(self) -> List[Dict[str, float]]:
        """(time_s, txn/s) points suitable for printing or plotting."""
        return [
            {"time_s": (i + 1) * self.bucket_ms / 1000.0, "throughput_txn_per_s": v}
            for i, v in enumerate(self.buckets)
        ]

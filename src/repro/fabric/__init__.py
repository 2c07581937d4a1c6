"""Evaluation fabric: clusters, metrics and the paper's experiment suite.

This package plays the role RESILIENTDB plays in the paper: it wires the
protocol state machines, the simulated network, the workload generators
and the fault schedules into runnable experiments and collects
throughput/latency metrics from them.
"""

from repro.fabric.metrics import MetricsWindow, RunResult, ThroughputTimeline
from repro.fabric.registry import ProtocolSpec, PROTOCOLS, protocol_names
from repro.fabric.cluster import Cluster, ClusterConfig
from repro.fabric.audit import (
    AuditReport,
    AuditViolation,
    SafetyAuditor,
    SafetyViolation,
    audit_cluster,
)
from repro.fabric.scenarios import (
    MATRIX_PROTOCOLS,
    SCENARIO_DEFS,
    ScenarioOutcome,
    ScenarioParams,
    format_matrix,
    run_matrix,
    run_scenario,
    unexpected_outcomes,
)
from repro.fabric.experiments import (
    ExperimentConfig,
    run_experiment,
    run_protocol_comparison,
)
from repro.fabric.timeline import run_view_change_timeline
from repro.fabric.upper_bound import run_upper_bound

__all__ = [
    "MetricsWindow",
    "RunResult",
    "ThroughputTimeline",
    "ProtocolSpec",
    "PROTOCOLS",
    "protocol_names",
    "Cluster",
    "ClusterConfig",
    "AuditReport",
    "AuditViolation",
    "SafetyAuditor",
    "SafetyViolation",
    "audit_cluster",
    "MATRIX_PROTOCOLS",
    "SCENARIO_DEFS",
    "ScenarioOutcome",
    "ScenarioParams",
    "format_matrix",
    "run_matrix",
    "run_scenario",
    "unexpected_outcomes",
    "ExperimentConfig",
    "run_experiment",
    "run_protocol_comparison",
    "run_view_change_timeline",
    "run_upper_bound",
]

"""repro: a reproduction of "Proof-of-Execution: Reaching Consensus through
Fault-Tolerant Speculation" (Gupta, Hellings, Rahnama, Sadoghi — EDBT 2021).

The package implements the PoE consensus protocol together with every
substrate the paper's evaluation depends on: a cryptographic toolkit
(MACs, digital signatures, threshold signatures), a deterministic
discrete-event network simulator, a rollback-capable ledger, a YCSB-style
workload generator, the four baseline protocols (PBFT, Zyzzyva, SBFT,
HotStuff) and an evaluation fabric that reproduces the paper's figures.

Quickstart::

    from dataclasses import replace

    from repro import FIGURE_DEPLOYMENT, run_experiment

    result = run_experiment(replace(FIGURE_DEPLOYMENT, num_replicas=4,
                                    total_batches=50))
    print(result.row())
"""

from repro.core import PoeClientPool, PoeReplica
from repro.crypto import Authenticator, CryptoCostModel, SchemeKind, make_authenticators
from repro.fabric import (
    Cluster,
    ClusterConfig,
    FIGURE_DEPLOYMENT,
    RunResult,
    run_experiment,
    run_protocol_comparison,
    run_upper_bound,
    run_view_change_timeline,
)
from repro.net import FaultSchedule, NetworkConditions, SimNetwork, Simulator
from repro.protocols import (
    HotStuffReplica,
    NodeConfig,
    PbftReplica,
    SbftReplica,
    ZyzzyvaReplica,
)
from repro.workload import ClientPool, YcsbConfig, YcsbWorkload

__version__ = "1.0.0"

__all__ = [
    "PoeReplica",
    "PoeClientPool",
    "PbftReplica",
    "ZyzzyvaReplica",
    "SbftReplica",
    "HotStuffReplica",
    "NodeConfig",
    "Authenticator",
    "CryptoCostModel",
    "SchemeKind",
    "make_authenticators",
    "Simulator",
    "SimNetwork",
    "NetworkConditions",
    "FaultSchedule",
    "Cluster",
    "ClusterConfig",
    "FIGURE_DEPLOYMENT",
    "RunResult",
    "run_experiment",
    "run_protocol_comparison",
    "run_upper_bound",
    "run_view_change_timeline",
    "ClientPool",
    "YcsbConfig",
    "YcsbWorkload",
    "__version__",
]

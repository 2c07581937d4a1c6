"""Registry of the protocols the evaluation compares.

Maps a protocol name to everything the cluster builder needs: the replica
class, the client-pool class (each protocol has its own completion rule),
whether clients must broadcast their requests, and protocol-specific
constructor arguments.  This mirrors the paper's selection of protocols
(Section IV): PoE, PBFT, Zyzzyva, SBFT and HotStuff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.client import PoeClientPool
from repro.core.replica import PoeReplica
from repro.crypto.authenticator import SchemeKind
from repro.protocols.base import ProtocolInfo
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pbft import PbftClientPool, PbftReplica
from repro.protocols.sbft import SbftClientPool, SbftReplica
from repro.protocols.zyzzyva import ZyzzyvaClientPool, ZyzzyvaReplica
from repro.workload.clients import ClientPool


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything needed to instantiate one protocol in the fabric."""

    name: str
    replica_cls: type
    client_pool_cls: type
    replica_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def info(self) -> ProtocolInfo:
        return self.replica_cls.PROTOCOL_INFO

    @property
    def client_quorum(self) -> str:
        """The pool's completion rule, a key of ``clients.QUORUM_RULES``."""
        return self.client_pool_cls.QUORUM_RULE

    @property
    def broadcast_requests(self) -> bool:
        return self.client_pool_cls.BROADCAST_REQUESTS


class HotStuffClientPool(ClientPool):
    """HotStuff clients broadcast requests and need ``f + 1`` matching replies."""

    QUORUM_RULE = "f+1"
    BROADCAST_REQUESTS = True


PROTOCOLS: Dict[str, ProtocolSpec] = {
    "poe": ProtocolSpec(
        name="PoE",
        replica_cls=PoeReplica,
        client_pool_cls=PoeClientPool,
        # scheme=None lets PoE pick MACs for small deployments and
        # threshold signatures for large ones (paper, ingredient I3).
        replica_kwargs={"scheme": None},
    ),
    "poe-ts": ProtocolSpec(
        name="PoE-TS",
        replica_cls=PoeReplica,
        client_pool_cls=PoeClientPool,
        replica_kwargs={"scheme": SchemeKind.THRESHOLD},
    ),
    "poe-mac": ProtocolSpec(
        name="PoE-MAC",
        replica_cls=PoeReplica,
        client_pool_cls=PoeClientPool,
        replica_kwargs={"scheme": SchemeKind.MACS},
    ),
    "poe-nospec": ProtocolSpec(
        name="PoE-NoSpec",
        replica_cls=PoeReplica,
        client_pool_cls=PoeClientPool,
        # Ablation: disable speculative execution (ingredient I1) by adding a
        # PBFT-style commit phase after the view-commit.
        replica_kwargs={"scheme": None, "speculative": False},
    ),
    "pbft": ProtocolSpec(
        name="PBFT",
        replica_cls=PbftReplica,
        client_pool_cls=PbftClientPool,
    ),
    "zyzzyva": ProtocolSpec(
        name="Zyzzyva",
        replica_cls=ZyzzyvaReplica,
        client_pool_cls=ZyzzyvaClientPool,
    ),
    "sbft": ProtocolSpec(
        name="SBFT",
        replica_cls=SbftReplica,
        client_pool_cls=SbftClientPool,
    ),
    "hotstuff": ProtocolSpec(
        name="HotStuff",
        replica_cls=HotStuffReplica,
        client_pool_cls=HotStuffClientPool,
    ),
}


def protocol_names() -> List[str]:
    """The protocol keys in the order the paper's figures list them."""
    return ["poe", "pbft", "sbft", "hotstuff", "zyzzyva"]


def get_spec(name: str) -> ProtocolSpec:
    """Look up a protocol spec by (case-insensitive) name."""
    key = name.lower()
    if key not in PROTOCOLS:
        raise KeyError(f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}")
    return PROTOCOLS[key]

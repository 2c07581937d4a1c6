"""Protocol framework and the four baseline BFT protocols.

PoE itself (the paper's contribution) lives in :mod:`repro.core`; this
package contains the sans-IO framework shared by every protocol and the
baselines the paper evaluates against: PBFT, Zyzzyva, SBFT and HotStuff.
"""

from repro.protocols.base import (
    Action,
    Broadcast,
    CancelTimer,
    ClientNode,
    Message,
    NodeConfig,
    ProtocolInfo,
    ProtocolNode,
    Send,
    SetTimer,
    StepOutput,
)
from repro.protocols.checkpoint import CheckpointMessage, CheckpointTracker
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.protocols.replica_base import BatchingReplica, CommittedSlot
from repro.protocols.pbft import PbftClientPool, PbftReplica
from repro.protocols.zyzzyva import ZyzzyvaClientPool, ZyzzyvaReplica
from repro.protocols.sbft import SbftClientPool, SbftReplica
from repro.protocols.hotstuff import HotStuffReplica

__all__ = [
    "Action",
    "Broadcast",
    "CancelTimer",
    "ClientNode",
    "Message",
    "NodeConfig",
    "ProtocolInfo",
    "ProtocolNode",
    "Send",
    "SetTimer",
    "StepOutput",
    "CheckpointMessage",
    "CheckpointTracker",
    "ClientReplyMessage",
    "ClientRequestMessage",
    "BatchingReplica",
    "CommittedSlot",
    "PbftClientPool",
    "PbftReplica",
    "ZyzzyvaClientPool",
    "ZyzzyvaReplica",
    "SbftClientPool",
    "SbftReplica",
    "HotStuffReplica",
]

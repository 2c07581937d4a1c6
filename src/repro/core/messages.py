"""PoE's normal-case messages (paper, Figure 3).

The INFORM message of the paper is represented by the shared
:class:`~repro.protocols.client_messages.ClientReplyMessage` envelope with
``speculative=True``, since every protocol in this repository informs
clients through the same envelope.  VC-REQUEST and NV-PROPOSE (Figure 5)
are the primary-backup layer's
:class:`~repro.protocols.recovery.ViewChangeRequest` and
:class:`~repro.protocols.recovery.NewView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.threshold import SignatureShare, ThresholdSignature
from repro.protocols.base import Message
from repro.workload.transactions import RequestBatch


@dataclass(slots=True)
class PoePropose(Message):
    """PROPOSE(<T>_c, v, k): the primary proposes *batch* as slot *sequence*."""

    view: int = 0
    sequence: int = 0
    batch: RequestBatch = None


@dataclass(slots=True)
class PoeSupport(Message):
    """SUPPORT(s<h>_i, v, k): a replica supports the primary's proposal.

    In threshold mode the message carries the replica's signature share
    and is sent to the primary only; in MAC mode it carries the proposal
    digest and is broadcast to every replica (paper, Appendix A).
    """

    view: int = 0
    sequence: int = 0
    proposal_digest: bytes = b""
    share: Optional[SignatureShare] = None
    replica_id: str = ""


@dataclass(slots=True)
class PoeCertify(Message):
    """CERTIFY(<h>, v, k): the primary's aggregated support certificate."""

    view: int = 0
    sequence: int = 0
    proposal_digest: bytes = b""
    certificate: Optional[ThresholdSignature] = None


@dataclass(slots=True)
class PoeCommitVote(Message):
    """COMMIT(v, k, d): ablation-only vote used when speculation is disabled.

    The paper's PoE never sends this message: replicas execute as soon as
    they view-commit (ingredient I1).  The ``speculative=False`` ablation
    re-introduces a PBFT-style commit phase so the benefit of speculative
    execution can be measured in isolation.
    """

    view: int = 0
    sequence: int = 0
    proposal_digest: bytes = b""
    replica_id: str = ""

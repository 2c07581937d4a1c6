"""Client-facing message envelopes shared by every protocol.

All five protocols interact with clients the same way at the envelope
level: a client (or client pool) submits a :class:`ClientRequestMessage`
carrying a batch of transactions, and replicas eventually answer with
:class:`ClientReplyMessage` (the paper's INFORM / REPLY / SPEC-RESPONSE
messages).  Protocol-specific data (speculative histories, aggregate
proofs) rides in the ``extra`` field, so the generic client pool can count
matching replies while protocol-specific clients can inspect the details.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.protocols.base import Message

if TYPE_CHECKING:  # annotation only: the workload's client pools import this module
    from repro.workload.transactions import RequestBatch


@dataclass(slots=True)
class ClientRequestMessage(Message):
    """A client submitting a batch of transactions for ordering.

    Attributes:
        batch: the transactions to order and execute.
        reply_to: identifier the replicas should answer to.
        retransmission: ``True`` when the client re-sends after a timeout
            (replicas then forward the request to the primary and start a
            view-change timer, per Section II-B of the paper).
    """

    batch: RequestBatch = None
    reply_to: str = ""
    retransmission: bool = False


@dataclass(slots=True)
class ClientReplyMessage(Message):
    """A replica informing a client of an execution result.

    Attributes:
        batch_id: identifier of the client batch this reply answers.
        view: view in which the batch was executed.
        sequence: consensus sequence number assigned to the batch.
        result_digest: digest of the execution results; clients compare
            digests from distinct replicas to establish matching replies.
        replica_id: the responding replica.
        speculative: ``True`` for replies sent before the batch is durable
            system-wide (PoE INFORM, Zyzzyva SPEC-RESPONSE).
        extra: protocol-specific payload (e.g. Zyzzyva history digest,
            SBFT execution proof).
    """

    batch_id: str = ""
    view: int = 0
    sequence: int = 0
    result_digest: bytes = b""
    replica_id: str = ""
    speculative: bool = False
    extra: Any = None

    def matching_key(self) -> tuple:
        """Key under which replies are considered 'identical' by clients."""
        return (self.batch_id, self.view, self.sequence, self.result_digest)

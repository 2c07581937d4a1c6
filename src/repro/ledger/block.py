"""Blocks of the replicated ledger.

A block ``B_i = {k, d, v, H(B_{i-1})}`` records the sequence number ``k``
of a committed batch, the digest ``d`` of that batch, the view ``v`` in
which it was certified, and the hash of the previous block (paper,
Section III-A).  Blocks optionally carry the *proof of acceptance* — in
PoE the aggregated threshold signature from the CERTIFY message — which
lets the chain be audited without re-running consensus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.hashing import digest, shared_digest

#: Parent hash used by the genesis block.
GENESIS_PARENT = b"\x00" * 32


@dataclass(frozen=True, slots=True)
class Block:
    """One block in the replicated ledger (slotted: a replica keeps one per
    executed batch for good).

    Attributes:
        sequence: consensus sequence number ``k`` of the batch.
        batch_digest: digest ``d`` of the batch of client requests.
        view: view number ``v`` in which the batch was certified.
        parent_hash: hash of the previous block.
        proof: protocol-specific acceptance proof: the PoE-TS threshold
            signature, or in MAC mode the
            :class:`~repro.protocols.quorum.QuorumProof` snapshot of the
            voters (a bitmask: kept for good, so it must not grow with
            n); not included in the block hash so that replicas
            aggregating different-but-valid share subsets still agree.
        payload: optional opaque payload (the batch itself, results, ...).
    """

    sequence: int
    batch_digest: bytes
    view: int
    parent_hash: bytes
    proof: Any = None
    payload: Any = None
    #: Checkpoint-sync blocks adopt the *source* chain's head hash (the
    #: hash is quorum-vouched through the checkpoint state digest), so a
    #: transferred replica rejoins the canonical hash chain instead of
    #: forking onto a private one whose digests never match the quorum
    #: again.
    adopted_hash: Optional[bytes] = None

    @property
    def block_hash(self) -> bytes:
        """Hash chaining this block to its parent."""
        if self.adopted_hash is not None:
            return self.adopted_hash
        return shared_digest("block", self.sequence, self.batch_digest,
                             self.view, self.parent_hash)

    @classmethod
    def genesis(cls, initial_primary: str) -> "Block":
        """Create the genesis block.

        The paper uses the hash of the initial primary's identity as the
        genesis content because every replica knows it without extra
        communication (Section III-A).
        """
        return cls(
            sequence=-1,
            batch_digest=digest("genesis", initial_primary),
            view=0,
            parent_hash=GENESIS_PARENT,
        )

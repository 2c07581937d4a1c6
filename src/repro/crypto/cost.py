"""CPU-cost model for cryptographic operations.

The paper's Figure 8 measures the throughput/latency impact of the
signature scheme (no signatures, ED25519 everywhere, CMAC+AES between
replicas with ED25519 clients).  The discrete-event simulator does not
execute real cryptography on the hot path; instead every protocol charges
its replicas a per-operation CPU cost drawn from this model, so the
relative cost of schemes — and therefore the relative protocol
throughputs — match the paper's measurements.

Costs are expressed in milliseconds of single-core CPU time per
operation.  The defaults are calibrated so that a 16-replica PBFT setup
reproduces the ~3:2:1 throughput ordering of CMAC : ED : None seen in
Figure 8 (higher cost => lower throughput), and so MAC operations are an
order of magnitude cheaper than asymmetric ones, as reported in the BFT
literature the paper cites.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class CryptoOp(enum.Enum):
    """Cryptographic operations charged by the protocols."""

    HASH = "hash"
    MAC_SIGN = "mac_sign"
    MAC_VERIFY = "mac_verify"
    SIGN = "sign"
    VERIFY = "verify"
    THRESHOLD_SHARE = "threshold_share"
    THRESHOLD_SHARE_VERIFY = "threshold_share_verify"
    THRESHOLD_AGGREGATE = "threshold_aggregate"
    THRESHOLD_VERIFY = "threshold_verify"


# A member's position, as a plain attribute: a node flattens its cost model
# into a tuple and indexes it with ``op.ordinal`` on every charge — hashing
# a member (``Enum.__hash__``) or reading ``.value`` is a Python-level call.
for _ordinal, _op in enumerate(CryptoOp):
    _op.ordinal = _ordinal

#: Default per-operation CPU costs in milliseconds.
DEFAULT_COSTS_MS: Dict[CryptoOp, float] = {
    CryptoOp.HASH: 0.002,
    CryptoOp.MAC_SIGN: 0.004,
    CryptoOp.MAC_VERIFY: 0.004,
    CryptoOp.SIGN: 0.060,
    CryptoOp.VERIFY: 0.120,
    CryptoOp.THRESHOLD_SHARE: 0.100,
    CryptoOp.THRESHOLD_SHARE_VERIFY: 0.080,
    CryptoOp.THRESHOLD_AGGREGATE: 0.150,
    CryptoOp.THRESHOLD_VERIFY: 0.120,
}


@dataclass(frozen=True)
class CryptoCostModel:
    """Per-operation CPU cost table used by the simulator.

    Attributes:
        costs_ms: milliseconds of CPU time charged per operation.
        scale: global multiplier (e.g. 0 to model the paper's "None"
            configuration where no signatures are used).
    """

    costs_ms: Dict[CryptoOp, float] = field(
        default_factory=lambda: dict(DEFAULT_COSTS_MS)
    )
    scale: float = 1.0

    def cost(self, op: CryptoOp, count: int = 1) -> float:
        """Milliseconds of CPU time for *count* executions of *op*."""
        return self.costs_ms.get(op, 0.0) * self.scale * count

    @classmethod
    def none(cls) -> "CryptoCostModel":
        """No cryptography at all (Figure 8, "None")."""
        return cls(scale=0.0)

    @classmethod
    def digital_signatures(cls) -> "CryptoCostModel":
        """Digital signatures everywhere (Figure 8, "ED").

        MAC operations are priced like full signature operations, which is
        what "everyone uses digital signatures" means for the message flow.
        """
        costs = dict(DEFAULT_COSTS_MS)
        costs[CryptoOp.MAC_SIGN] = costs[CryptoOp.SIGN]
        costs[CryptoOp.MAC_VERIFY] = costs[CryptoOp.VERIFY]
        return cls(costs_ms=costs)

    @classmethod
    def cmac(cls) -> "CryptoCostModel":
        """MACs between replicas, signatures for clients (Figure 8, "CMAC")."""
        return cls()

"""PoE client: a transaction is executed after nf identical INFORM messages.

The paper's client sends its signed request to the primary and waits for
identical INFORM messages from ``nf`` distinct replicas (Figure 3,
Client-role), which guarantees that at least ``nf - f >= f + 1``
non-faulty replicas executed the transaction and, by speculative
non-divergence, that every non-faulty replica eventually will.  If a
client receives no timely response it broadcasts the request to all
replicas, which forward it to the primary and arm the failure-detection
timers.
"""

from __future__ import annotations

from repro.workload.clients import ClientPool


class PoeClientPool(ClientPool):
    """Client pool with PoE's completion rule (``nf`` matching replies)."""

    QUORUM_RULE = "nf"

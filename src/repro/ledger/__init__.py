"""Ledger substrate: hash-chained blocks and a rollback-capable store.

RESILIENTDB maintains an immutable blockchain ledger whose ``i``-th block
holds the sequence number, request digest, view number and the hash of the
previous block (paper, Section III-A).  PoE additionally requires replicas
to be able to *revert* speculatively executed transactions during a
view-change (Section II-C3), so the execution store keeps an undo log per
executed batch.
"""

from repro.ledger.block import Block, GENESIS_PARENT
from repro.ledger.blockchain import Blockchain
from repro.ledger.store import KeyValueStore, result_digest
from repro.ledger.execution import SpeculativeExecutor, ExecutedBatch

__all__ = [
    "Block",
    "GENESIS_PARENT",
    "Blockchain",
    "KeyValueStore",
    "result_digest",
    "SpeculativeExecutor",
    "ExecutedBatch",
]

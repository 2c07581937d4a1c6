"""Workload substrate: YCSB-style transactions, Zipfian skew, client pools.

The paper evaluates with YCSB from Blockbench's macro benchmarks: a table
of 500 k active records, 90 % write queries, requests following a heavily
skewed Zipfian distribution (skew factor 0.9), and batches of 100 requests
(Section IV, "Configuration and Benchmarking").  This package reproduces
that workload generator and the client populations that drive it.
"""

from repro.workload.transactions import (
    Operation,
    OpType,
    Transaction,
    RequestBatch,
    make_no_op_batch,
    make_synthetic_batch,
)
from repro.workload.zipfian import ZipfianGenerator
from repro.workload.ycsb import YcsbConfig, YcsbWorkload
from repro.workload.clients import (
    ClientPool,
    CompletionRecord,
    synthetic_batch_source,
)

__all__ = [
    "Operation",
    "OpType",
    "Transaction",
    "RequestBatch",
    "make_no_op_batch",
    "make_synthetic_batch",
    "ZipfianGenerator",
    "YcsbConfig",
    "YcsbWorkload",
    "ClientPool",
    "CompletionRecord",
    "synthetic_batch_source",
]

"""What a simulated run imports: the simulator, and nothing of the live paths.

A poebench process imports ``repro``, the forked driver's module, the
perf-smoke harness and poebench's own modules before it builds a
deployment; whatever those imports load sits in every workload's
``peak_rss_mb``.  The live asyncio transport (``asyncio``, ``ssl``,
``concurrent.futures``) and the forked driver's ``multiprocessing`` are
loaded only by the code that uses them, so none of that is in the list.
The test runs in a fresh interpreter, since this one has loaded both
long since, and then checks that the two live paths still import and run
there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Modules that only the live transport or the forked driver needs.
LIVE_ONLY = ("asyncio", "ssl", "multiprocessing", "concurrent.futures")

SCRIPT = f"""
import json, sys

LIVE_ONLY = {LIVE_ONLY!r}
import repro, repro.fabric.parallel, repro.bench
import workloads, measure, layers, agree, isolated
loaded = sorted(name for name in LIVE_ONLY if name in sys.modules)

import asyncio
from live_asyncio_cluster import run_cluster
pool, replicas, _elapsed, _transport = asyncio.run(run_cluster(duration_s=0.2))

from repro.fabric.parallel import run_parallel
from repro.fabric.sharding import ShardedClusterConfig, sharded_fingerprint
config = ShardedClusterConfig(
    num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
    total_batches=6, cross_shard_fraction=0.3, request_timeout_ms=100.0,
    seed=3)
print(json.dumps({{
    "loaded": loaded,
    "live_batches": pool.completed_batches,
    "parallel_matches": run_parallel(config).fingerprint
                        == sharded_fingerprint(config),
}}))
"""


def test_a_simulated_run_loads_neither_asyncio_nor_multiprocessing():
    path = os.pathsep.join(
        str(ROOT / part) for part in ("src", "poebench", "examples"))
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["live_batches"] > 0
    assert report["parallel_matches"]

"""poebench: the repo's benchmark.

One measured run (what the pipeline calls; one workload, in this process):

    python3 poebench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric as ``workload metric value unit`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits non-zero when a batch budget is not met, an
audit reports a violation, or reps disagree on ``processed_events``.

The whole benchmark (every workload, each pass in a fresh child
interpreter, one process at a time):

    python3 poebench/run.py [--seed 3] [--workload NAME ...] [--seconds 10]
                            [--no-trace] [--out DIR]

writes ``results.json`` and one ``trace_<workload>.json`` to ``--out``.

    python3 poebench/run.py --agree A/results.json B/results.json

compares two result files metric by metric against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"poebench: {ROOT / 'src' / 'repro'} not found; "
             "run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.fabric.parallel import run_parallel  # noqa: E402
from repro.fabric.sharding import ShardedClusterConfig  # noqa: E402

import agree  # noqa: E402
import isolated  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS, Workload, construct, sizes  # noqa: E402

Metric = Dict[str, object]


def _metric(value: float, unit: str, q1: Optional[float] = None,
            q3: Optional[float] = None, samples: int = 1) -> Metric:
    return {"value": value, "unit": unit,
            "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3, "samples": samples}


# --------------------------------------------------------------- end to end
def end_to_end(workload: Workload, seed: int, seconds: float,
               scale: float) -> Dict[str, object]:
    setups = measure.time_setup(workload, seed, scale)
    reps = measure.timed_reps(workload, seed, scale, seconds,
                              measure.MIN_REPS)
    problems = measure.check(reps)
    virtual = reps[-1].virtual
    walls = measure.steady_walls(reps)
    wall_q1, wall_median, wall_q3 = measure.quartiles(walls)
    setup_q1, setup_median, setup_q3 = measure.quartiles(setups)
    txns = virtual.done_txns
    latencies = len(virtual.latencies_ms)
    metrics = {
        "host_txn_per_s": _metric(txns / wall_median, "txn/s",
                                  txns / wall_q3, txns / wall_q1, len(walls)),
        "setup_s": _metric(setup_median, "s", setup_q1, setup_q3, len(setups)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "virt_txn_per_s": _metric(virtual.txn_per_s, "txn/s"),
        "virt_lat_p50_ms": _metric(virtual.latency_ms(0.50), "ms",
                                   samples=latencies),
        "virt_lat_p95_ms": _metric(virtual.latency_ms(0.95), "ms",
                                   samples=latencies),
        "virt_outage_ms": _metric(virtual.outage_ms, "ms"),
        "ok_op_frac": _metric(0.0 if problems else virtual.ok_op_frac,
                              "fraction", samples=virtual.budget_batches),
    }
    return _measured(metrics, problems, reps)


def _measured(metrics: Dict[str, Metric], problems: List[str],
              reps: List[measure.Rep], **extra: object) -> Dict[str, object]:
    virtual = reps[-1].virtual
    return {"metrics": metrics, "problems": problems,
            "attempted": virtual.budget_batches,
            "failed": virtual.budget_batches - virtual.done_batches,
            "reps": [rep.row() for rep in reps], **extra}


# ---------------------------------------------------------------- per layer
def _parallel_speedup(workload: Workload, seed: int, scale: float,
                      sequential: measure.Rep) -> float:
    """Sequential wall / ``run_parallel`` wall on the same config (one
    pair); 0 on a workload with no sharded deployment."""
    configs = workload.configs(seed, scale)
    if not isinstance(configs[0], ShardedClusterConfig):
        return 0.0
    start = time.perf_counter()
    run = run_parallel(configs[0], max_ms=measure.MAX_VIRTUAL_MS,
                       record_wire=False)
    wall = time.perf_counter() - start
    if run.shard_processed_events != sequential.shard_events:
        raise AssertionError(
            f"run_parallel per-shard events {run.shard_processed_events} "
            f"!= sequential {sequential.shard_events}")
    return sequential.wall_s / wall


def per_layer(workload: Workload, seed: int, seconds: float,
              scale: float) -> Dict[str, object]:
    tracer = layers.Tracer()
    root = tracer.open(workload.name, None, seed=seed)
    with tracer.span("untraced reps", root["id"]):
        reps = measure.timed_reps(workload, seed, scale, seconds / 4.0,
                                  measure.TRACE_MIN_REPS)
    last = reps[-1]
    with tracer.span("run_parallel", root["id"]):
        # Straight after the sequential rep it is compared with.
        speedup = _parallel_speedup(workload, seed, scale, last)
    wall_median = statistics.median(measure.steady_walls(reps))

    profile = cProfile.Profile()
    with tracer.span("traced rep", root["id"]) as rep_span:
        driver = layers.ChunkDriver(tracer, rep_span["id"])

        def profiled(deployment) -> None:
            profile.enable()
            try:
                driver(deployment)
            finally:
                profile.disable()

        traced = measure.run_rep(workload, seed, scale,
                                 make=construct, drive=profiled)
    problems = measure.check(reps + [traced])
    layer_rows, edges = layers.roll_up(profile)

    metrics: Dict[str, Metric] = {}
    for row in layer_rows:
        layer = row["layer"]
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
        metrics[f"{layer}.self_frac"] = _metric(row["self_frac"], "fraction")
        metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
    for name, value in last.counts.items():
        metrics[name] = _metric(value, "count")
    virtual = last.virtual
    events, txns = last.counts["net.simulator.events"], virtual.done_txns
    metrics["net.simulator.events_per_txn"] = _metric(events / txns, "events/txn")
    metrics["net.simulator.events_per_s"] = _metric(events / wall_median, "1/s")
    metrics["net.network.msgs_per_txn"] = _metric(
        last.counts["net.network.msgs_sent"] / txns, "msgs/txn")
    metrics["workload.clients.batches_done"] = _metric(
        virtual.done_batches, "count")
    metrics["workload.clients.slow_batches"] = _metric(
        virtual.slow_batches, "count")
    metrics["fabric.sharding.windows"] = _metric(driver.windows, "count")
    metrics["fabric.sharding.boundary_events"] = _metric(
        driver.boundary_events, "count")
    metrics["fabric.sharding.loop_overhead_frac"] = _metric(
        1.0 - driver.window_wall_s / driver.loop_wall_s
        if driver.loop_wall_s else 0.0, "fraction")
    metrics["fabric.parallel.speedup_x"] = _metric(speedup, "x")
    metrics["fabric.parallel.cpu_count"] = _metric(os.cpu_count() or 1, "count")
    with tracer.span("isolated drives", root["id"]):
        for name, rate in isolated.run_all(seed, scale).items():
            metrics[name] = _metric(rate, "1/s")
    metrics["trace.overhead_x"] = _metric(traced.ref_wall_s / wall_median, "x")
    metrics["host.cpu_wall_ratio"] = _metric(
        statistics.median(rep.cpu_wall_ratio for rep in reps[1:]), "ratio")
    tracer.close(root)
    measured = _measured(metrics, problems, reps, spans=tracer.spans,
                         layers=layer_rows, edges=edges)
    measured["reps"].append(dict(traced.row(), traced=True))
    return measured


# ------------------------------------------------------------------ one run
def detail_path(out: Path, name: str, trace: int) -> Path:
    return out / f"{'trace' if trace else 'e2e'}_{name}.json"


def run_one(name: str, seed: int, seconds: float, trace: int, out: Path,
            scale: float = 1.0) -> Dict[str, object]:
    """Measure one workload; writes and returns its detail record."""
    workload = WORKLOADS[name]
    measured = (per_layer if trace else end_to_end)(
        workload, seed, seconds, scale)
    detail = {"workload": name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace, "scale": scale,
              "sizes": sizes(workload, seed, scale), **measured}
    out.mkdir(parents=True, exist_ok=True)
    detail_path(out, name, trace).write_text(
        json.dumps(detail, indent=1) + "\n")
    return detail


def result_line(detail: Dict[str, object]) -> Dict[str, object]:
    """The object a run prints last: exactly the contract's four keys."""
    return {
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail["metrics"].items()},
    }


def main_one(args: argparse.Namespace) -> int:
    (name,) = args.workload
    detail = run_one(name, args.seed, args.seconds, args.trace, Path(args.out))
    for metric, m in detail["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"poebench: {name}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(detail)))
    return 1 if detail["problems"] else 0


# ---------------------------------------------------------------- the suite
def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main_suite(args: argparse.Namespace) -> int:
    out = Path(args.out)
    names = args.workload or list(WORKLOADS)
    results: Dict[str, object] = {
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
        "commit": _git_commit(), "workloads": {}}
    failed = False
    for name in names:
        entry: Dict[str, object] = {}
        for trace in (0,) if args.no_trace else (0, 1):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", str(out)],
                stdout=subprocess.PIPE, text=True)
            rows = child.stdout.splitlines()
            print("\n".join(rows[:-1]), flush=True)
            failed = failed or child.returncode != 0
            detail = json.loads(detail_path(out, name, trace).read_text())
            entry["sizes"] = detail["sizes"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = detail["metrics"]
            entry[f"{key}_reps"] = detail["reps"]
            entry[f"{key}_problems"] = detail["problems"]
        results["workloads"][name] = entry
    (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out / 'results.json'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload (at least 5 reps)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one workload in this process: "
                             "0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--no-trace", action="store_true",
                        help="whole benchmark without the traced passes")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--agree", nargs=2, metavar="RESULTS_JSON")
    args = parser.parse_args(argv)
    if args.agree:
        return agree.main(Path(args.agree[0]), Path(args.agree[1]),
                          ROOT / "BENCHMARK.json")
    if args.trace is None:
        return main_suite(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    return main_one(args)


if __name__ == "__main__":
    raise SystemExit(main())

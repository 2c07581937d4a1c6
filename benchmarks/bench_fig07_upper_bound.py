"""Figure 7: upper bound on fabric performance without consensus.

The paper measures the maximum throughput of RESILIENTDB when clients talk
to a single primary with no replica communication, with and without
executing the requests.  The shape to reproduce: both configurations far
exceed any consensus protocol's throughput, and skipping execution is
faster than executing.
"""

from repro.bench.report import print_results
from repro.fabric.upper_bound import run_upper_bound


def run_bound(execute: bool, num_batches: int):
    return run_upper_bound(execute=execute, batch_size=100,
                           num_batches=num_batches, client_outstanding=32)


def test_figure7_upper_bound(benchmark, scale):
    def run_both():
        return {
            "no_exec": run_bound(execute=False, num_batches=scale.num_batches * 4),
            "exec": run_bound(execute=True, num_batches=scale.num_batches * 4),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    no_exec, with_exec = results["no_exec"], results["exec"]
    # Shape check: not executing is at least as fast as executing.
    assert no_exec.throughput_txn_per_s >= with_exec.throughput_txn_per_s
    assert with_exec.throughput_txn_per_s > 0
    # run_upper_bound runs until idle and summarises every completion.
    rows = [
        {"configuration": label,
         "throughput_txn_per_s": round(result.throughput_txn_per_s),
         "latency_ms": round(result.avg_latency_ms, 3),
         "budget_met": result.completed_batches == scale.num_batches * 4}
        for label, result in (("No execution", no_exec), ("Execution", with_exec))
    ]
    assert all(row["budget_met"] for row in rows), "unmet batch budget"
    print_results("Figure 7 — Upper bound without consensus", rows)

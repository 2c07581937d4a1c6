"""Figures 9(i), 9(j): impact of batching under a backup failure.

The paper fixes 32 replicas (one crashed) and sweeps the batch size from
10 to 400.  Shapes to reproduce: throughput rises and latency falls as the
batch size grows, with diminishing returns past ~100 requests per batch;
PoE keeps its lead over PBFT/SBFT throughout and Zyzzyva remains
timeout-bound regardless of the batch size.
"""


from figure_rows import figure_row
from repro.bench.report import print_results
from repro.fabric.experiments import ExperimentConfig, run_experiment

PROTOCOLS = ["poe", "pbft", "sbft", "hotstuff", "zyzzyva"]


def run_sweep(scale):
    num_replicas = 32 if 32 in scale.replica_counts else max(scale.replica_counts)
    rows = []
    results = {}
    for batch_size in scale.batch_sizes:
        for protocol in PROTOCOLS:
            config = ExperimentConfig(
                protocol=protocol,
                num_replicas=num_replicas,
                batch_size=batch_size,
                num_batches=scale.num_batches,
                single_backup_failure=True,
            )
            result = run_experiment(config)
            results[(protocol, batch_size)] = result
            rows.append(figure_row(result, protocol=result.protocol, batch_size=batch_size))
    return rows, results


def test_figure9ij_batching_under_failure(benchmark, scale):
    rows, results = benchmark.pedantic(run_sweep, args=(scale,), rounds=1,
                                       iterations=1)
    sizes = sorted(scale.batch_sizes)
    # Larger batches give higher throughput for the out-of-order protocols.
    for protocol in ["poe", "pbft"]:
        small = results[(protocol, sizes[0])].throughput_txn_per_s
        large = results[(protocol, sizes[-1])].throughput_txn_per_s
        assert large > small
    # PoE keeps its lead over PBFT at every batch size.
    for batch_size in sizes:
        assert (results[("poe", batch_size)].throughput_txn_per_s
                > results[("pbft", batch_size)].throughput_txn_per_s)
    print_results("Figure 9(i,j) — batching, n=32, single backup failure", rows)

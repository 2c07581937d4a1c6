"""Figures 9(e)-(h): scalability under zero payload.

Zero-payload proposals remove the primary's bandwidth bottleneck: replicas
still execute ``batch_size`` dummy instructions per slot but the PROPOSE
message carries no request data.  The paper's observation: PoE's margin
over PBFT and SBFT widens, and in the failure-free case PoE becomes
comparable to Zyzzyva.
"""


from figure_rows import figure_row
from repro.bench.report import print_results
from repro.fabric.experiments import ExperimentConfig, run_experiment
from repro.fabric.registry import protocol_names


def run_sweep(scale, single_backup_failure: bool):
    rows = []
    results = {}
    for n in scale.replica_counts:
        for protocol in protocol_names():
            config = ExperimentConfig(
                protocol=protocol,
                num_replicas=n,
                batch_size=100,
                num_batches=scale.num_batches,
                single_backup_failure=single_backup_failure,
                zero_payload=True,
            )
            result = run_experiment(config)
            results[(protocol, n)] = result
            rows.append(figure_row(result, protocol=result.protocol, n=n))
    return rows, results


def test_figure9ef_zero_payload_single_failure(benchmark, scale):
    rows, results = benchmark.pedantic(
        run_sweep, args=(scale, True), rounds=1, iterations=1)
    for n in scale.replica_counts:
        if n < 16:
            continue
        poe = results[("poe", n)].throughput_txn_per_s
        assert poe > results[("pbft", n)].throughput_txn_per_s
        assert poe > 5 * results[("zyzzyva", n)].throughput_txn_per_s
    print_results("Figure 9(e,f) — zero payload, single backup failure", rows)


def test_figure9gh_zero_payload_no_failures(benchmark, scale):
    rows, results = benchmark.pedantic(
        run_sweep, args=(scale, False), rounds=1, iterations=1)
    for n in scale.replica_counts:
        if n < 16:
            continue
        poe = results[("poe", n)].throughput_txn_per_s
        zyzzyva = results[("zyzzyva", n)].throughput_txn_per_s
        assert poe > results[("pbft", n)].throughput_txn_per_s
        assert poe > results[("hotstuff", n)].throughput_txn_per_s
        # Zero payload brings PoE within a factor ~2 of Zyzzyva's fast path.
        assert poe > zyzzyva * 0.4
    print_results("Figure 9(g,h) — zero payload, no failures", rows)

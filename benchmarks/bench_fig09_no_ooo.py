"""Figures 9(k), 9(l): out-of-order processing disabled.

Clients submit a new request only after the previous one completed (the
paper allows HotStuff four outstanding requests, matching its four-phase
chained pipeline).  Shapes to reproduce: every protocol drops from
hundreds of thousands of transactions per second to a few thousand, and
HotStuff — the only protocol whose design does not rely on out-of-order
processing — now comes out ahead, at the cost of higher latency than in
its own Figure 9(c) numbers.
"""


from figure_rows import figure_row
from repro.bench.report import print_results
from repro.fabric.experiments import ExperimentConfig, run_experiment

PROTOCOLS = ["poe", "pbft", "sbft", "hotstuff", "zyzzyva"]


def run_sweep(scale):
    rows = []
    results = {}
    for n in scale.replica_counts:
        for protocol in PROTOCOLS:
            config = ExperimentConfig(
                protocol=protocol,
                num_replicas=n,
                batch_size=100,
                num_batches=min(scale.num_batches, 60),
                out_of_order=False,
            )
            result = run_experiment(config)
            results[(protocol, n)] = result
            rows.append(figure_row(result, protocol=result.protocol, n=n))
    return rows, results


def test_figure9kl_out_of_order_disabled(benchmark, scale):
    rows, results = benchmark.pedantic(run_sweep, args=(scale,), rounds=1,
                                       iterations=1)
    for n in scale.replica_counts:
        poe_closed = results[("poe", n)].throughput_txn_per_s
        hotstuff_closed = results[("hotstuff", n)].throughput_txn_per_s
        # HotStuff's pipelined rounds give it the edge once nobody may
        # process requests out of order.
        assert hotstuff_closed > poe_closed
    # Closed-loop throughput is orders of magnitude below the out-of-order
    # numbers of Figure 9(c): a few thousand txn/s at most.
    poe_open = run_experiment(ExperimentConfig(
        protocol="poe", num_replicas=scale.replica_counts[0], batch_size=100,
        num_batches=min(scale.num_batches, 60)))
    slowest_n = scale.replica_counts[0]
    assert (results[("poe", slowest_n)].throughput_txn_per_s
            < poe_open.throughput_txn_per_s / 5)
    print_results("Figure 9(k,l) — out-of-order processing disabled", rows)

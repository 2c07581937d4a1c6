"""Figure 8: effect of the cryptographic signature scheme.

The paper runs PBFT with 16 replicas under three configurations: no
signatures at all ("None"), ED25519 digital signatures everywhere ("ED"),
and CMAC+AES between replicas with ED25519 clients ("CMAC").  The shape to
reproduce: None > CMAC > ED in throughput, reversed for latency.
"""


from dataclasses import replace

from figure_rows import figure_row
from repro.bench.report import print_results
from repro.crypto.cost import CryptoCostModel
from repro.fabric.experiments import FIGURE_DEPLOYMENT, run_experiment

CONFIGURATIONS = {
    "None": CryptoCostModel.none(),
    "ED": CryptoCostModel.digital_signatures(),
    "CMAC": CryptoCostModel.cmac(),
}


def run_pbft_with(cost_model, num_batches):
    return run_experiment(replace(
        FIGURE_DEPLOYMENT, protocol="pbft", total_batches=num_batches,
        cost_model=cost_model))


def test_figure8_signature_schemes(benchmark, scale):
    def run_all():
        return {name: run_pbft_with(model, scale.num_batches)
                for name, model in CONFIGURATIONS.items()}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    throughput = {name: r.throughput_txn_per_s for name, r in results.items()}
    # Shape check from the paper: no crypto is fastest, signatures everywhere
    # slowest, MACs in between.
    assert throughput["None"] > throughput["CMAC"] > throughput["ED"]
    rows = [figure_row(result, scheme=name) for name, result in results.items()]
    print_results("Figure 8 — PBFT (n=16) under different signature schemes", rows)

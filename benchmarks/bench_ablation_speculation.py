"""Ablation: how much does non-divergent speculative execution buy?

Not a figure from the paper, but a direct measurement of its ingredient I1:
``poe-nospec`` is PoE with speculation disabled — replicas run an extra
PBFT-style commit phase after the view-commit before executing.  Comparing
PoE, PoE-NoSpec and PBFT isolates the contribution of speculation from the
contribution of linear communication:

* PoE vs PoE-NoSpec  — the value of executing at view-commit time
  (one less phase of latency on the critical path);
* PoE-NoSpec vs PBFT — the value of the linear SUPPORT/CERTIFY exchange
  versus PBFT's two all-to-all phases.
"""


from dataclasses import replace

from figure_rows import figure_row
from repro.bench.report import print_results
from repro.fabric.experiments import FIGURE_DEPLOYMENT, backup_crash, run_experiment

PROTOCOLS = ["poe", "poe-nospec", "pbft"]


def run_ablation(scale):
    rows = []
    results = {}
    for n in scale.replica_counts:
        for protocol in PROTOCOLS:
            result = run_experiment(backup_crash(replace(
                FIGURE_DEPLOYMENT, protocol=protocol, num_replicas=n,
                total_batches=scale.num_batches)))
            results[(protocol, n)] = result
            rows.append(figure_row(result, protocol=result.protocol, n=n))
    return rows, results


def test_ablation_speculative_execution(benchmark, scale):
    rows, results = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                                       iterations=1)
    for n in scale.replica_counts:
        poe = results[("poe", n)]
        nospec = results[("poe-nospec", n)]
        # Removing speculation must not improve latency: the extra commit
        # phase adds at least one message delay to the critical path.
        assert poe.avg_latency_ms <= nospec.avg_latency_ms
        # And PoE's throughput should be at least as good as the ablated
        # variant (the extra phase costs CPU and bandwidth as well).
        assert poe.throughput_txn_per_s >= nospec.throughput_txn_per_s * 0.95
    print_results("Ablation — speculative execution (ingredient I1), "
                  "single backup failure", rows)

"""Figure 11: consensus throughput as a function of message delay.

The paper's simulation processes every message send/receive but replaces
computation with a fixed message delay.  Here the engine itself runs it
(no crypto cost, one-transaction batches, client to client), so every row
is measured and none of the assertions compares two typed constants.
Shapes the paper draws, and what the engine shows:

* without out-of-order processing, throughput depends only on the number
  of message delays per decision: doubling the delay halves it and the
  number of replicas does not matter;
* PoE in threshold mode (above 16 replicas) takes exactly PBFT's hops, as
  the paper draws them; in MAC mode it is one hop ahead — the phase
  Appendix A saves;
* HotStuff, allowed the four outstanding requests its chained pipeline
  spans, is ahead of every primary-backup protocol;
* a window of decisions in flight multiplies PoE/PBFT throughput by
  roughly its size.  The paper reports ~200x for 250 decisions; the window
  here is ``NodeConfig.max_in_flight`` = 128, a constant, and reads ~125x
  at n=16.  At n=128 the primary's ``base_processing_ms`` per SUPPORT caps
  it at ~1 decision/ms (47.8x), whatever the window.
"""

import pytest

from repro.bench.report import print_results
from repro.sim.delay_model import FIGURE_11_PROTOCOLS, delay_point, sweep_delays

DELAYS_MS = (10.0, 20.0, 40.0)
REPLICA_COUNTS = (4, 16, 128)
WINDOW = 128
PRIMARY_BACKUP = [name for name in FIGURE_11_PROTOCOLS if name != "hotstuff"]


def run_sequential(decisions):
    return sweep_delays(replica_counts=REPLICA_COUNTS, delays_ms=DELAYS_MS,
                        decisions=decisions)


def window_points(scale):
    """PBFT n=128 with 128 in flight is 172 s a point: paper scale only."""
    points = [("poe", 16), ("pbft", 16), ("poe", 128)]
    if scale.name == "paper":
        points.append(("pbft", 128))
    return points


def run_out_of_order(scale):
    delays = DELAYS_MS if scale.name == "paper" else DELAYS_MS[:1]
    return [(delay_point(protocol, n, delay, scale.delay_decisions),
             delay_point(protocol, n, delay, 8 * WINDOW, window=WINDOW))
            for protocol, n in window_points(scale) for delay in delays]


def test_figure11_sequential_simulation(benchmark, scale):
    results = benchmark.pedantic(run_sequential, args=(scale.delay_decisions,),
                                 rounds=1, iterations=1)
    assert all(r.budget_met for r in results), "unmet batch budget"
    rate = {(r.protocol, r.num_replicas, r.message_delay_ms):
            r.throughput_decisions_per_s for r in results}
    for protocol in FIGURE_11_PROTOCOLS:
        # Doubling the delay halves throughput.  SBFT's 50 ms collector
        # timeout does not scale with the delay and fires at 40 ms a hop.
        tolerance = 0.02 if protocol == "sbft" else 0.005
        for n in REPLICA_COUNTS:
            for delay in DELAYS_MS[:-1]:
                assert rate[protocol, n, delay] == pytest.approx(
                    2 * rate[protocol, n, 2 * delay], rel=tolerance)
    for delay in DELAYS_MS:
        for protocol in ("poe-mac", "pbft", "zyzzyva"):
            # The MAC protocols do not care how many replicas there are.
            assert rate[protocol, 128, delay] == pytest.approx(
                rate[protocol, 4, delay], rel=0.02)
        assert rate["poe", 128, delay] == pytest.approx(
            rate["pbft", 128, delay], rel=0.01)
        for n in REPLICA_COUNTS:
            assert rate["poe-mac", n, delay] >= 1.2 * rate["pbft", n, delay]
            assert rate["hotstuff", n, delay] > max(
                rate[protocol, n, delay] for protocol in PRIMARY_BACKUP)
    print_results("Figure 11 (plots 1-3) — decisions/s, sequential",
                  [r.row() for r in results])


def test_figure11_out_of_order_simulation(benchmark, scale):
    pairs = benchmark.pedantic(run_out_of_order, args=(scale,),
                               rounds=1, iterations=1)
    rows = []
    for sequential, windowed in pairs:
        assert sequential.budget_met and windowed.budget_met, "unmet batch budget"
        speedup = (windowed.throughput_decisions_per_s
                   / sequential.throughput_decisions_per_s)
        if windowed.num_replicas == 16:
            assert WINDOW * 0.9 < speedup < WINDOW
        else:
            assert speedup > 40
        row = dict(windowed.row(), speedup=round(speedup, 1))
        del row["hops"]  # a per-decision reading; the window overlaps them
        rows.append(row)
    print_results(f"Figure 11 (plot 4) — decisions/s, out-of-order window {WINDOW}",
                  rows)

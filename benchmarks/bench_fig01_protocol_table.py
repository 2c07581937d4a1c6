"""Figure 1: comparison of BFT consensus protocols.

Regenerates the paper's protocol-comparison table (phases, messages,
resilience, requirements) from the static metadata attached to each
protocol implementation, and prints beside the typed columns what the
engine counts at n=16: messages per decision on the wire (client request
and replies included) and message delays per decision, client to client.
"""

from repro.bench.report import print_results
from repro.fabric.registry import get_spec
from repro.sim.delay_model import delay_point

#: Order in which the paper's Figure 1 lists the protocols.
FIGURE_1_ORDER = ["zyzzyva", "poe", "pbft", "hotstuff", "sbft"]

#: The table's PoE row describes the linear threshold-signature mode; at
#: n=16 the "poe" key would run MAC mode (257 messages, 4 hops).
MEASURED_AS = {"poe": "poe-ts"}

#: Below ``ClusterConfig.checkpoint_interval``: no checkpoint traffic.
MEASURED_DECISIONS = 40


def figure1_rows():
    rows = []
    for key in FIGURE_1_ORDER:
        info = get_spec(key).info
        measured = delay_point(MEASURED_AS.get(key, key), 16, 10.0,
                               MEASURED_DECISIONS).row()
        assert measured["budget_met"], "unmet batch budget"
        rows.append({
            "protocol": info.name,
            "phases": info.phases,
            "messages": info.messages,
            "resilience": info.resilience,
            "requirements": info.requirements or "-",
            "measured_messages_n16": measured["messages_per_decision"],
            "measured_hops_n16": measured["hops"],
        })
    return rows


def test_figure1_protocol_table(benchmark):
    rows = benchmark.pedantic(figure1_rows, rounds=1, iterations=1)
    assert len(rows) == 5
    by_name = {row["protocol"]: row for row in rows}
    assert by_name["PoE"]["phases"] == 3
    assert by_name["PBFT"]["messages"] == "O(n + 2n^2)"
    assert by_name["Zyzzyva"]["resilience"] == "0"
    print_results("Figure 1 — Comparison of BFT consensus protocols", rows,
                  columns=["protocol", "phases", "messages", "resilience",
                           "requirements", "measured_messages_n16",
                           "measured_hops_n16"])

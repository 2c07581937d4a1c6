"""Figure 11 on the engine: the wire, not a formula, says what a decision costs.

Every reading comes from :func:`repro.sim.delay_model.delay_point`, i.e.
from ``run_experiment`` with no crypto cost and one-transaction batches.
The polynomials below are the *expected traffic*, compared with the count
the network kept; nothing in ``src/`` holds them.
"""

import re
from functools import lru_cache

import pytest

from repro.fabric.registry import get_spec
from repro.sim.delay_model import FIGURE_11_PROTOCOLS, delay_point, sweep_delays

DECISIONS = 40  # below ClusterConfig.checkpoint_interval: no checkpoint traffic
SIZES = (4, 16)

#: protocol -> n -> (messages to or from the client, messages among replicas)
#: per decision.  PoE-TS: request, PROPOSE + SUPPORT + CERTIFY, n replies.
#: PoE-MAC: SUPPORT is all-to-all.  PBFT: PRE-PREPARE, all-to-all PREPARE and
#: COMMIT.  Zyzzyva: ORDER-REQUEST only.  SBFT (measured): four exchanges of
#: n - 1, a commit proof to all n, and one aggregated reply.  HotStuff
#: (measured): clients broadcast; four outstanding requests share five rounds
#: of n - 1 proposals and n votes.
WIRE = {
    "poe-ts": lambda n: (1 + n, 3 * (n - 1)),
    "poe-mac": lambda n: (1 + n, (n - 1) + (n - 1) ** 2),
    "pbft": lambda n: (1 + n, (n - 1) + 2 * n * (n - 1)),
    "zyzzyva": lambda n: (1 + n, n - 1),
    "sbft": lambda n: (2, 5 * (n - 1) + 1),
    "hotstuff": lambda n: (2 * n, 1.25 * (2 * n - 1)),
}


@lru_cache(maxsize=None)
def point(protocol, n, delay_ms=10.0, decisions=DECISIONS, window=1):
    return delay_point(protocol, n, delay_ms, decisions, window)


def rate(protocol, n, delay_ms=10.0, **kwargs):
    return point(protocol, n, delay_ms, **kwargs).throughput_decisions_per_s


def messages_per_decision(protocol, n):
    """Counted between two budgets, so start-up traffic cancels."""
    half, full = point(protocol, n, decisions=DECISIONS // 2), point(protocol, n)
    return (full.messages_sent - half.messages_sent) / (DECISIONS // 2)


def typed_messages(protocol, n):
    """``ProtocolInfo.messages`` ("O(n + 2n^2)") evaluated at *n*."""
    text = get_spec(protocol).info.messages[2:-1].replace("^", "**")
    return eval(re.sub(r"(\d)n", r"\1*n", text), {"n": n})


class TestCountedMessages:
    @pytest.mark.parametrize("protocol", sorted(WIRE))
    def test_counted_traffic_is_the_protocols_exchanges(self, protocol):
        for n in SIZES:
            assert messages_per_decision(protocol, n) == sum(WIRE[protocol](n))

    def test_the_issue_readings_at_sixteen_replicas(self):
        assert [messages_per_decision(p, 16)
                for p in ("poe-ts", "poe-mac", "pbft", "zyzzyva")] == [62, 257, 512, 32]

    @pytest.mark.parametrize("protocol", ["poe-ts", "pbft", "zyzzyva", "sbft"])
    def test_typed_message_column_brackets_replica_traffic(self, protocol):
        """Figure 1's column counts n receivers where the wire has n - 1."""
        for n in SIZES:
            among_replicas = WIRE[protocol](n)[1]
            assert (typed_messages(protocol, n - 1) <= among_replicas
                    <= typed_messages(protocol, n))

    def test_typed_column_describes_neither_mac_mode_nor_the_chained_pipeline(self):
        # PoE's row is its threshold mode: MAC-mode SUPPORT is quadratic.
        assert WIRE["poe-mac"](16)[1] == 5 * typed_messages("poe-mac", 16)
        # HotStuff's O(8n) is eight phases of one decision; chained rounds
        # carry a phase of four decisions each and the wire reads 2.5n.
        assert WIRE["hotstuff"](16)[1] < typed_messages("hotstuff", 16) / 3

    def test_row_reports_counted_traffic_including_checkpoints(self):
        row = point("pbft", 16, decisions=60).row()
        assert row["messages_per_decision"] == 512 + 16 * 15 / 60
        assert (row["protocol"], row["n"], row["ooo_window"]) == ("pbft", 16, 1)


class TestHopsAndScaling:
    @pytest.mark.parametrize("protocol,hops",
                             [("poe-mac", 4), ("pbft", 5), ("zyzzyva", 3)])
    def test_hops_per_decision(self, protocol, hops):
        """Client to client, to within the 10 % jitter on every hop."""
        for n in SIZES:
            assert hops <= point(protocol, n).hops_per_decision <= hops * 1.1

    def test_threshold_mode_poe_takes_pbfts_hops_and_mac_mode_one_fewer(self):
        ts, pbft = point("poe-ts", 16), point("pbft", 16)
        assert ts.hops_per_decision == pytest.approx(pbft.hops_per_decision, rel=0.01)
        assert rate("poe-mac", 16) / rate("pbft", 16) == pytest.approx(5 / 4, rel=0.01)

    @pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "hotstuff"])
    def test_doubling_the_delay_halves_throughput(self, protocol):
        assert rate(protocol, 16, 10.0) / rate(protocol, 16, 20.0) == pytest.approx(
            2.0, rel=0.005)

    @pytest.mark.parametrize("protocol", ["poe-mac", "pbft", "zyzzyva"])
    def test_throughput_is_flat_in_the_number_of_replicas(self, protocol):
        """The MAC protocols; HotStuff drifts 2.2 % between these two sizes."""
        assert rate(protocol, 16) == pytest.approx(rate(protocol, 4), rel=0.02)

    def test_hotstuff_with_four_outstanding_leads_the_primary_backup_protocols(self):
        for protocol in ("poe-mac", "poe-ts", "pbft", "sbft", "zyzzyva"):
            assert rate("hotstuff", 16) > rate(protocol, 16)

    def test_same_seed_readings(self):
        assert round(rate("poe", 16, decisions=60), 2) == 24.11
        assert round(rate("pbft", 4, decisions=60), 2) == 19.46


class TestOutOfOrderWindow:
    @pytest.mark.parametrize("protocol", ["poe-mac", "pbft"])
    def test_window_multiplies_throughput_by_its_size(self, protocol):
        windowed = rate(protocol, 16, decisions=64, window=8)
        assert windowed / rate(protocol, 16) == pytest.approx(8.0, rel=0.01)

    def test_windowed_row_names_its_window(self):
        assert point("pbft", 16, decisions=64, window=8).row()["ooo_window"] == 8


class TestSweep:
    def test_sweep_covers_the_grid_in_figure_order(self):
        results = sweep_delays(protocols=("poe", "pbft"), replica_counts=(4,),
                               delays_ms=(10.0, 20.0), decisions=10)
        assert [(r.num_replicas, r.message_delay_ms, r.protocol) for r in results] == [
            (4, 10.0, "poe"), (4, 10.0, "pbft"), (4, 20.0, "poe"), (4, 20.0, "pbft")]

    def test_figure_protocols_are_registered(self):
        assert len(FIGURE_11_PROTOCOLS) == 6
        for protocol in FIGURE_11_PROTOCOLS:
            assert get_spec(protocol)

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            delay_point("raft", 4, 10.0, decisions=5)

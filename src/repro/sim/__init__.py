"""Message-delay simulation of consensus throughput (paper, Figure 11).

The paper complements its cloud experiments with a simulation that
processes every message send/receive step but replaces computation with a
fixed message delay.  :mod:`repro.sim.delay_model` runs that study on the
engine itself; it holds no model of the protocols.
"""

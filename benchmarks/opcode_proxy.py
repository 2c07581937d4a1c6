"""Bytecode proxy: opcodes and Python calls per workload shape.

A host-independent reading of "how much Python does one run execute":
every poebench workload shape at 1/20 budget, seed 3, is set up and run
under a ``sys.settrace`` tracer with per-opcode events on, and the number
of bytecode instructions and of Python-level calls is printed for each
phase, and for the run phase the Python calls per *executed
replica-batch* (run calls over the sum of every replica's
``executed_batches``): what one batch costs one replica, handlers,
deliveries and client pools included.
Under ``PYTHONHASHSEED=0`` (the script re-executes itself with it) the
counts repeat exactly, so a one-opcode change to a hot path is visible
where wall-clock pairs need a few percent to rise above the host's noise.

    python benchmarks/opcode_proxy.py [WORKLOAD ...]

What it cannot see: anything that happens below the bytecode.  One
``CALL`` is one opcode whether it enters a Python frame, a ``tp_call``
slot (a callable object's ``__call__``), or ``heapq``; a ``heappush``
that sifts ten levels counts like one that sifts none; allocation and
collector work count nothing.  The change that let the run loop step
broadcast entries itself removed a ``__call__`` dispatch and one of two
heap sifts per delivery: this proxy read -0.84 % for it on
``mac_flood_n32`` (7,085,133 -> 7,025,375 run opcodes) where wall-clock
pairs read +3 % to +9 %.  So: use it to find and to confirm
bytecode-level savings and to catch ones lost by accident; let wall-clock
pairs decide anything that changes what the C level does.  CI prints it
(``perf-smoke``); nothing gates on it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Callable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Fixed, not options: counts are comparable only at one budget and seed.
SCALE = 0.05
SEED = 3


def counted(fn: Callable[[], object]) -> Tuple[object, int, int]:
    """Run *fn* under the tracer: ``(result, opcodes, python_calls)``."""
    counts = [0, 0]

    def local(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return local

    def on_call(frame, event, arg):
        counts[1] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, counts[0], counts[1]


def measure(name: str) -> List[Tuple[str, int, int, str]]:
    """``(phase, opcodes, python_calls, calls per executed replica-batch)``
    for set-up and run of one shape."""
    from measure import groups
    from workloads import WORKLOADS, build

    configs = WORKLOADS[name].configs(SEED, SCALE)
    deployments, *setup = counted(lambda: [build(config) for config in configs])
    _, opcodes, calls = counted(
        lambda: [d.run_until_done() for d in deployments])
    executed = sum(replica.executed_batches for d in deployments
                   for group in groups(d) for replica in group.replicas)
    return [("setup", *setup, "-"),
            ("run", opcodes, calls, f"{calls / executed:.1f}")]


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT / "poebench")]
    from workloads import WORKLOADS

    print(f"{'workload':<20}{'phase':<7}{'opcodes':>14}{'python calls':>14}"
          f"{'calls/batch':>13}")
    for name in sys.argv[1:] or WORKLOADS:
        for phase, opcodes, calls, per_batch in measure(name):
            print(f"{name:<20}{phase:<7}{opcodes:>14,}{calls:>14,}"
                  f"{per_batch:>13}", flush=True)


if __name__ == "__main__":
    main()

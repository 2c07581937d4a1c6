"""Bytecode proxy: opcodes, Python calls and retained bytes per workload shape.

A host-independent reading of "how much Python does one run execute, and
how much memory does it keep": every poebench workload shape at 1/20
budget, seed 3, is set up and run under a ``sys.settrace`` tracer with
per-opcode events on, and the number of bytecode instructions and of
Python-level calls is printed for each phase, and for the run phase the
Python calls per *executed replica-batch* (run calls over the sum of every
replica's ``executed_batches``): what one batch costs one replica,
handlers, deliveries and client pools included.  The calls of both phases
are also split by layer, the layers of poebench's ``layers`` module (its
map is read, never changed), so a change that moves them says which layer
gained or lost them.  Under each run row the script also lists the twelve
functions with the most calls per executed replica-batch (unpinned): the
inventory a change to the per-batch path starts from.  At this budget a
client pool draws, hashes and signs every YCSB transaction of the run
while it is set up (its outstanding
batches are all there are), so on ``ycsb_exec_n4`` generation shows in
the set-up calls, not the run's.  A second, untraced pass builds and runs
the shape again under ``tracemalloc`` and prints the bytes the run leaves
allocated per executed replica-batch (traced memory after the run less
after set-up, deployments alive, the collector run both times): what a
ledger block, an execution record, its proof and the client's completion
record hold once the batch is done.
Under ``PYTHONHASHSEED=0`` (the script re-executes itself with it) the
counts repeat exactly, so a one-opcode change to a hot path is visible
where wall-clock pairs need a few percent to rise above the host's noise.
Each row is measured in a fresh interpreter of its own, so a row reads the
same alone as after the others; the untraced pass starts from empty
process-wide memos, as the traced one does.

    python benchmarks/opcode_proxy.py [WORKLOAD ...]

The set-up and run calls, the split of each by layer, the calls per
executed replica-batch and the retained bytes per executed replica-batch
of every row are pinned in the ``opcode_proxy`` table of
``benchmarks/PERF_EXPECTATIONS.json``; the script exits non-zero when any
of them moves, so a change that adds Python to the hot path or memory to a
finished batch updates that table in the same commit and says why.  The counts are exact on one interpreter
minor version only: on another the table is skipped with a message.

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
pairs decide anything that changes what the C level does.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXPECTATIONS = ROOT / "benchmarks" / "PERF_EXPECTATIONS.json"
#: Fixed, not options: counts are comparable only at one budget and seed.
SCALE = 0.05
SEED = 3


def counted(fn: Callable[[], object]
            ) -> Tuple[object, int, int, Dict[str, int], Counter]:
    """Run *fn* under the tracer: ``(result, opcodes, python_calls,
    python calls by layer, python calls by code object)``.  A dataclass's
    generated method, whose code is named after no class, is keyed
    ``(code, class)``.

    A call's layer is its source file's in poebench's ``layers`` map.  A
    call outside ``src/repro`` (the standard library, a dataclass's
    generated ``__init__``) is charged to the layer of the nearest
    ``repro`` frame beneath it, as poebench's roll-up charges built-in time
    to its caller; with none beneath it, to ``other``.
    """
    from layers import _layer_of

    counts = [0, 0]
    by_layer: Counter = Counter()
    by_code: Counter = Counter()
    file_layers: Dict[str, object] = {}

    def layer_of(frame) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = file_layers.get(filename, False)
            if layer is False:
                layer = file_layers[filename] = _layer_of(filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def local(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return local

    def on_call(frame, event, arg):
        counts[1] += 1
        by_layer[layer_of(frame)] += 1
        code = frame.f_code
        if code.co_filename == "<string>" and "self" in frame.f_locals:
            # A dataclass's generated method: name it by its class.
            code = (code, frame.f_locals["self"].__class__)
        by_code[code] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return (result, counts[0], counts[1], dict(sorted(by_layer.items())),
            by_code)


#: How many functions the inventory under each run row names.
TOP_FUNCTIONS = 12


def top_functions(by_code: Counter, executed: int) -> List[Tuple[str, float]]:
    """The :data:`TOP_FUNCTIONS` functions with the most calls per executed
    replica-batch, as ``(module.qualname, calls per batch)``, most first
    (ties by name, so the list repeats exactly)."""
    by_name: Counter = Counter()
    for code, calls in by_code.items():
        if isinstance(code, tuple):
            code, cls = code
            name = f"{cls.__module__.removeprefix('repro.')}.{cls.__qualname__}"
            by_name[f"{name}.{code.co_name}"] += calls
            continue
        path = Path(code.co_filename)
        parts = path.with_suffix("").parts
        module = (".".join(parts[parts.index("repro") + 1:])
                  if "repro" in parts else path.stem)
        by_name[f"{module}.{code.co_qualname}"] += calls
    ranked = sorted(by_name.items(), key=lambda item: (-item[1], item[0]))
    return [(name, calls / executed) for name, calls in ranked[:TOP_FUNCTIONS]]


def clear_memos() -> None:
    """Empty the process-wide memos a run fills."""
    from repro.crypto import threshold
    from repro.crypto.hashing import shared_digest

    shared_digest.cache_clear()
    threshold._field_element.cache_clear()
    threshold._lagrange_coefficients_at_zero.cache_clear()


def executed_batches(deployments) -> int:
    from measure import groups

    return sum(replica.executed_batches for d in deployments
               for group in groups(d) for replica in group.replicas)


def retained_bytes(configs) -> Tuple[int, int]:
    """``(bytes the run leaves allocated, executed replica-batches)``."""
    from workloads import build

    clear_memos()
    gc.collect()
    tracemalloc.start()
    try:
        deployments = [build(config) for config in configs]
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for deployment in deployments:
            deployment.run_until_done()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, executed_batches(deployments)


def measure(name: str) -> Dict[str, object]:
    """Set-up and run counts of one shape, and its pinned numbers."""
    from workloads import WORKLOADS, build

    configs = WORKLOADS[name].configs(SEED, SCALE)
    deployments, setup_opcodes, setup_calls, setup_layer_calls, _ = counted(
        lambda: [build(config) for config in configs])
    _, opcodes, calls, layer_calls, by_code = counted(
        lambda: [d.run_until_done() for d in deployments])
    executed = executed_batches(deployments)
    del deployments
    retained, retained_executed = retained_bytes(configs)
    assert retained_executed == executed, (retained_executed, executed)
    return {"setup": (setup_opcodes, setup_calls), "run": (opcodes, calls),
            "top": top_functions(by_code, executed),
            "pins": {"setup_calls": setup_calls,
                     "setup_layer_calls": setup_layer_calls,
                     "run_calls": calls,
                     "calls_per_batch": round(calls / executed, 1),
                     "retained_bytes_per_batch": round(retained / executed, 1),
                     "layer_calls": layer_calls}}


#: The pins that split a phase's calls by layer, compared layer by layer.
LAYER_SPLITS = ("setup_layer_calls", "layer_calls")


def pin_problems(name: str, pins: Dict[str, object],
                 expected: Dict[str, Dict[str, object]]) -> List[str]:
    pinned = expected.get(name)
    if pinned is None:
        return [f"{name}: no pin recorded, measured {json.dumps(pins)}"]
    problems = [f"{name}: {key} {pins[key]} != pinned {pinned.get(key)}"
                for key in pins
                if key not in LAYER_SPLITS and pins[key] != pinned.get(key)]
    for key in LAYER_SPLITS:
        layers, pinned_layers = pins[key], pinned.get(key, {})
        problems += [f"{name}: {key}[{layer}] {layers.get(layer, 0)} "
                     f"!= pinned {pinned_layers.get(layer, 0)}"
                     for layer in sorted(set(layers) | set(pinned_layers))
                     if layers.get(layer, 0) != pinned_layers.get(layer, 0)]
    return problems


def print_layers(layer_calls: Dict[str, int]) -> None:
    print(textwrap.fill(
        "  ".join(f"{layer}={calls:,}" for layer, calls in layer_calls.items()),
        width=81, initial_indent=" " * 7, subsequent_indent=" " * 7,
        break_on_hyphens=False), flush=True)


def print_top(top: List[Tuple[str, float]]) -> None:
    print(f"{'':7}top {len(top)} functions, calls per executed replica-batch:",
          flush=True)
    for name, per_batch in top:
        print(f"{'':9}{per_batch:>7.2f}  {name}", flush=True)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT / "poebench")]
    from workloads import WORKLOADS

    table = json.loads(EXPECTATIONS.read_text())["opcode_proxy"]
    python = list(sys.version_info[:2])
    checked = python == table["python"]
    print(f"{'workload':<20}{'phase':<7}{'opcodes':>14}{'python calls':>14}"
          f"{'calls/batch':>13}{'bytes/batch':>13}")
    problems: List[str] = []
    names = sys.argv[1:] or list(WORKLOADS)
    # One fresh interpreter per row: nothing an earlier row left in the
    # process (memos, interned strings, lazily built tables) reaches a later
    # one.
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for name, row in zip(names, pool.imap(measure, names)):
            pins = row["pins"]
            print(f"{name:<20}{'setup':<7}{row['setup'][0]:>14,}"
                  f"{row['setup'][1]:>14,}{'-':>13}{'-':>13}")
            print_layers(pins["setup_layer_calls"])
            print(f"{name:<20}{'run':<7}{row['run'][0]:>14,}{row['run'][1]:>14,}"
                  f"{pins['calls_per_batch']:>13.1f}"
                  f"{pins['retained_bytes_per_batch']:>13,.1f}")
            print_layers(pins["layer_calls"])
            print_top(row["top"])
            if checked:
                problems += pin_problems(name, pins, table["rows"])
    if not checked:
        print(f"pins are for Python {'.'.join(map(str, table['python']))}, "
              f"this is {'.'.join(map(str, python))}: not checked")
        return 0
    if problems:
        print(f"moved against {EXPECTATIONS.relative_to(ROOT)}:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"set-up and run calls, their layer splits, calls/batch and "
          f"bytes/batch match "
          f"{EXPECTATIONS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

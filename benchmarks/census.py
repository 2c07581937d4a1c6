"""Census: which definitions in ``src/repro`` does any entry point run,
and which configuration fields does any entry point set?

Every command below that is not a test (the CI jobs' commands, the
examples a user runs, and both passes of each poebench workload) runs in
a fresh interpreter under a call-only tracer, and so does the tier-1
suite.  The census then lists each function or method of ``src/repro``
that no entry point called, with its physical line count and whether a
tier-1 test calls it (a def nested in a listed def is folded into it).
It exits 1 unless every listed def has an entry in :data:`KEPT` with the
reason it stays, so a def that no entry point runs is either cut or
explained.  It does the same for the fields of the deployment config
classes in :data:`CONFIG_CLASSES`: it prints each field with the entry
points that construct its class with the field at a non-default value,
and exits 1 unless every field no entry point sets has an entry in
:data:`KEPT_FIELDS`.  An entry point that exits non-zero does not stop
the census: both tables still print, over what each entry point ran
before it failed, and the census names each failed entry point with its
exit code and output tail and exits 1.

    python benchmarks/census.py

It takes no flags and writes nothing into the tree.  On a 2-core host the
run takes about 15 minutes, two commands at a time (tier-1 and the figure
benches are the long ones).

How it traces: a ``sitecustomize`` module in a temporary directory is put
first on ``PYTHONPATH``, so every interpreter an entry point starts
(poebench's workload children and spawned workers included) installs a
``sys.settrace`` hook that records each called code object and returns
``None``, so no line events are traced.  At exit, and in ``os._exit``
(the parallel driver's forked workers leave through it), it writes the
``(realpath(co_filename), co_firstlineno)`` pairs it saw.
``realpath`` matters: the examples reach ``src`` through
``examples/../src``.  The hook also watches the ``__init__`` that
``dataclasses`` generates (its ``co_filename`` is ``"<string>"``) for the
classes named in ``REPRO_CENSUS_CLASSES``: on its call event it compares
each argument in ``frame.f_locals`` with the field's default and records
the fields that differ.  ``dataclasses.replace`` goes through the same
``__init__``, so it is caught too; an omitted ``default_factory`` field
arrives as dataclasses' ``_HAS_DEFAULT_FACTORY`` sentinel and counts as
not set.  The figure benches run with ``--benchmark-disable``
because pytest-benchmark clears the hook around timed calls.  The opcode
proxy is not an entry point here: it installs its own tracer over the
poebench shapes, which poebench's own two passes already cover.
"""

from __future__ import annotations

import ast
import functools
import glob
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Defs no entry point runs that stay anyway, keyed ``module:qualname``.
#: A def that is deleted must leave this table too (a tier-1 test checks
#: that every key still names a def).
KEPT: Dict[str, str] = {
    "repro.crypto.authenticator:Authenticator.sign":
        "a principal's signature; the validity item signs client requests through it",
    "repro.crypto.authenticator:Authenticator.verify":
        "a principal's check; the validity item verifies client requests through it",
    "repro.crypto.cost:CryptoCostModel.__reduce__":
        "lets a model with a read-only cost mapping pickle and deep-copy; no entry point copies one, a test does",
    "repro.crypto.hashing:_canon_bool":
        "digest()'s encoding of a bool; the injectivity tests pin it",
    "repro.crypto.hashing:_canon_float":
        "digest()'s encoding of a float; the injectivity tests pin it",
    "repro.crypto.hashing:_canon_none":
        "digest()'s encoding of None; the injectivity tests pin it",
    "repro.crypto.hashing:_canon_dict":
        "digest()'s encoding of a dict; the injectivity tests pin it",
    "repro.crypto.hashing:_canonical_bytes_slow":
        "digest()'s fallback for subclasses and custom objects; the injectivity tests pin it",
    "repro.crypto.hashing:_canonical_bytes":
        "one value's canonical bytes, the function the injectivity test is stated over",
    "repro.crypto.mac:MacTag.canonical_bytes":
        "digest()'s encoding of a MAC tag; GOLDEN_BYTES and the injectivity tests pin it",
    "repro.crypto.signatures:HmacSha256.tag":
        "the one-message form SignatureScheme.sign and verify tag through",
    "repro.crypto.signatures:Signature.canonical_bytes":
        "digest()'s encoding of a signature; GOLDEN_BYTES and the injectivity tests pin it",
    "repro.crypto.signatures:SignatureScheme.sign":
        "signs a generic value; the validity item needs it",
    "repro.crypto.signatures:SignatureScheme.verify":
        "verifies a generic value; the validity item needs it",
    "repro.crypto.threshold:SignatureShare.canonical_bytes":
        "digest()'s encoding of a share; the injectivity tests pin it",
    "repro.crypto.threshold:ThresholdSignature.canonical_bytes":
        "digest()'s encoding of a threshold signature; the injectivity tests pin it",
    "repro.crypto.threshold:_lagrange_coefficient_at_zero":
        "the per-index reference the cached Lagrange weights are tested against",
    "repro.crypto.threshold:ThresholdScheme.threshold":
        "the scheme's threshold, which the key-setup tests read back",
    "repro.crypto.threshold:ThresholdScheme.forge_without_quorum":
        "the under-quorum coalition the tests prove can never verify",
    "repro.fabric.audit:SafetyAuditor.check":
        "report() that raises on a violation, what the auditor tests assert with",
    "repro.fabric.audit:ShardedSafetyAuditor.check":
        "report() that raises on a violation, what the sharded tests assert with",
    "repro.fabric.fingerprint:completion_records":
        "the completion rows of run_fingerprint, which the determinism tests pin",
    "repro.fabric.fingerprint:run_fingerprint":
        "the whole-run fingerprint the determinism tests and their golden digests pin",
    "repro.fabric.metrics:RunResult.row":
        "the flat row the package docstring's example prints",
    "repro.fabric.modelcheck:HuntResult.ok":
        "a hunt's verdict, as ExploreResult.ok is an exploration's; tests read it",
    "repro.fabric.modelcheck:write_counterexample":
        "CLI error path: saves an unsafe cell's trace, and no pinned cell is unsafe",
    "repro.fabric.scenarios:unknown_name_message":
        "CLI error path for an unknown cell, protocol or scenario name",
    "repro.ledger.blockchain:Blockchain.__iter__":
        "walks the chain; the ledger tests check its links through it",
    "repro.ledger.store:KeyValueStore.get":
        "point read of the table, what tests read a store through",
    "repro.ledger.store:KeyValueStore.replace_all":
        "installs a transferred real table; no entry point does before the matrix-executes item",
    "repro.ledger.store:KeyValueStore.revert":
        "rolls back real writes, which no entry point does before the matrix-executes item",
    "repro.ledger.store:result_digest":
        "one transaction's result_digests, what GOLDEN_BYTES and the fixed-shape tests state",
    "repro.net.byzantine:MessageDelayer.rewrite":
        "network-boundary behaviour outside the matrix's scenarios; tests and goldens run it",
    "repro.net.byzantine:MessageReplayer.__init__":
        "network-boundary behaviour outside the matrix's scenarios; tests and goldens run it",
    "repro.net.byzantine:MessageReplayer.transform":
        "network-boundary behaviour outside the matrix's scenarios; tests and goldens run it",
    "repro.net.byzantine:StaleCertifier.__init__":
        "network-boundary behaviour outside the matrix's scenarios; tests and goldens run it",
    "repro.net.byzantine:StaleCertifier.bind":
        "network-boundary behaviour outside the matrix's scenarios; tests and goldens run it",
    "repro.net.byzantine:StaleCertifier.rewrite":
        "network-boundary behaviour outside the matrix's scenarios; tests and goldens run it",
    "repro.net.byzantine:ForgedHistoryReplica._forged_commit_certificate":
        "the forged Zyzzyva certificate of the forge-certificates key, which tests run",
    "repro.net.conditions:FrozenDict.__hash__":
        "what lets conditions holding a topology hash; no entry point hashes one, a test does",
    "repro.net.conditions:FrozenDict.__reduce__":
        "lets a topology pickle and deep-copy as it did with plain dicts; no entry point copies one, a test does",
    "repro.net.conditions:FrozenDict._refuse":
        "refuses an in-place edit of a topology's mappings; no entry point tries one, a test does",
    "repro.net.conditions:LatencyTopology.min_latency_ms":
        "the lookahead under a topology; no sharded entry point sets one, a property test pins it",
    "repro.net.faults:FaultSchedule.crashed_nodes":
        "the crash set at a time, the oracle of the fault-schedule property test",
    "repro.net.network:SimNetwork.node":
        "a registered node by id, which tests read replicas back through",
    "repro.net.network:SimNetwork.crash":
        "tests crash a running network through it",
    "repro.net.simulator:Timer.active":
        "whether a timer is still pending; the simulator tests read it",
    "repro.net.simulator:Simulator.step":
        "runs one event, for the tests that read the heap between events",
    "repro.net.transport:AsyncTransport.node":
        "net/transport.py goes whole in the re-baseline PR (poebench pins the module set)",
    "repro.net.transport:AsyncTransport._arm_timer.<locals>.fire":
        "net/transport.py goes whole in the re-baseline PR (poebench pins the module set)",
    "repro.protocols.base:StepOutput.sends":
        "filters a step's actions for the 35 test sites that read them",
    "repro.protocols.base:StepOutput.broadcasts":
        "filters a step's actions for the test sites that read them",
    "repro.protocols.base:StepOutput.timers":
        "filters a step's actions for the test sites that read them",
    "repro.protocols.base:Node.on_message":
        "abstract hook every node implements",
    "repro.protocols.base:Node.on_timer":
        "hook a subclass overrides; no protocol leaves it to the base",
    "repro.protocols.batching:Batcher.__init__":
        "no replica builds it; batching.py goes in the re-baseline PR",
    "repro.protocols.batching:Batcher.__len__":
        "no replica builds it; batching.py goes in the re-baseline PR",
    "repro.protocols.batching:Batcher.add_transactions":
        "no replica builds it; batching.py goes in the re-baseline PR",
    "repro.protocols.batching:Batcher.flush":
        "no replica builds it; batching.py goes in the re-baseline PR",
    "repro.protocols.batching:Batcher._pop_batch":
        "no replica builds it; batching.py goes in the re-baseline PR",
    "repro.protocols.hotstuff:HotStuffReplica.create_proposal":
        "guard: closes the base per-batch proposal path, since HotStuff proposes per round",
    "repro.protocols.hotstuff:HotStuffReplica.maybe_propose":
        "guard: closes the base proposal queue, since certificates drive HotStuff's proposals",
    "repro.protocols.quorum:_Voters.__bool__":
        "an empty voter set is false, which tests rely on",
    "repro.protocols.quorum:QuorumProof.__setattr__":
        "keeps a proof immutable; a test asserts the raise",
    "repro.protocols.quorum:QuorumProof.__eq__":
        "value equality of two proofs, which tests compare",
    "repro.protocols.quorum:QuorumProof.__hash__":
        "hash consistent with __eq__",
    "repro.protocols.quorum:build_index_map":
        "the dense voter-index map tests build vote sets over",
    "repro.protocols.recovery:PrimaryBackupReplica.new_slot":
        "abstract hook every recovery protocol implements",
    "repro.protocols.recovery:PrimaryBackupReplica.view_change_entry_valid":
        "hook a subclass overrides; no protocol leaves it to the base",
    "repro.protocols.recovery:PrimaryBackupReplica.adopt_new_view":
        "abstract hook every recovery protocol implements",
    "repro.protocols.replica_base:BatchingReplica.create_proposal":
        "abstract hook every batching protocol implements",
    "repro.protocols.replica_base:BatchingReplica.on_progress_timeout":
        "hook a subclass overrides; no protocol leaves it to the base",
    "repro.protocols.replica_base:BatchingReplica.on_protocol_timer":
        "hook a subclass overrides; no protocol leaves it to the base",
    "repro.workload.clients:_PoolBase._submit":
        "abstract hook both client pools implement",
    "repro.workload.clients:_PoolBase.on_request_timeout":
        "abstract hook both client pools implement",
    "repro.workload.clients:ClientPool.on_other_message":
        "hook for protocol-specific client messages; no run sends a pool one",
    "repro.workload.transactions:Operation.canonical_bytes":
        "an operation's bytes, which transaction_digests writes inline; GOLDEN_BYTES pins it",
    "repro.workload.transactions:Transaction.canonical_bytes":
        "digest()'s encoding of a transaction; the injectivity tests pin it",
    "repro.workload.transactions:RequestBatch.canonical_bytes":
        "digest()'s encoding of a batch; the injectivity tests pin it",
}

#: The deployment config classes whose fields the census lists.
CONFIG_CLASSES: Tuple[str, ...] = (
    "repro.fabric.cluster:ClusterConfig",
    "repro.fabric.sharding:ShardedClusterConfig",
    "repro.fabric.modelcheck:ModelCheckConfig",
    "repro.protocols.base:NodeConfig",
    "repro.workload.ycsb:YcsbConfig",
    "repro.net.conditions:NetworkConditions",
)

#: Config fields no entry point sets that stay anyway, keyed
#: ``module:Class.field``.  A field that is cut must leave this table too.
KEPT_FIELDS: Dict[str, str] = {
    "repro.fabric.sharding:ShardedClusterConfig.num_replicas":
        "replicas per shard; fault_matrix.py --replicas sets it and the sharded tests vary it",
    "repro.fabric.modelcheck:ModelCheckConfig.max_depth":
        "check() caps it to minimise a violation, which no pinned cell has; a test does",
    "repro.fabric.modelcheck:ModelCheckConfig.expect_stall":
        "marks a cell that crashes more than f replicas; the stall test sets it",
    "repro.workload.ycsb:YcsbConfig.write_fraction":
        "the YCSB mix (paper: 90 % writes); the workload tests vary it",
    "repro.workload.ycsb:YcsbConfig.zipf_theta":
        "the Zipfian skew (paper: 0.9); the workload tests vary it",
}

_SITECUSTOMIZE = '''
import dataclasses, os, sys, threading

def _install(out=os.environ.get("REPRO_CENSUS_OUT"),
             classes=os.environ.get("REPRO_CENSUS_CLASSES", "")):
    if not out:
        return
    seen = set()
    add = seen.add
    wanted = set(classes.split(",")) - {""}
    inits = {}  # code of a "<string>" function -> (class key, fields) or None
    miss = object()
    fields_set = set()

    def target(frame):
        """(key, fields) if *frame* runs the generated __init__ of a wanted class."""
        code = frame.f_code
        if code.co_name != "__init__" or not code.co_varnames:
            return None
        owner = frame.f_locals.get(code.co_varnames[0])
        for cls in type(owner).__mro__:
            if getattr(cls.__dict__.get("__init__"), "__code__", None) is code:
                key = f"{cls.__module__}:{cls.__qualname__}"
                if key in wanted:
                    return key, dataclasses.fields(cls)
                return None
        return None

    def record(frame, key, fields):
        args = frame.f_locals
        for field in fields:
            if field.name not in args:
                continue
            value = args[field.name]
            if value is dataclasses._HAS_DEFAULT_FACTORY:
                continue
            if field.default_factory is not dataclasses.MISSING:
                default = field.default_factory()
            else:
                default = field.default
            try:
                same = value is default or bool(value == default)
            except Exception:
                same = False
            if not same:
                fields_set.add(f"{key}.{field.name}")

    def tracer(frame, event, arg):
        code = frame.f_code
        add(code)
        if code.co_filename == "<string>":
            found = inits.get(code, miss)
            if found is miss:
                found = inits[code] = target(frame)
            if found is not None:
                record(frame, *found)

    def dump():
        sys.settrace(None)
        threading.settrace(None)
        realpath = os.path.realpath
        lines = {f"{realpath(code.co_filename)}\\t{code.co_firstlineno}\\n"
                 for code in list(seen)}
        with open(os.path.join(out, f"{os.getpid()}.txt"), "a") as handle:
            handle.writelines(lines)
        with open(os.path.join(out, f"{os.getpid()}.fields"), "a") as handle:
            handle.writelines(f"{name}\\n" for name in sorted(fields_set))
        seen.clear()
        fields_set.clear()

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    import atexit
    atexit.register(dump)
    os._exit = exit_after_dump
    sys.settrace(tracer)
    threading.settrace(tracer)

_install()
'''

#: The CI soak job's summary step, verbatim.
_SOAK_SUMMARY = """
from repro.fabric.scenarios import BY_DESIGN_GROWTH, MATRIX_PROTOCOLS, run_soak
for protocol in MATRIX_PROTOCOLS:
    run_soak(protocol, "no-fault", steps=50).tracked_names()
for name, reason in BY_DESIGN_GROWTH.items():
    print(name, reason)
"""

_POEBENCH_WORKLOADS = ("mac_flood_n32", "ts_linear_n32", "ycsb_exec_n4",
                       "primary_crash_n16", "xshard_2sh_x20",
                       "six_protocols_n16")


def entry_points(scratch: str) -> Dict[str, List[List[str]]]:
    """Each entry point's argument lists, run in order by one worker."""
    out = functools.partial(os.path.join, scratch)
    demo = out("revert_demo.counterexample.json")
    figures = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "bench_fig*.py")))
    points: Dict[str, List[List[str]]] = {
        f"examples/{name}.py": [[f"examples/{name}.py"]]
        for name in ("quickstart", "ycsb_blockchain", "byzantine_primary",
                     "protocol_comparison", "sharded_cluster",
                     "live_asyncio_cluster")
    }
    points.update({
        "fault matrix": [["examples/fault_matrix.py", "--json",
                          out("matrix.json"), "--expected",
                          "MATRIX_EXPECTATIONS.json"]],
        "model check": [
            ["examples/model_check.py", "--json", out("mck.json"),
             "--expected", "MCK_EXPECTATIONS.json"],
            ["examples/model_check.py", "--revert-demo", "--out", demo],
            ["examples/model_check.py", "--replay", demo, "--reverted-fix"],
            ["examples/model_check.py", "--replay", demo],
        ],
        "parallel smoke": [["-m", "repro.fabric.parallel", "--shards", "2,4",
                            "--seeds", "3,7", "--json", out("parallel.json")]],
        "perf smoke": [["benchmarks/bench_perf_fabric.py", "--check-events",
                        "benchmarks/PERF_EXPECTATIONS.json"]],
        "soak": [["-m", "pytest", "tests/test_soak.py", "-q", "-p",
                  "no:cacheprovider"], ["-c", _SOAK_SUMMARY]],
        "figures": [["-m", "pytest", *figures,
                     "benchmarks/bench_ablation_speculation.py", "-q",
                     "-p", "no:cacheprovider", "--benchmark-disable",
                     "--json", out("figures.json"), "--expected",
                     "benchmarks/FIGURE_EXPECTATIONS.json"]],
    })
    for workload in _POEBENCH_WORKLOADS:
        points[f"poebench {workload}"] = [
            ["poebench/run.py", "--workload", workload, "--seconds", "1",
             "--trace", trace, "--out", out("poebench")]
            for trace in ("0", "1")]
    return points


def _trace(name: str, commands: List[List[str]], boot: str, scratch: str
           ) -> Tuple[str, Tuple[Set[Tuple[str, int]], Set[str], Optional[str]]]:
    """Run *commands* under the tracer, stopping at the first that exits
    non-zero: the (file, first line) pairs seen, the config fields set at
    a non-default value, and the failure (its command, exit code and
    output tail), ``None`` when every command ran clean."""
    dump = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, REPRO_CENSUS_OUT=dump,
               REPRO_CENSUS_CLASSES=",".join(CONFIG_CLASSES),
               PYTHONPATH=os.pathsep.join([boot, SRC]))
    failure = None
    for argv in commands:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            failure = (f"{' '.join(argv[:3])} exited {done.returncode}\n"
                       f"{done.stdout[-2000:]}")
            break
    seen: Set[Tuple[str, int]] = set()
    for path in glob.glob(os.path.join(dump, "*.txt")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                filename, first = line.rstrip("\n").split("\t")
                if filename.startswith(PACKAGE + os.sep):
                    seen.add((filename, int(first)))
    fields: Set[str] = set()
    for path in glob.glob(os.path.join(dump, "*.fields")):
        with open(path, encoding="utf-8") as handle:
            fields.update(handle.read().split())
    return name, (seen, fields, failure)


# ------------------------------------------------------------------- defs
def _first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of a def: its first decorator's line, if any."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def iter_defs() -> Iterator[Tuple[str, str, int, int, List[Tuple[str, int]]]]:
    """Every def under ``src/repro``: (key, file, first line, lines, nested).

    *key* is ``module:qualname`` with the interpreter's qualname spelling
    (``outer.<locals>.inner``); *nested* holds the (file, first line) of
    the defs inside this one, so a listed def folds in its inner defs.
    """
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        path = os.path.realpath(path)
        module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
        module = module.removesuffix(".__init__")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        yield from _walk(tree, module, path, "")


def _walk(node: ast.AST, module: str, path: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            nested = [(path, _first_line(inner)) for inner in ast.walk(child)
                      if inner is not child and isinstance(
                          inner, (ast.FunctionDef, ast.AsyncFunctionDef))]
            first = _first_line(child)
            yield (f"{module}:{qualname}", path, first,
                   child.end_lineno - first + 1, nested)
            yield from _walk(child, module, path, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, module, path, prefix + child.name + ".")
        else:
            yield from _walk(child, module, path, prefix)


def unreached(reached: Set[Tuple[str, int]], tested: Set[Tuple[str, int]]
              ) -> List[Tuple[str, int, bool]]:
    """(key, lines, a test calls it) of each outermost def never reached."""
    rows: List[Tuple[str, int, bool]] = []
    folded: Set[Tuple[str, int]] = set()
    for key, path, first, lines, nested in iter_defs():
        if (path, first) in reached or (path, first) in folded:
            continue
        folded.update(nested)
        rows.append((key, lines, (path, first) in tested))
    return rows


# ----------------------------------------------------------------- fields
def iter_fields() -> Iterator[str]:
    """``module:Class.field`` of every field of :data:`CONFIG_CLASSES`."""
    import dataclasses
    import importlib

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for key in CONFIG_CLASSES:
        module, name = key.split(":")
        cls = getattr(importlib.import_module(module), name)
        for field in dataclasses.fields(cls):
            yield f"{key}.{field.name}"


def field_count() -> int:
    """Field definitions across :data:`CONFIG_CLASSES` (CI prints it)."""
    return sum(1 for _ in iter_fields())


def option_count() -> int:
    """Settable behaviour options: the parameters of every factory in
    ``repro.net.byzantine.BEHAVIORS`` (CI prints it)."""
    import inspect

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.net.byzantine import BEHAVIORS

    return sum(len(inspect.signature(factory).parameters)
               for factory in BEHAVIORS.values())


def _longest_first(item: Tuple[str, List[List[str]]]) -> int:
    """Start tier-1 and the figure benches first so the pool drains evenly."""
    return {"tier-1": 0, "figures": 1}.get(item[0], 2)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        boot = os.path.join(scratch, "boot")
        os.mkdir(boot)
        with open(os.path.join(boot, "sitecustomize.py"), "w",
                  encoding="utf-8") as handle:
            handle.write(_SITECUSTOMIZE)
        jobs = entry_points(scratch)
        jobs["tier-1"] = [["-m", "pytest", "-q", "-p", "no:cacheprovider"]]
        with ThreadPoolExecutor(max_workers=2) as pool:
            traced = dict(pool.map(lambda item: _trace(*item, boot, scratch),
                                   sorted(jobs.items(), key=_longest_first)))
    failed = {name: failure for name, (_defs, _fields, failure) in traced.items()
              if failure is not None}
    tested, tested_fields, _failure = traced.pop("tier-1")
    reached = set().union(*(defs for defs, _fields, _failure in traced.values()))
    rows = unreached(reached, tested)
    total_defs = sum(1 for _ in iter_defs())
    print(f"{len(traced)} entry points; {total_defs} defs in src/repro; "
          f"{len(rows)} reached by no entry point "
          f"({sum(lines for _, lines, _ in rows)} lines)")
    print(f"{'def':70s} {'lines':>5s}  {'tests':5s}  kept because")
    missing = 0
    for key, lines, by_test in rows:
        reason = KEPT.get(key)
        missing += reason is None
        print(f"{key:70s} {lines:5d}  {'yes' if by_test else 'no':5s}  "
              f"{reason or '-- NOT KEPT: cut it or give a reason --'}")
    listed = {key for key, _, _ in rows}
    for key in sorted(set(KEPT) - listed):
        print(f"note: KEPT names {key}, which an entry point now runs")
    print(f"{missing} listed def(s) without a KEPT reason")

    set_by: Dict[str, List[str]] = {}
    for name, (_defs, set_here, _failure) in sorted(traced.items()):
        for key in set_here:
            set_by.setdefault(key, []).append(name)
    fields = [(key, set_by.get(key, []), key in tested_fields)
              for key in iter_fields()]
    unset = [key for key, names, _ in fields if not names]
    print(f"\n{len(fields)} fields in {len(CONFIG_CLASSES)} config classes; "
          f"{len(unset)} set by no entry point")
    print(f"{'field':66s} {'set by':>6s}  {'tests':5s}  entry points, or kept because")
    missing_fields = 0
    for key, names, by_test in fields:
        if names:
            note = ", ".join(names)
        else:
            note = KEPT_FIELDS.get(key) or "-- NOT KEPT: cut it or give a reason --"
            missing_fields += key not in KEPT_FIELDS
        print(f"{key:66s} {len(names):6d}  {'yes' if by_test else 'no':5s}  {note}")
    for key in sorted(set(KEPT_FIELDS) - set(unset)):
        print(f"note: KEPT_FIELDS names {key}, which an entry point now sets")
    print(f"{missing_fields} unset field(s) without a KEPT_FIELDS reason")
    for name, failure in sorted(failed.items()):
        print(f"\nFAILED {name}: {failure}")
    if failed:
        print(f"{len(failed)} entry point(s) failed; the tables count what "
              f"each ran before its failure")
    return 1 if missing or missing_fields or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

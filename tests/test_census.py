"""The census's ``KEPT`` table, its def index, its tracer and its verdict.

``benchmarks/census.py`` lists every def in ``src/repro`` that no entry
point runs and fails unless ``KEPT`` gives it a reason to stay.  A def
that is deleted must leave the table too, or the table fills with reasons
for code that is gone.  The census matches the tracer's
``(realpath(co_filename), co_firstlineno)`` records against the defs it
reads from the source, so these tests pin that the two sides spell a def
the same way.  None of them runs an entry point.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_CENSUS = os.path.join(_ROOT, "benchmarks", "census.py")


def _census():
    spec = importlib.util.spec_from_file_location("census", _CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def census():
    return _census()


def test_every_kept_key_names_a_def():
    census = _census()
    defs = {key for key, *_rest in census.iter_defs()}
    assert set(census.KEPT) <= defs, sorted(set(census.KEPT) - defs)


def test_every_kept_reason_is_one_line():
    for key, reason in _census().KEPT.items():
        assert reason.strip() and "\n" not in reason, key


# ------------------------------------------------------------- def index
def _functions(value):
    """The plain functions behind a class attribute or module global."""
    if isinstance(value, property):
        values = [value.fget, value.fset, value.fdel]
    elif isinstance(value, (staticmethod, classmethod)):
        values = [value.__func__]
    else:
        values = [value]
    found = []
    for value in values:
        while hasattr(value, "__wrapped__"):
            found.append(value)
            value = value.__wrapped__
        found.append(value)
    return [value for value in found if inspect.isfunction(value)]


def test_defs_are_keyed_as_the_interpreter_names_them(census):
    checked = 0
    for key, path, first, _lines, _nested in census.iter_defs():
        module_name, qualname = key.split(":")
        if "<locals>" in qualname:
            continue
        owner = importlib.import_module(module_name)
        *classes, name = qualname.split(".")
        for part in classes:
            owner = vars(owner)[part]
        functions = _functions(vars(owner).get(name))
        assert any((os.path.realpath(f.__code__.co_filename),
                    f.__code__.co_firstlineno, f.__qualname__)
                   == (path, first, qualname) for f in functions), key
        checked += 1
    assert checked > 500


def test_the_walk_finds_every_function_code_object_of_a_module(census):
    source = textwrap.dedent('''
        import functools

        def plain():
            def inner():
                return lambda: None
            return inner

        class Box:
            @property
            def size(self):
                return 1

            @size.setter
            def size(self, value):
                pass

            @staticmethod
            @functools.lru_cache(maxsize=None)
            def cached(x):
                return x

            class Inner:
                async def method(self):
                    def helper():
                        pass
                    return helper
        ''')
    found = {(key, first) for key, _path, first, _lines, _nested in
             census._walk(ast.parse(source), "m", "m.py", "")}

    compiled = set()
    pending = [compile(source, "m.py", "exec")]
    while pending:
        code = pending.pop()
        pending.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_name != "<lambda>":
            compiled.add((f"m:{code.co_qualname}", code.co_firstlineno))
    assert found == compiled
    assert ("m:Box.size", 10) in found and ("m:Box.size", 14) in found
    assert ("m:Box.cached", 18) in found


def test_a_def_records_its_nested_defs_and_its_length(census):
    source = "def outer():\n    def inner():\n        pass\n    return inner\n"
    rows = list(census._walk(ast.parse(source), "m", "m.py", ""))
    assert rows[0] == ("m:outer", "m.py", 1, 4, [("m.py", 2)])
    assert rows[1] == ("m:outer.<locals>.inner", "m.py", 2, 2, [])


# -------------------------------------------------------------- unreached
_DEFS = [
    ("m:outer", "f", 1, 10, [("f", 2)]),
    ("m:outer.<locals>.inner", "f", 2, 3, []),
    ("m:tested", "f", 20, 4, []),
    ("m:hit", "f", 30, 5, [("f", 31)]),
    ("m:hit.<locals>.miss", "f", 31, 2, []),
]


def test_an_unreached_def_folds_in_the_defs_it_holds(census, monkeypatch):
    monkeypatch.setattr(census, "iter_defs", lambda: iter(_DEFS))
    rows = census.unreached({("f", 20), ("f", 30), ("f", 31)}, set())
    assert rows == [("m:outer", 10, False)]


def test_a_reached_def_leaves_its_unreached_inner_def_listed(census, monkeypatch):
    monkeypatch.setattr(census, "iter_defs", lambda: iter(_DEFS))
    rows = census.unreached({("f", 1), ("f", 2), ("f", 20), ("f", 30)}, set())
    assert rows == [("m:hit.<locals>.miss", 2, False)]


def test_a_def_only_a_test_calls_is_marked(census, monkeypatch):
    monkeypatch.setattr(census, "iter_defs", lambda: iter(_DEFS))
    rows = census.unreached({("f", 1), ("f", 2), ("f", 30), ("f", 31)},
                            {("f", 20)})
    assert rows == [("m:tested", 4, True)]


# ----------------------------------------------------------------- tracer
def _run_traced(tmp_path, census, body):
    """Run *body* under the census tracer; the dumped (file, line) pairs."""
    boot = tmp_path / "boot"
    boot.mkdir()
    (boot / "sitecustomize.py").write_text(census._SITECUSTOMIZE)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def called():\n    return 1\n\n\ndef never():\n    return 2\n")
    dump = tmp_path / "dump"
    dump.mkdir()
    # Reach the module through "pkg/../pkg", as the examples reach src.
    detour = os.path.join(str(package), "..", "pkg")
    script = f"import sys; sys.path.insert(0, {detour!r}); import mod; {body}"
    env = dict(os.environ, REPRO_CENSUS_OUT=str(dump), PYTHONPATH=str(boot))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    seen = set()
    for path in dump.iterdir():
        for line in path.read_text().splitlines():
            filename, first = line.split("\t")
            seen.add((filename, int(first)))
    return done, seen, os.path.realpath(package / "mod.py")


def test_the_tracer_records_called_defs_at_exit(census, tmp_path):
    done, seen, mod = _run_traced(tmp_path, census, "mod.called()")
    assert done.returncode == 0, done.stderr
    assert (mod, 1) in seen and (mod, 5) not in seen


def test_the_tracer_records_before_os_exit(census, tmp_path):
    done, seen, mod = _run_traced(
        tmp_path, census, "mod.called(); import os; os._exit(3)")
    assert done.returncode == 3, done.stderr
    assert (mod, 1) in seen and (mod, 5) not in seen


# ---------------------------------------------------------------- verdict
def _fake_trace(reached):
    def trace(name, commands, boot, scratch):
        return name, set(reached)
    return trace


def test_census_passes_when_every_def_is_reached(census, monkeypatch, capsys):
    every = {(path, first) for _key, path, first, *_ in census.iter_defs()}
    monkeypatch.setattr(census, "_trace", _fake_trace(every))
    assert census.main() == 0
    out = capsys.readouterr().out
    assert "0 reached by no entry point" in out
    assert ("note: KEPT names repro.fabric.scenarios:unknown_name_message"
            in out)


def test_census_fails_on_an_unreached_def_without_a_reason(
        census, monkeypatch, capsys):
    defs = list(census.iter_defs())
    key, path, first, _lines, _nested = next(
        row for row in defs if row[0] not in census.KEPT)
    every = {(p, f) for _key, p, f, *_ in defs}
    monkeypatch.setattr(census, "_trace", _fake_trace(every - {(path, first)}))
    assert census.main() == 1
    out = capsys.readouterr().out
    assert key in out and "NOT KEPT" in out
    assert "1 listed def(s) without a KEPT reason" in out


# ------------------------------------------------------------ entry points
def test_entry_points_name_files_that_exist_and_the_benchmark_workloads(
        census, tmp_path):
    scratch = str(tmp_path)
    points = census.entry_points(scratch)
    for name, commands in points.items():
        for argv in commands:
            for arg in argv:
                if arg.endswith((".py", ".json")) and not arg.startswith(scratch):
                    assert os.path.exists(os.path.join(_ROOT, arg)), (name, arg)
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    assert list(census._POEBENCH_WORKLOADS) == workloads
    assert points["perf smoke"] == [[
        "benchmarks/bench_perf_fabric.py", "--check-events",
        "benchmarks/PERF_EXPECTATIONS.json"]]

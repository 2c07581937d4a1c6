"""``benchmarks/opcode_proxy.py --write``: the bytecode proxy writes its own pins.

The ``opcode_proxy`` table of ``benchmarks/PERF_EXPECTATIONS.json`` is laid
out by hand-kept rules (a run of scalars on one line, a layer split a
layer per line); ``--write`` must keep that layout, so that a re-pin's diff
shows only the numbers that moved.  On an unchanged tree it leaves the file
byte-identical, which also says that every pin matches the tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import opcode_proxy  # noqa: E402


def test_the_table_renders_in_the_files_own_layout():
    text = opcode_proxy.EXPECTATIONS.read_text()
    table = json.loads(text)["opcode_proxy"]
    assert text.endswith(opcode_proxy.render_table(table) + "\n}\n")


@pytest.mark.skipif(
    list(sys.version_info[:2])
    != json.loads(opcode_proxy.EXPECTATIONS.read_text())["opcode_proxy"]["python"],
    reason="the opcode_proxy pins are exact on one interpreter minor version")
def test_write_on_an_unchanged_tree_leaves_the_file_byte_identical(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
    for tree in ("src", "poebench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=ignore)
    (tmp_path / "benchmarks").mkdir()
    for name in ("opcode_proxy.py", "PERF_EXPECTATIONS.json"):
        shutil.copy(ROOT / "benchmarks" / name, tmp_path / "benchmarks" / name)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "opcode_proxy.py"), "--write"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    assert "0 pins moved" in done.stdout.splitlines()[-1]
    written = (tmp_path / "benchmarks" / "PERF_EXPECTATIONS.json").read_bytes()
    assert written == opcode_proxy.EXPECTATIONS.read_bytes()

"""The benchmark reaches into the library by name: its span recorder
(``perfbench/traced.py``) wraps functions by (module, attribute), and
``perfbench/run.py`` and ``perfbench/recognize_targets.py`` import names from
``padic_rama``.  A refactor that drops or renames one of them must fail here,
not only under ``perfbench/run.py``."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACED = PERFBENCH / "traced.py"
IMPORTERS = [PERFBENCH / "run.py", PERFBENCH / "recognize_targets.py"]


def _wrappers():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines WRAPPERS; installs nothing
    return module.WRAPPERS


def _imported_names():
    """(module, name) for every ``from padic_rama... import name`` in the
    benchmark scripts, read without running them."""
    return sorted({
        (node.module, alias.name)
        for path in IMPORTERS
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "padic_rama"
        for alias in node.names
    })


@pytest.mark.parametrize("module, attribute",
                         sorted({(w[0], w[1]) for w in _wrappers()}))
def test_wrapped_name_resolves(module, attribute):
    mod = importlib.import_module(f"padic_rama.{module}")
    assert callable(getattr(mod, attribute, None)), f"padic_rama.{module}.{attribute}"


def test_import_reader_finds_the_benchmark_imports():
    assert ("padic_rama.cli", "parse_series") in _imported_names()


@pytest.mark.parametrize("module, name", _imported_names())
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


# (name, parent index) of every span, in start order.
PARSE = [("cli.parse", None)] * 2
SPAN_TREES = {
    "expand --spec eq2 --verify eq3-claims --prec 512": [
        *PARSE, *PARSE,
        ("expansion.verify_expansion", None),
        ("expansion.shifted_expansion", 4),
        *[("constants.constant_value", 4)] * 3,
    ],
    "expand --spec eq2 --order 3 --prec 256": [
        *PARSE, ("expansion.shifted_expansion", None),
    ],
    "sum-check --spec eq6 --prec 256": [*PARSE, ("series.numeric_sum", None)],
    "sum-check --spec eq2 --prec 128": [
        *PARSE, ("series.numeric_sum", None), ("constants.constant_value", None),
    ],
}


@pytest.mark.parametrize("command, tree", SPAN_TREES.items(), ids=SPAN_TREES.keys())
def test_traced_span_tree(command, tree, tmp_path):
    """The recorder's wrappers on ``cli.shifted_expansion`` and the other
    names the CLI binds on first use are the ones the drivers call: binding
    them must not replace a wrapper installed before ``main`` runs."""
    spans = tmp_path / "spans.jsonl"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced.py"), str(spans),
                           "cli", *command.split()], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = spans.read_text().splitlines()
    assert [(s["name"], s["parent"]) for s in map(json.loads, lines)] == tree

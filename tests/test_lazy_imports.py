"""The p-adic half loads nothing of the archimedean half: a fresh
``congruence``, ``fit`` or ``scan`` process, and a bare ``import padic_rama``,
never import mpmath, ``padic_rama.expansion`` or ``padic_rama.lattice``, nor
``dataclasses`` or ``inspect``, whose import costs more than the package's own
modules (no module of the package imports ``dataclasses``).  The modules a
process imports are read from its ``-X importtime`` report, so each command
runs exactly as ``python -m padic_rama.cli`` runs it.  The names the package
exports, some of them loaded on first use, must all still resolve.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import padic_rama

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "padic_rama" / "__init__.py"
ARCHIMEDEAN = {"mpmath", "padic_rama.expansion", "padic_rama.lattice"}
SLOW_STDLIB = {"dataclasses", "inspect"}

CONGRUENCE = ["congruence", "--spec", "eq2", "--template", "eq5", "--primes", "5..60"]
P_ADIC_COMMANDS = {
    "congruence-json": [*CONGRUENCE, "--format", "json"],
    "congruence-text": [*CONGRUENCE, "--format", "text"],
    "congruence-csv": [*CONGRUENCE, "--format", "csv"],
    "fit": ["fit", "--spec", "eq9", "--template", "eq11-unknowns", "--primes", "7..199"],
    "scan": ["scan", "--spec", "eq6", "--template", "eq8", "--primes", "5..120",
             "--candidates", "zeta_p:5,one"],
}


def _imports(*argv: str) -> tuple[int, set]:
    """Exit code and imported module names of ``python -X importtime ARGV``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


@pytest.mark.parametrize("args", P_ADIC_COMMANDS.values(), ids=P_ADIC_COMMANDS.keys())
def test_p_adic_command_loads_no_archimedean_module(args):
    code, names = _imports("-m", "padic_rama.cli", *args)
    assert code == 0
    assert "padic_rama.congruence" in names
    assert not names & ARCHIMEDEAN
    assert not names & SLOW_STDLIB


def test_bare_package_import_loads_no_archimedean_module():
    code, names = _imports("-c", "import padic_rama")
    assert code == 0
    assert "padic_rama.series" in names
    assert not names & ARCHIMEDEAN
    assert not names & SLOW_STDLIB


def test_importtime_reader_sees_the_archimedean_modules():
    code, names = _imports("-m", "padic_rama.cli", "sum-check", "--spec", "eq2")
    assert code == 0
    assert "mpmath" in names


def test_importtime_reader_sees_dataclasses():
    code, names = _imports("-c", "import dataclasses")
    assert code == 0
    assert SLOW_STDLIB <= names


def test_no_module_imports_dataclasses():
    modules = sorted(INIT.parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in imported, path.name


def _init_exports() -> list:
    """Every name ``padic_rama/__init__.py`` imports from its modules, those
    loaded on first use included."""
    return sorted({alias.name for node in ast.walk(ast.parse(INIT.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module for alias in node.names})


def _readme_imports() -> list:
    """(module, name) for every import of the README's Library example."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return sorted({(node.module, alias.name) for node in ast.walk(ast.parse(block))
                   if isinstance(node, ast.ImportFrom)
                   and node.module.split(".")[0] == "padic_rama"
                   for alias in node.names})


def test_export_reader_finds_the_lazy_names():
    assert {"shifted_expansion", "recognize", "verify_congruence"} <= set(_init_exports())


@pytest.mark.parametrize("name", _init_exports())
def test_package_export_resolves(name):
    assert getattr(padic_rama, name, None) is not None, f"padic_rama.{name}"


@pytest.mark.parametrize("module, name", _readme_imports())
def test_readme_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        padic_rama.no_such_name  # noqa: B018

"""The benchmark's golden outputs, replayed in process: every ``golden=True``
command of ``perfbench/run.py``'s workloads is run through ``cli.main`` from
the repository root, and its standard output and exit code must match
``perfbench/golden/<name>.json``.  The benchmark compares the same bytes, but
only when it runs; this keeps a change that alters them from passing the
tests.  ``run.py`` is loaded, not run: it builds the command lists and
starts nothing."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from padic_rama.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _golden_commands():
    name = "perfbench_run"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    # a golden command's arguments do not depend on the seed
    return [cmd for build in module.WORKLOADS.values()
            for cmd in build(random.Random(0)) if cmd.golden]


GOLDEN_COMMANDS = _golden_commands()


def test_every_golden_command_is_replayed():
    assert len(GOLDEN_COMMANDS) == len(list((PERFBENCH / "golden").glob("*.json")))
    assert all(cmd.program == "cli" for cmd in GOLDEN_COMMANDS)


@pytest.mark.parametrize("cmd", GOLDEN_COMMANDS, ids=lambda cmd: cmd.name)
def test_perfbench_golden(cmd, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # fixture paths such as perfbench/fixtures/... are relative
    code = main(cmd.args)
    out = capsys.readouterr().out
    assert code == cmd.expect_exit
    assert out.encode() == (PERFBENCH / "golden" / f"{cmd.name}.json").read_bytes()

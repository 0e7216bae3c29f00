"""Golden outputs: the README's CLI commands (as ``--format json``), a scan
that reaches the ``found`` outcome, and the fit/scan demos, each run in a
fresh interpreter and compared byte for byte with ``tests/golden/``.

Regenerate the files (only when an output change is intended) with

    python tests/test_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit-codes.json"


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "padic_rama.cli", *args, "--format", "json"]


CASES = {
    "sum-check-eq2": _cli("sum-check", "--spec", "eq2", "--prec", "128"),
    "expand-eq2-eq3-claims": _cli("expand", "--spec", "eq2", "--order", "5",
                                  "--prec", "256", "--verify", "eq3-claims"),
    "congruence-eq2-eq5": _cli("congruence", "--spec", "eq2", "--template", "eq5",
                               "--primes", "5..199"),
    "fit-eq9-eq11-unknowns": _cli("fit", "--spec", "eq9", "--template",
                                  "eq11-unknowns", "--primes", "7..199"),
    "scan-eq6-eq8": _cli("scan", "--spec", "eq6", "--template", "eq8",
                         "--primes", "5..120", "--candidates", "zeta_p:5,one"),
    "scan-eq6-seed-7": _cli("scan", "--spec", "eq6", "--template",
                            "tests/fixtures/seed-7.json", "--primes", "5..120",
                            "--max-power", "5", "--candidates", "zeta_p:3,zeta_p:5,one"),
    "demo-04": [sys.executable, "demos/04_fitting_unknown_coefficients.py"],
    "demo-05": [sys.executable, "demos/05_probing_past_the_modulus.py"],
}


def _run(name: str) -> tuple[bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(CASES[name], cwd=ROOT, env=env, capture_output=True,
                          timeout=300)
    return proc.stdout, proc.returncode


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    stdout, code = _run(name)
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        out, codes[case] = _run(case)
        (GOLDEN / f"{case}.out").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")

"""Golden outputs: the README's CLI commands (as ``--format json`` and as
``--format text``), a scan that reaches the ``found`` outcome, a csv report,
a report written with ``--output``, a sum-check at 4096 bits and the demos,
each run in a fresh interpreter and compared byte for byte with
``tests/golden/``.  An ``OUTPUT`` argument is replaced by a temporary file
whose bytes are compared after the command's standard output.

Regenerate the files (only when an output change is intended) with

    python tests/test_golden.py [NAME...]

which rewrites the named cases and their ``exit-codes.json`` entries, or
every case when no name is given.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit-codes.json"
OUTPUT = "{output}"


def _cli(*args: str, fmt: str = "json") -> list[str]:
    return [sys.executable, "-m", "padic_rama.cli", *args, "--format", fmt]


README = {
    "sum-check-eq2": ("sum-check", "--spec", "eq2", "--prec", "128"),
    "expand-eq2-eq3-claims": ("expand", "--spec", "eq2", "--order", "5",
                              "--prec", "256", "--verify", "eq3-claims"),
    "congruence-eq2-eq5": ("congruence", "--spec", "eq2", "--template", "eq5",
                           "--primes", "5..199"),
    "fit-eq9-eq11-unknowns": ("fit", "--spec", "eq9", "--template",
                              "eq11-unknowns", "--primes", "7..199"),
    "scan-eq6-eq8": ("scan", "--spec", "eq6", "--template", "eq8",
                     "--primes", "5..120", "--candidates", "zeta_p:5,one"),
    "scan-eq6-seed-7": ("scan", "--spec", "eq6", "--template",
                        "tests/fixtures/seed-7.json", "--primes", "5..120",
                        "--max-power", "5", "--candidates", "zeta_p:3,zeta_p:5,one"),
}

CASES = {
    **{name: _cli(*args) for name, args in README.items()},
    **{f"{name}-text": _cli(*args, fmt="text") for name, args in README.items()},
    "congruence-eq6-eq8-csv": _cli("congruence", "--spec", "eq6", "--template",
                                   "eq8", "--primes", "5..60", fmt="csv"),
    "expand-eq6-order3-output": _cli("expand", "--spec", "eq6", "--order", "3",
                                     "--prec", "128", "--output", OUTPUT,
                                     fmt="text"),
    "sum-check-eq9-4096": _cli("sum-check", "--spec", "eq9", "--prec", "4096"),
    "demo-01": [sys.executable, "demos/01_truncated_sums_mod_prime_powers.py"],
    "demo-02": [sys.executable, "demos/02_series_and_their_closed_forms.py"],
    "demo-03": [sys.executable, "demos/03_shift_expansion_and_recognition.py"],
    "demo-04": [sys.executable, "demos/04_fitting_unknown_coefficients.py"],
    "demo-05": [sys.executable, "demos/05_probing_past_the_modulus.py"],
}


def _run(name: str) -> tuple[bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report"
        argv = [str(report) if a == OUTPUT else a for a in CASES[name]]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=300)
        written = report.read_bytes() if report.exists() else b""
    return proc.stdout + written, proc.returncode


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    stdout, code = _run(name)
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text()) if sys.argv[1:] else {}
    for case in names:
        out, codes[case] = _run(case)
        (GOLDEN / f"{case}.out").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")

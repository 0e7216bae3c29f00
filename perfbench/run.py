"""Benchmark of the padic-rama command line on three workloads.

    python3 perfbench/run.py --workload congruence-dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src``.  One closed-loop client runs the workload's commands one
at a time, each in a fresh Python process, and times every pass from outside.
``--trace 1`` alternates untraced passes with passes under ``traced.py`` and
reports per-layer metrics instead of end-to-end ones.  Every output is
checked; the last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
EQ5_HEAD = "perfbench/fixtures/eq5-head.json"
RUN_LIMIT = 165  # seconds for the set-up and all passes of one run
SETUP_REPEATS = 15

# Also prints where the CLI was imported from, so the benchmark can tell that
# the children run the checkout's source and not some installed copy, and the
# mpmath backend they use.
SETUP_PROBE = (
    "import json, sys, mpmath, padic_rama.cli as c\n"
    "for kind, name in zip(sys.argv[1::2], sys.argv[2::2]):\n"
    "    getattr(c, 'parse_' + kind)(c.resolve_input(name))\n"
    "print(json.dumps({'cli': c.__file__, 'mpmath': mpmath.__version__,\n"
    "                  'mpmath_backend': mpmath.libmp.BACKEND}))\n"
)


# ---------------------------------------------------------------------------
# commands and their checks

Check = Callable[[object], list]


@dataclass
class Command:
    name: str
    program: str  # "cli" (python -m padic_rama.cli) or "recognize"
    args: list
    expect_exit: int = 0
    golden: bool = False  # stdout must equal golden/<name>.json byte for byte
    check: Optional[Check] = None  # independent checks on the parsed output

    def argv(self, spans: Optional[str] = None) -> list:
        if spans is not None:
            return [sys.executable, str(HERE / "traced.py"), spans, self.program, *self.args]
        if self.program == "cli":
            return [sys.executable, "-m", "padic_rama.cli", *self.args]
        return [sys.executable, str(HERE / "recognize_targets.py"), *self.args]

    def fixtures(self) -> list:
        """(kind, name) pairs for the setup probe: the files this command parses."""
        kinds = {"--spec": "series", "--template": "template", "--verify": "claims"}
        return [(kinds[flag], value) for flag, value in zip(self.args, self.args[1:])
                if flag in kinds]


@cache
def exact_lhs(spec_name: str, tpl_name: str, p: int) -> int:
    """The congruence left side by the independent route: the exact Fraction
    sum reduced once modulo p^M."""
    from padic_rama.cli import parse_series, parse_template, resolve_input
    from padic_rama.exactnum import reduce_rational
    from padic_rama.series import truncated_sum_exact

    spec = parse_series(resolve_input(spec_name))
    tpl = parse_template(resolve_input(tpl_name))
    M = tpl.modulus_power
    return reduce_rational(truncated_sum_exact(spec.scaled(tpl.scale), p), p, M).residue(M)


def _expect_primes(out: dict, key: Callable, expected: Optional[list]) -> list:
    got = sorted(key(out))
    if expected is not None and got != expected:
        return [f"primes {got[:3]}..{got[-3:]} ({len(got)}), expected {len(expected)} "
                f"from {expected[0]} to {expected[-1]}"]
    return []


def _every_row_passes(counts: dict, n: int, what: str) -> list:
    """A skipped row (bad prime, precision unavailable) is not a pass."""
    want = {"pass": n, "fail": 0, "skip": 0}
    return [] if counts == want else [f"{what} counts {counts}, expected {want}"]


def congruence_check(spec: str, tpl: str, picks: list, expected: Optional[list]) -> Check:
    """Rows cover the expected primes and every one is computed and passes;
    lhs at the picked rows matches the exact sum."""
    def check(out):
        errors = _expect_primes(out, lambda o: [r["p"] for r in o["rows"]], expected)
        if expected is not None:
            errors += _every_row_passes(out["counts"], len(expected), "row")
        rows = [r for r in out["rows"] if r["lhs"] is not None]
        for pick in picks if rows else []:
            row = rows[int(pick * len(rows))]
            if row["lhs"] != exact_lhs(spec, tpl, row["p"]):
                errors.append(f"lhs at p={row['p']} differs from the exact sum")
        return errors
    return check


@cache
def known_counts(spec_name: str, tpl_name: str, primes: tuple) -> dict:
    """Row counts of the known template over the given primes, computed in
    this process."""
    from padic_rama.cli import parse_series, parse_template, resolve_input
    from padic_rama.congruence import verify_congruence

    spec = parse_series(resolve_input(spec_name))
    return verify_congruence(spec, parse_template(resolve_input(tpl_name)), primes).counts


def fit_check(spec: str, known: str, coefficients: list, expected: Optional[list]) -> Check:
    """The fit recovers the known coefficients, and its held-out check passes
    with every held-out row computed: `held_out_pass` alone would also be true
    if the rows were skipped, so the known template is checked over the
    held-out primes here."""
    def check(out):
        errors = _expect_primes(out, lambda o: o["fit_primes"] + o["held_out_primes"],
                                expected)
        if out["coefficients"] != coefficients:
            errors.append(f"fit gave {out['coefficients']}, expected {coefficients}")
        if out["held_out_pass"] is not True:
            errors.append("held-out check failed")
        held_out = tuple(out["held_out_primes"])
        errors += _every_row_passes(known_counts(spec, known, held_out), len(held_out),
                                    "held-out")
        return errors
    return check


def relations_check(expected: list) -> Check:
    def check(out):
        return [] if out == expected else [f"recognize gave {out}, expected {expected}"]
    return check


def cli(name, args, **kw) -> Command:
    return Command(name, "cli", [*args, "--format", "json"], **kw)


def congruence(rng, spec, tpl, lo, hi, expected=None, expect_exit=0) -> Command:
    picks = [rng.random() for _ in range(1 if expected else 2)]
    return cli(f"congruence-{spec}-{Path(tpl).stem}",
               ["congruence", "--spec", spec, "--template", tpl, "--primes", f"{lo}..{hi}"],
               expect_exit=expect_exit, golden=expected is None,
               check=congruence_check(spec, tpl, picks, expected))


def fit(spec, tpl, lo, hi, coefficients, expected=None) -> Command:
    """Fit `tpl` (`<known>-unknowns`) on `spec`; `known` has the coefficients filled in."""
    known = tpl.removesuffix("-unknowns")
    return cli(f"fit-{spec}-{tpl}",
               ["fit", "--spec", spec, "--template", tpl, "--primes", f"{lo}..{hi}"],
               golden=expected is None, check=fit_check(spec, known, coefficients, expected))


# ---------------------------------------------------------------------------
# workloads


def congruence_dense(rng: random.Random) -> list:
    """Many small primes: fixed fixture commands with golden outputs; the seed
    picks the rows checked against the exact sum."""
    cmds = [congruence(rng, s, t, 5, 450) for s, t in
            [("eq2", "eq5"), ("eq6", "eq8"), ("eq9", "eq11"), ("gourevitch", "eq14"),
             ("eq15", "eq16")]]
    # the paper's recorded discrepancy: the eq12 slot fails, so exit 1
    cmds.append(congruence(rng, "eq9", "eq12", 5, 199, expect_exit=1))
    cmds.append(fit("eq9", "eq11-unknowns", 7, 199, ["29", "-35/216"]))
    cmds.append(fit("eq2", "eq5-unknowns", 5, 300, ["1", "-7/2"]))
    cmds.append(congruence(rng, "eq2", EQ5_HEAD, 5, 300))
    cmds.append(cli("scan-eq2-eq5-head",
                    ["scan", "--spec", "eq2", "--template", EQ5_HEAD, "--primes", "5..300",
                     "--candidates", "zeta_p:3,one"], golden=True))
    return cmds


WINDOW_BAND = 30  # seeded shift of each window's start


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _window(rng: random.Random, start: int, count: int) -> list:
    """The first `count` primes from a seeded start in [start, start + band)."""
    n = start + rng.randrange(WINDOW_BAND)
    primes = []
    while len(primes) < count:
        if _is_prime(n):
            primes.append(n)
        n += 1
    return primes


def digits_high(rng: random.Random) -> list:
    """Narrow windows of large primes.  Each window keeps its width as a
    count of primes, so every seed does the same amount of work."""
    cmds = []
    for spec, tpl, start, count in [("eq2", "eq5", 2000, 14), ("eq9", "eq11", 1500, 12),
                                    ("eq15", "eq16", 1000, 16)]:
        ps = _window(rng, start, count)
        cmds.append(congruence(rng, spec, tpl, ps[0], ps[-1], expected=ps))
    ps = _window(rng, 1000, 28)
    cmds.append(fit("gourevitch", "eq14-unknowns", ps[0], ps[-1], ["1", "-6"], expected=ps))
    return cmds


CONSTANTS = ["Zeta(2)", "Zeta(3)", "PiPower(2)", "Lquad(5,2)", "Lquad(-4,1)"]
TARGET_SIZES = (4, 3, 3)
NONZERO = [a for a in range(-30, 31) if a]


def archimedean(rng: random.Random) -> list:
    """The mpmath half: claims checks, a deep expansion, a long numeric sum,
    and recognition of seeded constant combinations."""
    cmds = [cli(f"expand-{spec}-{claims}",
                ["expand", "--spec", spec, "--verify", claims, "--prec", "512"], golden=True)
            for spec, claims in [("eq2", "eq3-claims"), ("eq6", "eq7-claims"),
                                 ("eq9", "eq10-claims"), ("gourevitch", "eq13-claims"),
                                 ("eq15", "eq15x-claims")]]
    cmds.append(cli("expand-eq6-order8",
                    ["expand", "--spec", "eq6", "--order", "8", "--prec", "1024"], golden=True))
    cmds.append(cli("sum-check-eq6", ["sum-check", "--spec", "eq6", "--prec", "8192"],
                    golden=True))
    targets, expected = [], []
    for size in TARGET_SIZES:
        basis = rng.sample(CONSTANTS, size)
        q, a = rng.randint(1, 12), [rng.choice(NONZERO) for _ in basis]
        g = math.gcd(q, *a)
        q, a = q // g, [x // g for x in a]
        targets.append({"basis": basis, "q": q, "a": a, "bits": 512})
        expected.append([q, a])
    cmds.append(Command("recognize", "recognize", [json.dumps(targets)],
                        check=relations_check(expected)))
    return cmds


WORKLOADS = {
    "congruence-dense": congruence_dense,
    "digits-high": digits_high,
    "archimedean": archimedean,
}


# ---------------------------------------------------------------------------
# running


@dataclass
class Outcome:
    code: Optional[int]  # None when the command timed out
    stdout: bytes
    stderr: bytes
    spans: Optional[str]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("PADIC_RAMA_THREADS", None)  # the CLI default: one thread
    return env


def _timeout(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(commands: list, env: dict, deadline: float, spans_dir: Optional[Path] = None):
    """Run every command once, in order, each in a fresh process; returns the
    pass wall time, the children's CPU time and the outcomes.  A command
    still running at the deadline is killed and counts as failed."""
    outcomes = []
    start, cpu_start = time.perf_counter(), _children_cpu_s()
    for i, cmd in enumerate(commands):
        spans = None if spans_dir is None else str(spans_dir / f"{i}.jsonl")
        try:
            proc = subprocess.run(cmd.argv(spans), cwd=ROOT, env=env, capture_output=True,
                                  timeout=_timeout(deadline))
            outcomes.append(Outcome(proc.returncode, proc.stdout, proc.stderr, spans))
        except subprocess.TimeoutExpired as exc:
            outcomes.append(Outcome(None, exc.stdout or b"", b"timed out", spans))
    return time.perf_counter() - start, _children_cpu_s() - cpu_start, outcomes


def verify(cmd: Command, out: Outcome) -> list:
    """Reasons the command's result is wrong; empty when it is right."""
    if out.code != cmd.expect_exit:
        tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit {out.code}, expected {cmd.expect_exit} {tail}"]
    errors = []
    if cmd.golden and out.stdout != (GOLDEN / f"{cmd.name}.json").read_bytes():
        errors.append("output differs from the golden file")
    if cmd.check is not None:
        try:
            errors += cmd.check(json.loads(out.stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"unreadable output ({exc!r})")
    return errors


def prime_rows(out: Outcome) -> int:
    """Rows of admissible primes the command checked."""
    try:
        data = json.loads(out.stdout)
    except ValueError:
        return 0
    command = data.get("command") if isinstance(data, dict) else None
    if command == "congruence":
        return len(data["rows"])
    if command == "fit":
        return len(data["fit_primes"]) + len(data["held_out_primes"])
    if command == "scan":
        return len(data["digits"])
    return 0


def measure_setup(commands: list, env: dict, deadline: float) -> tuple:
    """Wall times of fresh interpreters that import the CLI and parse the
    workload's fixtures, and what the first, unmeasured probe (which also
    fills the bytecode cache) reports about the children's imports."""
    fixtures = sorted({f for cmd in commands for f in cmd.fixtures()})
    argv = [sys.executable, "-c", SETUP_PROBE, *[x for pair in fixtures for x in pair]]
    probe = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                           timeout=_timeout(deadline), check=True)
    imports = json.loads(probe.stdout)
    module = Path(imports.pop("cli")).resolve()
    if SRC.resolve() not in module.parents:
        raise SystemExit(f"padic_rama was imported from {module}, not from {SRC}")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                       timeout=_timeout(deadline), check=True)
        times.append(time.perf_counter() - start)
    return times, imports


# ---------------------------------------------------------------------------
# trace aggregation


def _load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_totals(span_files: list) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only) and self seconds (duration minus the direct children), plus the
    counters the wrappers recorded."""
    t: dict = {"top_s": 0.0, "processes": len(span_files)}

    def add(key, value):
        t[key] = t.get(key, 0) + value

    for path in span_files:
        spans = _load_spans(path)
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", dur - child_s[i])
            parent, nested = s["parent"], False
            while parent is not None and not nested:
                nested = spans[parent]["name"] == name
                parent = spans[parent]["parent"]
            if not nested:
                add(f"{name}.s", dur)
            if s["parent"] is None and name != "cli.parse":  # parsing is in setup_s
                t["top_s"] += dur
            for key in ("terms", "pass", "fail", "skip"):
                if key in s:
                    add(f"{name}.{key}", s[key])
            if s.get("hit"):
                add(f"{name}.hits", 1)
            if "modulus_bits" in s:
                t["crt_modulus_bits"] = max(t.get("crt_modulus_bits", 0), s["modulus_bits"])
            if name == "expansion.shifted_expansion" and s["parent"] is not None \
                    and spans[s["parent"]]["name"] == "expansion.verify_expansion":
                add("escalations", 1)
        add("escalations", -sum(1 for s in spans if s["name"] == "expansion.verify_expansion"))
    return t


def layer_metrics(t: dict, traced_s: float, setup_s: float) -> dict:
    """The per-layer metrics of one traced pass, each as (value, unit)."""
    def g(key):
        return float(t.get(key, 0))

    def ratio(num, den):
        return g(num) / g(den) if g(den) else 0.0

    tsm, bern, const = ("series.truncated_sum_mod", "lfunctions.bernoulli_all_mod_p",
                        "constants.constant_value")
    seconds = {name: (g(name), "s") for name in [
        f"{tsm}.s", f"{bern}.s", "lfunctions.zeta_p_mod_p.self_s",
        "lfunctions.L_p_mod_p.self_s", "congruence.template_rhs_mod.self_s",
        "congruence.verify_congruence.self_s", "congruence.fit_unknowns.self_s",
        "congruence.scan_next_term.self_s", "exactnum.crt_combine.s",
        "exactnum.rational_reconstruct.s", "cli.parse.s", "cli.admissible_primes.s",
        "exactnum.primes_in_range.s", "series.numeric_sum.s", f"{const}.s",
        "expansion.shifted_expansion.s", "expansion.recognize.self_s",
        "lattice.lll_reduce.s"]}
    counts = {name: (g(name), "count") for name in [
        f"{tsm}.calls", f"{tsm}.terms", f"{bern}.calls",
        "exactnum.rational_reconstruct.calls", "expansion.shifted_expansion.calls",
        "lattice.lll_reduce.calls"]}
    return {
        **seconds,
        **counts,
        f"{tsm}.s_per_kterm": (1000 * ratio(f"{tsm}.s", f"{tsm}.terms"), "s/kterm"),
        f"{bern}.hit_ratio": (ratio(f"{bern}.hits", f"{bern}.calls"), "ratio"),
        f"{const}.hit_ratio": (ratio(f"{const}.hits", f"{const}.calls"), "ratio"),
        **{f"congruence.rows.{k}": (g(f"congruence.verify_congruence.{k}"), "count")
           for k in ("pass", "fail", "skip")},
        "exactnum.crt_modulus_bits": (g("crt_modulus_bits"), "bits"),
        "expansion.verify_expansion.escalations": (g("escalations"), "count"),
        "trace.coverage": ((g("top_s") + g("processes") * setup_s) / traced_s, "ratio"),
    }


# ---------------------------------------------------------------------------
# one run


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    facts = {"workload": workload, "seed": seed, "trace": int(trace),
             "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "loadavg": os.getloadavg()}
    deadline = time.monotonic() + RUN_LIMIT
    commands = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    env = child_env()
    setup, imports = measure_setup(commands, env, deadline)
    setup_s = statistics.median(setup)
    print("machine " + json.dumps({**facts, **imports}), flush=True)

    # Outputs are checked only after the last pass: the checks import the
    # library and grow this process, and a child's max-RSS counts the pages
    # it shared with this process before exec.
    untraced, traced = [], []  # (seconds, CPU seconds, outcomes) per pass
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        start, rounds = time.perf_counter(), 0
        # A round is one pass, or an untraced and a traced pass.  Start another
        # only if, at the mean round time so far, it ends within `seconds`.
        while rounds == 0 or ((time.perf_counter() - start) * (rounds + 1) / rounds <= seconds
                              and time.monotonic() < deadline):
            rounds += 1
            untraced.append(run_pass(commands, env, deadline))
            if trace:
                spans_dir = Path(tmp) / str(rounds)
                spans_dir.mkdir()
                traced.append(run_pass(commands, env, deadline, spans_dir))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        layers = [layer_metrics(layer_totals([o.spans for o in outcomes
                                              if os.path.exists(o.spans)]), elapsed, setup_s)
                  for elapsed, _, outcomes in traced]

    attempted, failures = 0, []
    reference = untraced[0][2]
    passes = [(False, p) for p in untraced] + [(True, p) for p in traced]
    for is_traced, (_, _, outcomes) in passes:
        for cmd, out, ref in zip(commands, outcomes, reference):
            attempted += 1
            errors = verify(cmd, out)
            if is_traced and (out.code, out.stdout) != (ref.code, ref.stdout):
                errors.append("traced output differs from the untraced output")
            if errors:
                failures.append(f"{cmd.name}: {'; '.join(errors)}")

    q1, run_s, q3 = quartiles([elapsed for elapsed, _, _ in untraced])
    rows = sum(prime_rows(o) for o in reference)
    report = [
        ("run_s", run_s, "s", f"median of {len(untraced)} passes, q1 {q1:.4f}, q3 {q3:.4f}"),
        ("setup_s", setup_s, "s", f"median of {len(setup)} fresh interpreters"),
        ("peak_rss_mb", peak_rss_mb, "MB", "largest child max-RSS"),
        ("cpu_run_s", statistics.median(cpu for _, cpu, _ in untraced), "s",
         "children's CPU time in a pass, median"),
        ("fail_frac", len(failures) / attempted, "ratio",
         f"{len(failures)} of {attempted} commands"),
    ]
    if rows:
        report.append(("primes_per_s", rows / run_s, "1/s", f"{rows} prime rows per pass"))
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in report[:3]}
    if trace:
        tq1, traced_s, tq3 = quartiles([elapsed for elapsed, _, _ in traced])
        metrics = {name: {"value": statistics.median(m[name][0] for m in layers),
                          "unit": unit} for name, (_, unit) in layers[0].items()}
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - run_s, "unit": "s"}
        report.append(("trace.run_s", traced_s, "s",
                       f"median of {len(traced)} traced passes, q1 {tq1:.4f}, q3 {tq3:.4f}"))
        report.append(("trace.overhead_s", traced_s - run_s, "s", "traced minus untraced"))
    for name, value, unit, note in report:
        print(f"{name:<16} {value:>12.4f} {unit:<5} {note}")
    if trace:
        for name, m in sorted(metrics.items()):
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for failure in failures:
        print(f"FAILED {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in turn, each in its own benchmark process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {workload}\n" + "\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            raise SystemExit(f"{workload}: benchmark exited {proc.returncode}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "padic_rama" / "cli.py").is_file():
        print(f"error: no padic-rama source at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # fixture names such as EQ5_HEAD are relative to the checkout
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

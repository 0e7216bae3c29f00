import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_rama import admissible_primes, cli, congruence
from padic_rama.cli import (
    EXIT_MATH_FAIL,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    _candidates,
    main,
    parse_prime_range,
    parse_series,
    parse_template,
    resolve_input,
    serialize_template,
)
from padic_rama.congruence import Kron, LQp, ZetaP, constant_mod_p
from padic_rama.constants import ONE
from padic_rama.errors import InvariantViolation, SchemaError
from padic_rama.exactnum import primes_in_range

FIXDIR = Path(resolve_input("eq2")).parent

SERIES_FIXTURES = ["eq2", "eq6", "eq9", "gourevitch", "eq15"]
TEMPLATE_FIXTURES = ["eq5", "eq8", "eq11", "eq12", "eq14", "eq16",
                     "eq5-unknowns", "eq8-unknowns", "eq11-unknowns",
                     "eq14-unknowns", "eq16-unknowns"]


def _series_json(spec) -> dict:
    """The file form of a parsed series: the inverse of ``parse_series``."""
    return {
        "name": spec.name,
        "upper": [str(a) for a in spec.upper],
        "lower": [str(b) for b in spec.lower],
        "sign": spec.sign,
        "base": str(spec.base),
        "poly": [str(c) for c in spec.poly],
        "denom_linear": None if spec.denom_linear is None
        else [str(x) for x in spec.denom_linear],
        "multiplier": str(spec.multiplier),
        "rhs": {
            "coefficient": str(spec.rhs.coefficient),
            "sqrt_disc": spec.rhs.sqrt_disc,
            "pi_exponent": spec.rhs.pi_exponent,
        },
    }


class TestParsing:
    @pytest.mark.parametrize("name", SERIES_FIXTURES)
    def test_series_round_trip(self, name):
        path = resolve_input(name)
        original = json.loads(Path(path).read_text())
        assert _series_json(parse_series(path)) == original

    @pytest.mark.parametrize("name", TEMPLATE_FIXTURES)
    def test_template_round_trip(self, name):
        path = resolve_input(name)
        original = json.loads(Path(path).read_text())
        got = serialize_template(parse_template(path), name=original.get("name", ""))
        assert got == original

    def test_base_above_one_rejected(self, tmp_path):
        data = json.loads((FIXDIR / "eq2.json").read_text())
        data["base"] = "5/4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation):
            parse_series(bad)

    def test_duplicate_exponents_rejected(self, tmp_path):
        data = json.loads((FIXDIR / "eq5.json").read_text())
        data["terms"][1]["exponent"] = data["terms"][0]["exponent"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation):
            parse_template(bad)

    def test_missing_field_names_it(self, tmp_path):
        data = json.loads((FIXDIR / "eq2.json").read_text())
        del data["base"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="base"):
            parse_series(bad)

    @pytest.mark.parametrize("key", ["upper", "lower", "poly"])
    def test_series_lists_are_bounded(self, tmp_path, key):
        data = json.loads((FIXDIR / "eq2.json").read_text())
        data.update(upper=["1/2"] * 32, lower=["1"] * 32, poly=["1"] * 32)
        longest = tmp_path / "longest.json"
        longest.write_text(json.dumps(data))
        assert len(parse_series(longest).poly) == 32
        data[key].append(data[key][-1])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError,
                           match=f"^bad.json:{key} must have at most 32 entries, got 33$"):
            parse_series(bad)

    # only "num" and "num/den" with an optional sign: Fraction() itself would
    # take a decimal or an exponent, and spend seconds expanding 1e4000000
    @pytest.mark.parametrize("value", ["one half", "1e4000000", "0.5", "1_000", " 1/2",
                                       "1/-2", "9" * 4301, "1/0"],
                             ids=lambda v: v if len(v) < 20 else f"{len(v)} digits")
    def test_bad_rational_diagnosed(self, tmp_path, value):
        data = json.loads((FIXDIR / "eq2.json").read_text())
        data["multiplier"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="multiplier"):
            parse_series(bad)

    # json reads a number past CPython's 4300-digit limit with a ValueError,
    # which argparse printed as an "invalid value" usage error, and nesting
    # past the recursion limit with a RecursionError, which escaped main
    @pytest.mark.parametrize("value, message", [
        ("-1" + "0" * 5000, "4300 digits"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
    ], ids=["5001 digits", "nested 100000 deep"])
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, value, message):
        text = (FIXDIR / "eq2.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"sign": -1', f'"sign": {value}'))
        assert main(["sum-check", "--spec", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err
        assert err.count("\n") == 1

    def test_resolve_literal_and_fixture(self, tmp_path):
        assert Path(resolve_input("eq2")).name == "eq2.json"
        assert Path(resolve_input("eq2.json")).name == "eq2.json"
        local = tmp_path / "mine.json"
        local.write_text("{}")
        assert resolve_input(str(local)) == local
        with pytest.raises(FileNotFoundError):
            resolve_input("no-such-fixture")

    def test_prime_range(self):
        assert parse_prime_range("5..199") == (5, 199)
        with pytest.raises(SchemaError):
            parse_prime_range("5-199")


class TestAdmissiblePrimes:
    def test_eq9_exclusions(self, series, templates):
        primes = admissible_primes(series["eq9"], templates["eq12"],
                                   primes_in_range(5, 40))
        assert primes == [7, 11, 13, 17, 19, 23, 29, 31, 37]  # no 5 (80^3)

    def test_eq15_excludes_23(self, series, templates):
        primes = admissible_primes(series["eq15"], templates["eq16"],
                                   primes_in_range(5, 60))
        assert 23 not in primes
        assert 2 not in primes and 3 not in primes  # scale 529/3, params /8

    def test_one_digit_constant_floor(self, series, templates):
        primes = admissible_primes(series["gourevitch"], templates["eq14"],
                                   primes_in_range(5, 60))
        assert primes[0] == 7  # L at k=4 needs p >= 6


class TestCommands:
    def test_congruence_pass(self, capsys):
        code = main(["congruence", "--spec", "eq2", "--template", "eq5",
                     "--primes", "5..60"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "fail 0" in out

    def test_congruence_fail_exit(self, capsys):
        code = main(["congruence", "--spec", "eq9", "--template", "eq12",
                     "--primes", "7..60"])
        assert code == EXIT_MATH_FAIL

    def test_congruence_csv_columns(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["congruence", "--spec", "eq6", "--template", "eq8",
                     "--primes", "5..30", "--format", "csv",
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,lhs,rhs,pass,defect_valuation"
        assert lines[1].startswith("5,")

    def test_json_reports_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["congruence", "--spec", "eq15", "--template", "eq16",
                "--primes", "7..80", "--format", "json"]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["all_pass"] is True

    def test_sum_check(self, capsys):
        code = main(["sum-check", "--spec", "gourevitch", "--prec", "128"])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_expand_plain(self, capsys):
        code = main(["expand", "--spec", "eq2", "--order", "2", "--prec", "128"])
        assert code == EXIT_OK
        assert "x^2" in capsys.readouterr().out

    def test_expand_verify(self, capsys):
        code = main(["expand", "--spec", "eq2", "--verify", "eq3-claims",
                     "--prec", "256"])
        assert code == EXIT_OK
        assert "all pass" in capsys.readouterr().out

    def test_expand_verify_takes_the_claims_order(self, capsys):
        # --order defaults to the claims file's order, and may only repeat it
        code = main(["expand", "--spec", "eq6", "--verify", "eq7-claims",
                     "--prec", "128", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["order"] == 3
        assert main(["expand", "--spec", "eq2", "--order", "5", "--verify", "eq3-claims",
                     "--prec", "128"]) == EXIT_OK
        capsys.readouterr()
        code = main(["expand", "--spec", "eq2", "--order", "2", "--verify", "eq3-claims",
                     "--prec", "128"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: --order 2 differs from the order 5 of claims 'eq3'\n"

    def test_claims_tolerance_cannot_pass_a_false_claim(self, tmp_path, capsys):
        # x^0 of eq3 is 8/pi^2: a claim of 9/pi^2 fails, and no file field passes it
        data = json.loads((FIXDIR / "eq3-claims.json").read_text())
        data["claims"][0]["coefficient"] = "9"
        bad = tmp_path / "bad.json"
        argv = ["expand", "--spec", "eq2", "--verify", str(bad), "--prec", "128"]
        bad.write_text(json.dumps(data))
        assert main(argv) == EXIT_MATH_FAIL
        data["tolerance"] = "inf"
        bad.write_text(json.dumps(data))
        assert main(argv) == EXIT_USAGE
        assert "unknown field 'tolerance'" in capsys.readouterr().err

    def test_expand_verify_names_both_series_on_a_mismatch(self, capsys):
        code = main(["expand", "--spec", "eq2", "--verify", "eq7-claims"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: claims 'eq7' are about series 'eq6', not 'eq2'\n"

    def test_fit(self, capsys):
        code = main(["fit", "--spec", "eq9", "--template", "eq11-unknowns",
                     "--primes", "7..199"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "(29, -35/216)" in out

    def test_scan(self, capsys):
        code = main(["scan", "--spec", "eq6", "--template", "eq8",
                     "--primes", "5..60", "--candidates", "zeta_p:5,one"])
        assert code == EXIT_OK
        assert "indeterminate" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert main(["congruence", "--spec", "eq2", "--template", "eq5",
                     "--primes", "bogus"]) == EXIT_USAGE
        assert main(["sum-check", "--spec", "missing-fixture"]) == EXIT_USAGE
        assert main(["scan", "--spec", "eq6", "--template", "eq8",
                     "--primes", "5..60"]) == EXIT_USAGE  # no candidates

    def test_argparse_error_maps_to_usage(self, capsys):
        assert main(["congruence", "--spec", "eq2"]) == EXIT_USAGE

    def test_precision_exit(self, tmp_path, capsys):
        # a candidate needing p >= 103 while the primes are capped at 60
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({
            "mod_power": 1,
            "terms": [{"exponent": 0, "constant": "one", "coefficient": "7"}],
        }))
        code = main(["scan", "--spec", "eq6", "--template", str(bare),
                     "--primes", "5..60", "--candidates", "zeta_p:101"])
        assert code == EXIT_PRECISION


# (fixture to corrupt, key path into it, bad value) or (None, option, bad value)
MALFORMED = [
    ("eq2", ("sign",), "minus"),
    ("eq2", ("upper",), 5),
    ("eq2", ("poly",), None),
    ("eq2", ("rhs", "sqrt_disc"), "x"),
    ("eq5", ("terms", 0, "constant"), {"kron": "x"}),
    ("eq5", ("mod_power",), "six"),
    ("eq5", ("terms", 0, "exponent"), "two"),
    ("eq3-claims", ("order",), "x"),
    ("eq3-claims", ("claims", 0, "constants", 0), {"pi_power": 0}),
    ("eq3-claims", ("claims", 0, "constants", 0), {"zeta": 1}),
    ("eq3-claims", ("claims", 0, "constants", 0), {"sqrt": 1}),
    ("eq3-claims", ("tolerance",), "abc"),
    ("eq5", ("terms", 1, "constant"), {"zeta_p": 1}),
    ("eq5", ("mod_power",), 40),
    ("eq3-claims", ("order",), -1),
    ("eq3-claims", ("order",), 17),
    ("eq3-claims", ("claims", 0, "order"), -1),
    ("eq3-claims", ("claims", 3, "order"), 6),
    ("eq3-claims", ("claims", 1, "order"), 0),
    ("eq3-claims", ("series",), "eq6"),
    (None, "--candidates", "zeta_p:x"),
    (None, "--primes", "5..1000001"),
    (None, "--primes", "30..5"),
    ("eq8-unknowns", ("terms",), [{"exponent": 0, "constant": "one", "coefficient": "7"}]),
    ("eq5", ("terms", 1, "constant"), {"l_p": [5, 1]}),
    ("eq5", ("terms", 1, "constant"), {"l_p": [-5, 2]}),
    ("eq5", ("terms", 0, "constant"), {"kron": 0}),
    (None, "--candidates", "kron:0"),
    (None, "--candidates", "l_p:1:3"),
    ("eq3-claims", ("claims", 0, "constants", 0), {"l": [-1003, 2]}),
    ("eq3-claims", ("scale",), "0"),
    ("eq3-claims", ("scale",), "-1"),
    ("eq3-claims", ("claims", 0, "constant"), []),
    ("eq2", ("denom_liner",), None),
    ("eq2", ("rhs", "pi_exponant"), 2),
    ("eq5", ("terms", 0, "coeff"), "1"),
    ("eq16", ("sacle",), "529/3"),
    ("eq10-claims", ("sacle",), "1/128"),
    ("eq2", ("upper",), ["1/2"] * 33),
    ("eq2", ("lower",), ["1"] * 33),
    ("eq2", ("poly",), ["1"] * 33),
]


@pytest.mark.parametrize("fixture, key, value", MALFORMED,
                         ids=[f"{f or 'cli'}:{k}={v!r}" for f, k, v in MALFORMED])
def test_malformed_input_exits_usage(tmp_path, capsys, fixture, key, value):
    primes = ["--primes", "5..30"]
    if fixture is None:
        options = {"--candidates": "one", key: value}
        argv = ["scan", "--spec", "eq6", "--template", "eq8", *primes,
                *(x for item in options.items() for x in item)]
    else:
        data = json.loads((FIXDIR / f"{fixture}.json").read_text())
        node = data
        for k in key[:-1]:
            node = node[k]
        node[key[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = {
            "eq2": ["sum-check", "--spec", str(bad)],
            "eq5": ["congruence", "--spec", "eq2", "--template", str(bad), *primes],
            "eq3-claims": ["expand", "--spec", "eq2", "--verify", str(bad)],
            "eq10-claims": ["expand", "--spec", "eq9", "--verify", str(bad)],
            "eq16": ["congruence", "--spec", "eq15", "--template", str(bad), *primes],
            "eq8-unknowns": ["fit", "--spec", "eq6", "--template", str(bad), *primes],
        }[fixture]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# A shipped series, template or claims file, and the cheap command that reads it.
MUTATED = {
    "eq2": ["sum-check", "--spec", "{}", "--prec", "64"],
    "eq6": ["congruence", "--spec", "{}", "--template", "eq8", "--primes", "5..60"],
    "eq5": ["congruence", "--spec", "eq2", "--template", "{}", "--primes", "5..60"],
    "eq8-unknowns": ["fit", "--spec", "eq6", "--template", "{}", "--primes", "5..60"],
    "eq8": ["scan", "--spec", "eq6", "--template", "{}", "--primes", "5..60",
            "--candidates", "zeta_p:3,one"],
    "eq3-claims": ["expand", "--spec", "eq2", "--verify", "{}", "--prec", "64"],
    "eq16": ["congruence", "--spec", "eq15", "--template", "{}", "--primes", "5..60"],
}
DELETE, LONG = object(), "<an integer of 5000 digits>"
MUTANTS = [None, [], {}, "1/0", True, 0.5, {"pi_power": 2}, {"kron": 5}, LONG,
           "1e4000000", DELETE]


def _field_paths(node, prefix=()):
    """The key path of every field and list item in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(MUTATED)))
    data = json.loads((FIXDIR / f"{name}.json").read_text())
    *parents, key = draw(st.sampled_from(list(_field_paths(data))))
    node = data
    for k in parents:
        node = node[k]
    value = draw(st.sampled_from(MUTANTS))
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    # json cannot write an int past CPython's digit limit, so splice one in
    return name, json.dumps(data).replace(json.dumps(LONG), "1" + "0" * 4999)


@given(mutations())
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_one_mutated_field_exits_cleanly(mutation):
    # whatever one field of a shipped file becomes, a command ends with a
    # documented exit code, and a usage error is a single line
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(text)
        argv = [str(path) if a == "{}" else a for a in MUTATED[name]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_MATH_FAIL, EXIT_USAGE, EXIT_PRECISION), err
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("case", ["spec is a directory", "spec is UTF-16",
                                  "output is a directory"])
def test_unreadable_path_exits_usage(tmp_path, capsys, case):
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    path, argv = {
        "spec is a directory": (tmp_path, ["sum-check", "--spec", str(tmp_path)]),
        "spec is UTF-16": (utf16, ["sum-check", "--spec", str(utf16)]),
        "output is a directory": (tmp_path, ["congruence", "--spec", "eq2", "--template",
                                             "eq5", "--primes", "5..40",
                                             "--output", str(tmp_path)]),
    }[case]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("power", ["0", "33"])
def test_max_power_bounded(capsys, power):
    argv = ["scan", "--spec", "eq6", "--template", "eq8", "--primes", "5..30",
            "--candidates", "one", "--max-power", power]
    assert main(argv) == EXIT_USAGE
    assert "--max-power must be within 1..32" in capsys.readouterr().err


@pytest.mark.parametrize("power", ["2", "5"])
def test_max_power_must_exceed_mod_power(tmp_path, capsys, power):
    head = tmp_path / "head.json"  # verifies for eq2 modulo p^5
    head.write_text(json.dumps({
        "mod_power": 5,
        "terms": [{"exponent": 2, "constant": "one", "coefficient": "1"}],
    }))
    argv = ["scan", "--spec", "eq2", "--template", str(head), "--primes", "5..60",
            "--candidates", "one", "--max-power", power]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: max_power: must exceed the template's mod_power 5, got {power}\n")


def test_scan_rejects_template_failing_below_modulus(tmp_path, capsys):
    # eq6's sum is 7 mod p, so the constant 8 fails at p^0 at every prime
    bad = tmp_path / "seed-8.json"
    bad.write_text(json.dumps({
        "mod_power": 1,
        "terms": [{"exponent": 0, "constant": "one", "coefficient": "8"}],
    }))
    argv = ["scan", "--spec", "eq6", "--template", str(bad), "--primes", "5..60",
            "--candidates", "one,zeta_p:3"]
    assert main(argv) == EXIT_MATH_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at p=5 the defect has valuation 0 < 1" in captured.err


def _json_run(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--output", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


def test_fit_and_scan_read_the_same_coefficient(tmp_path):
    # scan's p^3 defect of the seed '7' is the slot fit reads for eq8's zeta_p(3)
    seed = str(Path(__file__).parent / "fixtures" / "seed-7.json")
    scan = _json_run(["scan", "--spec", "eq6", "--template", seed,
                      "--candidates", "zeta_p:3,zeta_p:5,kron:5"], tmp_path)
    fit = _json_run(["fit", "--spec", "eq6", "--template", "eq8-unknowns"], tmp_path)
    assert scan["defect_exponent"] == 3
    assert scan["candidates"][0]["coefficient"] == fit["coefficients"][1] == "-105/2"
    # a candidate counts only the primes where it is a unit: zeta_p(5) needs
    # p >= 7, and kron:5 vanishes at 5
    primes = [int(p) for p in scan["digits"]]
    units = {
        "ZetaP(k=3)": [p for p in primes if p >= 5 and constant_mod_p(ZetaP(3), p)],
        "ZetaP(k=5)": [p for p in primes if p >= 7 and constant_mod_p(ZetaP(5), p)],
        "Kron(disc=5)": [p for p in primes if p != 5],
    }
    assert {c["constant"]: c["primes_used"] for c in scan["candidates"]} == {
        name: len(used) for name, used in units.items()}
    assert len(units["ZetaP(k=5)"]) < len(primes)


SEED_7 = str(Path(__file__).parent / "fixtures" / "seed-7.json")


@pytest.mark.parametrize("argv", [
    ["congruence", "--spec", "eq6", "--template", "eq8"],
    ["fit", "--spec", "eq6", "--template", "eq8-unknowns"],
    ["scan", "--spec", "eq6", "--template", SEED_7, "--candidates", "zeta_p:3"],
], ids=lambda argv: argv[0])
def test_each_command_judges_each_prime_once(monkeypatch, tmp_path, argv):
    # the command line passes the raw range; the library alone filters it
    # (2 and 3 are inadmissible here) in one judgement, and fit's held-out
    # rows compare the completed template with the sums without judging any
    # prime again
    calls, judge = Counter(), congruence._judge

    def counted(spec, tpl, primes):
        primes = list(primes)
        calls.update((tpl, p) for p in primes)
        return judge(spec, tpl, primes)

    monkeypatch.setattr(congruence, "_judge", counted)
    _json_run([*argv, "--primes", "2..100"], tmp_path)
    given = parse_template(resolve_input(argv[4]))
    assert {tpl for tpl, p in calls} == {given}
    assert sorted(p for tpl, p in calls) == primes_in_range(2, 100)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("argv", [
    ["congruence", "--spec", "eq6", "--template", "eq8"],
    ["fit", "--spec", "eq6", "--template", "eq8-unknowns"],
    # "one" is also the template's constant, and reuses its reading
    ["scan", "--spec", "eq6", "--template", SEED_7, "--candidates", "zeta_p:3,one"],
], ids=lambda argv: argv[0])
def test_each_command_reads_each_constant_once(monkeypatch, tmp_path, argv):
    # one constant_mod_p call per (constant, prime) in a command: the
    # judgement, the rows, the fitted slots and the candidates share one table
    calls, evaluate = Counter(), congruence.constant_mod_p

    def counted(constant, p):
        calls[constant, p] += 1
        return evaluate(constant, p)

    monkeypatch.setattr(congruence, "constant_mod_p", counted)
    _json_run([*argv, "--primes", "2..100"], tmp_path)
    assert {c for c, p in calls} == {ONE, ZetaP(3)}
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("argv", [
    ["congruence", "--spec", "eq6", "--template", "eq8"],
    ["fit", "--spec", "eq6", "--template", "eq8-unknowns"],
    ["scan", "--spec", "eq6", "--template", SEED_7, "--candidates", "zeta_p:3"],
], ids=lambda argv: argv[0])
def test_each_command_reads_the_sums_once(monkeypatch, tmp_path, argv):
    # one truncated_sums_mod call over every admitted prime of the command:
    # fit's refit passes and held-out rows reuse it
    calls, read = [], congruence.truncated_sums_mod

    def counted(spec, primes, m):
        calls.append(sorted(primes))
        return read(spec, primes, m)

    monkeypatch.setattr(congruence, "truncated_sums_mod", counted)
    _json_run([*argv, "--primes", "2..100"], tmp_path)
    given = parse_template(resolve_input(argv[4]))
    spec = parse_series(resolve_input(argv[2]))
    assert calls == [admissible_primes(spec, given, primes_in_range(2, 100))]


def test_no_defect_reads_candidates_like_found(tmp_path, capsys):
    # seed 7 holds for eq6 modulo p^3, so no digit below p^3 is a defect
    seed = str(Path(__file__).parent / "fixtures" / "seed-7.json")
    argv = ["scan", "--spec", "eq6", "--template", seed, "--primes", "5..60",
            "--max-power", "3", "--candidates"]
    scan = _json_run([*argv, "zeta_p:2,zeta_p:5,one"], tmp_path)
    assert scan["outcome"] == "no_defect"
    primes = [int(p) for p in scan["digits"]]
    zeta5 = [p for p in primes if p >= 7 and constant_mod_p(ZetaP(5), p)]
    assert [(c["coefficient"], c["primes_used"], c["note"])
            for c in scan["candidates"]] == [
        (None, 0, "structurally zero constant"), ("0", len(zeta5), ""),
        ("0", len(primes), "")]
    # zeta_p(101) has no digit at any prime below 103
    assert main([*argv, "zeta_p:101"]) == EXIT_PRECISION
    assert "ZetaP(k=101) is not a unit at any prime given" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sum-check", "--spec", "eq2", "--prec", "65537"], "--prec must be within 64..65536"),
    (["expand", "--spec", "eq2", "--prec", "63"], "--prec must be within 64..65536"),
    (["expand", "--spec", "eq2", "--order", "17"], "--order must be within 0..16"),
])
def test_option_bounds(capsys, argv, message):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sum_check_prints_high_precision_fields(capsys):
    # mpmath's decimal string of a tiny number with a 14400-bit mantissa runs
    # into Python's 4300-digit limit on int -> str conversion
    assert main(["sum-check", "--spec", "eq2", "--prec", "14400"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(" -> PASS\n")


def test_template_mod_power_bounded_like_option(tmp_path, capsys):
    # exact constants only, so nothing else limits the modulus power
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mod_power": 33,
        "terms": [{"exponent": 0, "constant": "one", "coefficient": "7"}],
    }))
    argv = ["congruence", "--spec", "eq6", "--template", str(bad), "--primes", "5..13"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad.json:mod_power must be within 1..32\n"


@pytest.mark.parametrize("constant, message", [
    ({"l_p": [5, 1]}, "L_p(1) of an even character needs B_{p-1}"),
    ({"l_p": [-5, 2]}, "discriminant: -5 is not fundamental"),
    ({"kron": 0}, "discriminant: 0 is not fundamental"),
    ({"l_p": [1, 3]}, "disc 1 is the trivial character: use zeta_p"),
    ({"kron": 1}, '(1|p) = 1 at every prime: use "one"'),
    ({"kron": -1}, "discriminant: -1 is not fundamental"),
    ({"l_p": [1001, 3]}, "discriminant: must be within -1000..1000"),
])
def test_unevaluable_constant_rejected_at_parse(tmp_path, capsys, constant, message):
    # no prime can evaluate these, so no row could ever be computed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mod_power": 3,
        "terms": [{"exponent": 2, "constant": constant, "coefficient": "1"}],
    }))
    argv = ["congruence", "--spec", "eq2", "--template", str(bad), "--primes", "5..40"]
    assert main(argv) == EXIT_USAGE
    kind, = constant
    assert capsys.readouterr().err == f"error: bad.json:terms[0]:{kind}: {message}\n"


HUGE_DISC = "1000000000000000000000000000005"  # 31 digits, 1 mod 4


@pytest.mark.parametrize("command, document, where", [
    (["congruence", "--spec", "eq2", "--template"],
     {"mod_power": 3, "terms": [{"exponent": 2, "constant": {"l_p": [HUGE_DISC, 2]},
                                 "coefficient": "1"}]},
     "terms[0]:l_p"),
    (["expand", "--spec", "eq2", "--verify"],
     {"order": 2, "claims": [{"order": 0, "coefficient": "1",
                              "constants": [{"l": [HUGE_DISC, 2]}]}]},
     "claims[0]:l"),
], ids=["template-l_p", "claims-l"])
def test_huge_discriminant_exits_at_parse(tmp_path, command, document, where):
    # the bound is checked before the squarefree test, which would otherwise
    # trial-divide a 31-digit number
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "padic_rama.cli", *command, str(bad)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == (
        f"error: bad.json:{where}: discriminant: must be within -1000..1000\n")


def test_congruence_needs_a_prime(capsys):
    argv = ["congruence", "--spec", "eq2", "--template", "eq5", "--primes", "4..4"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: primes: verification needs at least one, got 0\n")


def test_fit_needs_two_primes(capsys):
    argv = ["fit", "--spec", "eq9", "--template", "eq11-unknowns", "--primes", "7..7"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: primes: fitting needs at least two, got 1\n"


def test_claims_scale_must_be_positive(tmp_path, capsys):
    # a zero scale makes every coefficient of the scaled series zero, so the
    # zero claims below would all pass
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "scale": "0",
                               "claims": [{"order": 0, "coefficient": "0"}]}))
    argv = ["expand", "--spec", "eq2", "--verify", str(bad), "--prec", "128"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad.json:scale: must be a positive rational\n"


@pytest.mark.parametrize("candidates", ["zeta_p:2", "one"])
def test_scan_needs_a_prime(capsys, candidates):
    # no prime lies in 24..28: no digit is read, so no outcome is reported
    head = str(Path(__file__).parents[1] / "perfbench" / "fixtures" / "eq5-head.json")
    argv = ["scan", "--spec", "eq2", "--template", head, "--primes", "24..28",
            "--format", "json", "--candidates", candidates]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: primes: scanning needs at least one, got 0\n"


def test_candidates_read_like_template_constants(tmp_path):
    assert _candidates("one, kron:-4,zeta_p:3,l_p:-4:3") == [
        ONE, Kron(-4), ZetaP(3), LQp(-4, 3)]
    for bad, message in [("zeta", "unknown constant"), ("kron", "kron: takes [disc]"),
                         ("l_p:-4", "l_p: takes [disc, k]"),
                         ("zeta_p", "zeta_p: takes [k]"),
                         ("zeta_p:3:1", "zeta_p: takes [k]")]:
        with pytest.raises(SchemaError, match=re.escape(message)):
            _candidates(bad)
    # a template constant's argument is read the same way: the list of its
    # fields, or a one-field constant's field alone
    for arg, expected in [(3, ZetaP(3)), ([3], ZetaP(3)), ([], None), ([3, 1], None)]:
        path = tmp_path / "tpl.json"
        path.write_text(json.dumps({
            "mod_power": 3,
            "terms": [{"exponent": 2, "constant": {"zeta_p": arg}, "coefficient": "1"}],
        }))
        if expected is None:
            with pytest.raises(SchemaError, match=re.escape("terms[0]:zeta_p: takes [k]")):
                parse_template(path)
        else:
            assert parse_template(path).terms[0].constant == expected


@pytest.mark.parametrize("argv", [
    ["congruence", "--spec", "eq2", "--template", "eq5-unknowns"],
    ["scan", "--spec", "eq2", "--template", "eq5-unknowns", "--candidates", "one"],
], ids=lambda argv: argv[0])
def test_template_with_unknowns_is_a_usage_error(capsys, argv):
    # only fit reads "?" coefficients; the other template commands need them known
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: template has unresolved coefficients\n"


@pytest.mark.parametrize("argv", [
    ["sum-check", "--spec", "eq2"],
    ["expand", "--spec", "eq2", "--order", "1", "--prec", "64"],
    ["fit", "--spec", "eq9", "--template", "eq11-unknowns", "--primes", "7..60"],
    ["scan", "--spec", "eq6", "--template", "eq8", "--candidates", "one"],
], ids=lambda argv: argv[0])
def test_csv_is_congruence_only(capsys, argv):
    # csv lays out congruence rows; no other report has them
    assert main([*argv, "--format", "csv"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'csv'" in captured.err


def test_only_cli_renders_reports():
    # the library returns records: no module defines ``as_dict``, and only
    # cli.py defines or imports ``to_decimal``
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(modules) > 10 and callable(cli.to_decimal)
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {node.name}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            assert "as_dict" not in names, path.name
            assert "to_decimal" not in names or path.name == "cli.py", path.name

"""Command-line front end: series/template/claims file formats, batch
drivers for sum checking, expansion, congruence verification, coefficient
fitting and next-term scanning, with deterministic machine-readable reports.
The library returns records, and this module alone renders them: every key,
literal and digit count of a text, json or csv report is set here.

Exit codes: 0 all checks pass, 1 a mathematical claim failed, 2 usage or
configuration error (an unreadable path included), 3 precision unavailable.

The p-adic commands (congruence, fit, scan) load neither mpmath nor the
``expansion`` and ``lattice`` layers: ``_archimedean`` binds the names that
sum-check, expand and claims files use on first need.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from ._record import record
from .congruence import (
    ExpansionTemplate,
    Kron,
    LQp,
    TemplateTerm,
    ZetaP,
    admissible_primes,  # noqa: F401  (perfbench/traced.py wraps this name)
    fit_unknowns,
    scan_next_term,
    verify_congruence,
)
from .constants import ONE, Lquad, One, PiPower, SqrtDisc, Zeta
from .errors import (
    InsufficientPrecision,
    InvariantViolation,
    PadicRamaError,
    PrecisionUnavailable,
    SchemaError,
    UnknownCoefficient,
)
from .exactnum import primes_in_range
from .series import ClosedForm, SeriesSpec, numeric_sum, rhs_value

if TYPE_CHECKING:
    from mpmath import mp, mpf

    from .expansion import ExpansionClaim, shifted_expansion, verify_expansion

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

# Closed bounds on integer inputs.  Each applies to the option and to the file
# field that carry the same quantity.
MOD_POWER = (1, 32)      # --max-power, a template's mod_power
ORDER = (0, 16)          # --order, a claims file's order
PRECISION = (64, 65536)  # --prec, in bits
PRIME_MAX = 10**6        # top of --primes; the prime sieve allocates that many bytes
SERIES_LIST_MAX = 32     # entries of a series' upper, lower and poly lists

_ARCHIMEDEAN = ("mp", "mpf", "ExpansionClaim", "shifted_expansion", "verify_expansion")


def _archimedean() -> None:
    """Bind the names in ``_ARCHIMEDEAN``, importing mpmath and ``expansion``.
    A name already bound is kept, so a wrapper installed around one (by a
    tracer, before ``main`` runs) stays the one the drivers call."""
    from mpmath import mp, mpf

    from .expansion import ExpansionClaim, shifted_expansion, verify_expansion

    for name in _ARCHIMEDEAN:
        globals().setdefault(name, locals()[name])


def __getattr__(name: str):
    if name in _ARCHIMEDEAN:
        _archimedean()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# parsing / serialization

def _rational(value, where: str) -> Fraction:
    """A JSON integer, or "num" or "num/den" with an optional sign (each part
    within CPython's limit on the digits of an int)."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
            raise SchemaError(f'{where}: bad rational {value!r} (expected "num" or "num/den")')
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational {value!r} ({exc})") from None
    raise SchemaError(f"{where}: expected a rational string, got {type(value).__name__}")


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{where}: expected an integer, got {type(value).__name__}")
    try:
        return int(value)
    except ValueError:
        raise SchemaError(f"{where}: bad integer {value!r}") from None


def _bounded(value, where: str, lo: int, hi: int) -> int:
    n = _integer(value, where)
    if not lo <= n <= hi:
        raise SchemaError(f"{where} must be within {lo}..{hi}")
    return n


def _tag(make, where: str, *args):
    """make(*args), with an argument it rejects (such as a constant's index
    outside its range, or one that no prime can evaluate) reported as a
    schema error naming the field."""
    try:
        return make(*args)
    except (TypeError, ValueError, PadicRamaError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except (ValueError, RecursionError) as exc:
        # an integer past CPython's digit limit, or nesting past its recursion limit
        raise SchemaError(f"{path}: {str(exc).partition(';')[0]}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return data


def _fields(data: dict, where: str, required: Sequence[str],
            optional: Sequence[str] = ()) -> None:
    """An object with every ``required`` key and no key outside ``required``
    and ``optional``, so that a misspelt optional key is an error and not a
    silent default."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise SchemaError(f"{where}: missing field {key!r}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"{where}: unknown field {', '.join(map(repr, unknown))}")


def parse_series(path: Path | str) -> SeriesSpec:
    path = Path(path)
    data = _load_json(path)
    where = path.name
    _fields(data, where, ["name", "upper", "lower", "sign", "base", "poly",
                          "multiplier", "rhs"], ["denom_linear"])
    rhs = data["rhs"]
    _fields(rhs, f"{where}:rhs", ["coefficient"], ["sqrt_disc", "pi_exponent"])
    denom = data.get("denom_linear")
    if denom is not None:
        if not isinstance(denom, list) or len(denom) != 2:
            raise SchemaError(f"{where}: denom_linear must be [alpha, beta] or null")
        denom = (_rational(denom[0], f"{where}:denom_linear[0]"),
                 _rational(denom[1], f"{where}:denom_linear[1]"))
    return SeriesSpec(
        name=str(data["name"]),
        upper=_series_list(data, "upper", where),
        lower=_series_list(data, "lower", where),
        sign=_integer(data["sign"], f"{where}:sign"),
        base=_rational(data["base"], f"{where}:base"),
        poly=_series_list(data, "poly", where),
        denom_linear=denom,
        multiplier=_rational(data["multiplier"], f"{where}:multiplier"),
        rhs=ClosedForm(
            coefficient=_rational(rhs["coefficient"], f"{where}:rhs.coefficient"),
            sqrt_disc=_integer(rhs.get("sqrt_disc", 1), f"{where}:rhs.sqrt_disc"),
            pi_exponent=_integer(rhs.get("pi_exponent", 0), f"{where}:rhs.pi_exponent"),
        ),
    )


def _series_list(data: dict, key: str, where: str) -> tuple[Fraction, ...]:
    where = f"{where}:{key}"
    items = _list(data[key], where)
    if len(items) > SERIES_LIST_MAX:
        raise SchemaError(f"{where} must have at most {SERIES_LIST_MAX} entries, "
                          f"got {len(items)}")
    return tuple(_rational(x, where) for x in items)


# A constant is "one" or {kind: arg}, where arg is the list of the class's
# integer fields or, for a class with one field, that field alone, e.g.
# {"zeta_p": 3}, {"zeta_p": [3]} or {"l_p": [-4, 3]}.
TEMPLATE_KINDS = {"kron": Kron, "zeta_p": ZetaP, "l_p": LQp}
CLAIM_KINDS = {"pi_power": PiPower, "zeta": Zeta, "sqrt": SqrtDisc, "l": Lquad}
_TEMPLATE_KIND_OF = {cls: kind for kind, cls in TEMPLATE_KINDS.items()}


def _constant(raw, where: str, kinds: dict):
    if raw == "one":
        return ONE
    if isinstance(raw, dict) and len(raw) == 1:
        (kind, arg), = raw.items()
        if kind in kinds:
            where = f"{where}:{kind}"
            names = kinds[kind]._fields
            args = arg if isinstance(arg, list) else [arg]
            if len(args) != len(names):
                raise SchemaError(f"{where}: takes [{', '.join(names)}]")
            return _tag(kinds[kind], where, *(_integer(a, where) for a in args))
    raise SchemaError(f"{where}: unknown constant {raw!r}")


def _template_constant_json(constant):
    """The file form of a template constant: the inverse of ``_constant``."""
    if isinstance(constant, One):
        return "one"
    args = [getattr(constant, name) for name in constant._fields]
    return {_TEMPLATE_KIND_OF[type(constant)]: args if len(args) > 1 else args[0]}


def _candidates(text: str) -> list:
    """--candidates C1,C2,...: each one, kind:n or kind:disc:k."""
    out = []
    for item in filter(None, (c.strip() for c in text.split(","))):
        kind, *args = item.split(":")
        raw = item if item == "one" else {kind: args}
        out.append(_constant(raw, f"--candidates {item!r}", TEMPLATE_KINDS))
    return out


def parse_template(path: Path | str) -> ExpansionTemplate:
    path = Path(path)
    data = _load_json(path)
    where = path.name
    _fields(data, where, ["mod_power", "terms"], ["scale", "name"])
    terms = []
    for i, raw in enumerate(_list(data["terms"], f"{where}:terms")):
        _fields(raw, f"{where}:terms[{i}]", ["exponent", "constant", "coefficient"])
        coeff = raw["coefficient"]
        terms.append(
            TemplateTerm(
                exponent=_integer(raw["exponent"], f"{where}:terms[{i}].exponent"),
                constant=_constant(raw["constant"], f"{where}:terms[{i}]",
                                   TEMPLATE_KINDS),
                coefficient=None if coeff == "?"
                else _rational(coeff, f"{where}:terms[{i}].coefficient"),
            )
        )
    return ExpansionTemplate(
        terms=tuple(terms),
        modulus_power=_bounded(data["mod_power"], f"{where}:mod_power", *MOD_POWER),
        scale=_rational(data.get("scale", "1"), f"{where}:scale"),
    )


def serialize_template(tpl: ExpansionTemplate, name: str = "") -> dict:
    out = {
        "mod_power": tpl.modulus_power,
        "scale": str(tpl.scale),
        "terms": [
            {
                "exponent": t.exponent,
                "constant": _template_constant_json(t.constant),
                "coefficient": "?" if t.coefficient is None else str(t.coefficient),
            }
            for t in tpl.terms
        ],
    }
    if name:
        out["name"] = name
    return out


@record
class ClaimsFile:
    name: str
    scale: Fraction
    order: int
    claims: tuple[ExpansionClaim, ...]
    series: Optional[str] = None  # the name of the series the claims are about


def parse_claims(path: Path | str) -> ClaimsFile:
    _archimedean()
    path = Path(path)
    data = _load_json(path)
    where = path.name
    _fields(data, where, ["order", "claims"], ["name", "scale", "series"])
    order = _bounded(data["order"], f"{where}:order", *ORDER)
    claims = []
    for i, raw in enumerate(_list(data["claims"], f"{where}:claims")):
        _fields(raw, f"{where}:claims[{i}]", ["order", "coefficient"], ["constants"])
        at = _bounded(raw["order"], f"{where}:claims[{i}].order", ORDER[0], order)
        if any(cl.order == at for cl in claims):
            raise SchemaError(f"{where}:claims[{i}].order repeats order {at}")
        claims.append(
            ExpansionClaim(
                order=at,
                coefficient=_rational(raw["coefficient"],
                                      f"{where}:claims[{i}].coefficient"),
                constants=tuple(
                    _constant(c, f"{where}:claims[{i}]", CLAIM_KINDS)
                    for c in _list(raw.get("constants", []),
                                   f"{where}:claims[{i}].constants")
                ),
            )
        )
    scale = _rational(data.get("scale", "1"), f"{where}:scale")
    if scale <= 0:
        raise SchemaError(f"{where}:scale: must be a positive rational")
    return ClaimsFile(
        name=str(data.get("name", path.stem)),
        scale=scale,
        order=order,
        claims=tuple(claims),
        series=None if data.get("series") is None else str(data["series"]),
    )


def resolve_input(name: str) -> Path:
    """A literal path if it exists, else a packaged fixture by (base)name."""
    p = Path(name)
    if p.exists():
        return p
    root = Path(__file__).with_name("fixtures")
    for candidate in (name, f"{name}.json"):
        fp = root / candidate
        if fp.is_file():
            return fp
    raise FileNotFoundError(f"no such file or fixture: {name}")


# ---------------------------------------------------------------------------
# prime ranges

def parse_prime_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SchemaError(f"prime range must look like 5..199, got {text!r}")
    lo = _integer(lo, "--primes")
    return lo, _bounded(hi, "--primes upper end", lo, PRIME_MAX)


# ---------------------------------------------------------------------------
# drivers: each takes the parsed options and returns (exit code, JSON
# payload, text report)

def to_decimal(x: mpf, digits: int) -> str:
    """``mp.nstr(x, digits)`` for a report field.  x is first rounded to
    4*digits + 64 bits: mpmath turns a tiny number with a mantissa of more
    than about 14300 bits into an integer past Python's 4300-digit str limit.
    """
    from mpmath import mp, mpf

    with mp.workprec(4 * digits + 64):
        return mp.nstr(mpf(x), digits)


def _run_sum_check(args: argparse.Namespace) -> tuple[int, dict, str]:
    _archimedean()
    spec = args.spec
    bits = args.prec
    value, bound = numeric_sum(spec, bits)
    target = rhs_value(spec, bits)
    with mp.workprec(bits + 16):
        diff = abs(value - target)
        threshold = mpf(2) ** (-(bits - 8))
        ok = bool(diff < threshold)
    payload = {
        "command": "sum-check",
        "series": spec.name,
        "precision_bits": bits,
        "value": to_decimal(value, 40),
        "closed_form": to_decimal(target, 40),
        "abs_diff": to_decimal(diff, 8),
        "tail_bound": to_decimal(bound, 8),
        "pass": ok,
    }
    text = (f"{spec.name}: sum = {payload['value']}\n"
            f"{' ' * len(spec.name)}  rhs = {payload['closed_form']}\n"
            f"|diff| = {payload['abs_diff']} (tail bound {payload['tail_bound']})"
            f" -> {'PASS' if ok else 'FAIL'}\n")
    return (EXIT_OK if ok else EXIT_MATH_FAIL), payload, text


def _run_expand(args: argparse.Namespace) -> tuple[int, dict, str]:
    _archimedean()
    spec = args.spec
    bits = args.prec
    if args.verify is None:
        order = 5 if args.order is None else args.order
        ts = shifted_expansion(spec, order, bits)
        payload = {
            "command": "expand",
            "series": spec.name,
            "order": order,
            "precision_bits": bits,
            "error_bound": to_decimal(ts.error_bound, 8),
            "coefficients": [to_decimal(c, 40) for c in ts.coeffs],
        }
        lines = [f"{spec.name}: expansion to order {order} "
                 f"({bits} bits, coefficient error < {payload['error_bound']})"]
        lines += [f"  x^{k}: {c}" for k, c in enumerate(payload["coefficients"])]
        return EXIT_OK, payload, "\n".join(lines) + "\n"
    claims = args.verify
    if claims.series is not None and claims.series != spec.name:
        raise SchemaError(f"claims {claims.name!r} are about series {claims.series!r}, "
                          f"not {spec.name!r}")
    if args.order not in (None, claims.order):
        raise SchemaError(f"--order {args.order} differs from the order {claims.order} "
                          f"of claims {claims.name!r}")
    report = verify_expansion(spec.scaled(claims.scale), claims.claims, claims.order, bits)
    payload = {
        "command": "expand",
        "claims": claims.name,
        "series": report.series,
        "order": report.order,
        "precision_bits": report.precision_bits,
        "tolerance": to_decimal(report.tolerance, 8),
        "error_bound": to_decimal(report.error_bound, 8),
        "all_pass": report.all_pass,
        "checks": [
            {
                "order": c.order,
                "claimed": c.claimed,
                "computed": to_decimal(c.computed, 40),
                "target": to_decimal(c.target, 40),
                "defect": to_decimal(c.defect, 8),
                "pass": c.passed,
            }
            for c in report.checks
        ],
    }
    lines = [f"{spec.name} vs claims {claims.name!r} (order {report.order}, "
             f"{report.precision_bits} bits, tol {to_decimal(report.tolerance, 4)})"]
    for c in report.checks:
        kind = "claimed" if c.claimed else "zero"
        lines.append(
            f"  x^{c.order} [{kind:7s}] defect {to_decimal(c.defect, 4)} "
            f"-> {'PASS' if c.passed else 'FAIL'}"
        )
    lines.append("all pass" if report.all_pass else "FAILURES present")
    return (EXIT_OK if report.all_pass else EXIT_MATH_FAIL), payload, "\n".join(lines) + "\n"


def _run_congruence(args: argparse.Namespace) -> tuple[int, dict, str]:
    spec, tpl = args.spec, args.template
    lo, hi = args.primes
    report = verify_congruence(spec, tpl, primes_in_range(lo, hi))
    lines = [f"{spec.name} vs template mod p^{tpl.modulus_power} "
             f"over {len(report.rows)} primes in [{lo}, {hi}]"]
    for r in report.rows:
        status = "pass" if r.passed else f"FAIL (defect at p^{r.defect_valuation})"
        lines.append(f"  p={r.p}: {status}")
    c = report.counts
    lines.append(f"pass {c['pass']}, fail {c['fail']}, skip {c['skip']}")
    payload = {
        "command": "congruence",
        "series": report.series,
        "mod_power": report.modulus_power,
        "counts": c,
        "all_pass": report.all_pass,
        "rows": [
            {
                "p": r.p,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "pass": r.passed,
                "defect_valuation": r.defect_valuation,
                "note": "",
            }
            for r in report.rows
        ],
    }
    return (EXIT_OK if report.all_pass else EXIT_MATH_FAIL), payload, "\n".join(lines) + "\n"


def _run_fit(args: argparse.Namespace) -> tuple[int, dict, str]:
    spec = args.spec
    result = fit_unknowns(spec, args.template, primes_in_range(*args.primes))
    payload = {
        "command": "fit",
        "series": spec.name,
        "coefficients": [str(c) for c in result.coefficients],
        "template": serialize_template(result.template),
        "fit_primes": list(result.fit_primes),
        "held_out_primes": list(result.held_out_primes),
        "held_out_pass": result.held_out_ok,
    }
    text = (f"{spec.name}: recovered coefficients ({', '.join(payload['coefficients'])}) "
            f"from {len(result.fit_primes)} primes; held-out check over "
            f"{len(result.held_out_primes)} primes: "
            f"{'PASS' if result.held_out_ok else 'FAIL'}\n")
    return (EXIT_OK if result.held_out_ok else EXIT_MATH_FAIL), payload, text


def _run_scan(args: argparse.Namespace) -> tuple[int, dict, str]:
    spec = args.spec
    if not args.candidates:
        raise SchemaError("scan needs --candidates")
    report = scan_next_term(spec, args.template, primes_in_range(*args.primes),
                            args.candidates, max_power=args.max_power)
    lines = [f"{spec.name}: scan outcome = {report.outcome}"]
    if report.note:
        lines.append(f"  {report.note}")
    if report.defect_exponent is not None:
        lines.append(f"  first defect at p^{report.defect_exponent}")
    for cand in report.candidates:
        val = "none" if cand.coefficient is None else str(cand.coefficient)
        extra = f" ({cand.note})" if cand.note else ""
        lines.append(f"  {cand.constant!r}: coefficient {val}{extra}")
    payload = {
        "command": "scan",
        "series": spec.name,
        "outcome": report.outcome,
        "defect_exponent": report.defect_exponent,
        "digits": {str(p): d for p, d in sorted(report.digits.items())},
        "note": report.note,
        "candidates": [
            {
                "constant": repr(c.constant),
                "coefficient": None if c.coefficient is None else str(c.coefficient),
                "primes_used": c.primes_used,
                "note": c.note,
            }
            for c in report.candidates
        ],
    }
    return EXIT_OK, payload, "\n".join(lines) + "\n"


def _csv(rows: list[dict]) -> str:
    """A congruence report's rows as csv."""
    import csv
    import io

    columns = ["p", "lhs", "rhs", "pass", "defect_valuation"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([str(row[c]).lower() if isinstance(row[c], bool) else row[c]
                         for c in columns])
    return buf.getvalue()


def _bounded_option(name: str, bounds: tuple[int, int]):
    """An argparse ``type=`` that reads an integer option within ``bounds``."""
    return lambda text: _bounded(text, name, *bounds)


def _input_option(parse):
    """An argparse ``type=`` that reads a file or packaged fixture with ``parse``."""
    return lambda name: parse(resolve_input(name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-rama",
        description="Truncated hypergeometric sums, their prime-power "
                    "congruences, and the constants they match.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, template=False, formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--spec", type=_input_option(parse_series), required=True,
                       help="series file or fixture name")
        if template:
            p.add_argument("--template", type=_input_option(parse_template),
                           required=True, help="template file or fixture name")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write the report here instead of stdout")
        if template:
            p.add_argument("--primes", type=parse_prime_range, default="5..199",
                           metavar="LO..HI")
        return p

    p = command("sum-check", _run_sum_check, "full sum vs closed form")
    p.add_argument("--prec", type=_bounded_option("--prec", PRECISION), default=128,
                   metavar="BITS")

    p = command("expand", _run_expand, "x-shift expansion, optionally vs claims")
    p.add_argument("--order", type=_bounded_option("--order", ORDER), metavar="K",
                   help="default 5, or with --verify the claims file's order")
    p.add_argument("--prec", type=_bounded_option("--prec", PRECISION), default=256,
                   metavar="BITS")
    p.add_argument("--verify", type=_input_option(parse_claims), metavar="CLAIMS",
                   help="claims file or fixture name")

    command("congruence", _run_congruence, "verify a template over a prime range",
            template=True, formats=("text", "json", "csv"))

    command("fit", _run_fit, "recover unknown template coefficients", template=True)

    p = command("scan", _run_scan, "probe for the next term past the modulus",
                template=True)
    p.add_argument("--candidates", type=_candidates, default="", metavar="C1,C2",
                   help="one, kron:D, zeta_p:K, l_p:D:K")
    p.add_argument("--max-power", type=_bounded_option("--max-power", MOD_POWER),
                   metavar="P")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns the process exit code.  argparse's ``type=``
    converters read every option and input file in command-line order, and
    what they reject raises out of them and exits 2."""
    try:
        args = _build_parser().parse_args(argv)
        code, payload, text = args.run(args)
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif args.format == "csv":
            text = _csv(payload["rows"])
        if args.output:
            try:
                Path(args.output).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise SchemaError(f"--output {args.output}: {exc.strerror}") from None
        else:
            sys.stdout.write(text)
        return code
    except SystemExit as exc:  # argparse's own usage errors, and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (SchemaError, InvariantViolation, UnknownCoefficient, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionUnavailable, InsufficientPrecision) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except PadicRamaError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())

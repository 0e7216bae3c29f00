"""Command-line front end: series/template/claims file formats, batch
drivers for sum checking, expansion, congruence verification, coefficient
fitting and next-term scanning, with deterministic machine-readable reports.

Exit codes: 0 all checks pass, 1 a mathematical claim failed, 2 usage or
configuration error, 3 precision unavailable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from mpmath import mp, mpf

from .congruence import (
    CongruenceReport,
    ExpansionTemplate,
    Kron,
    LQp,
    TemplateConstant,
    TemplateTerm,
    ZetaP,
    fit_unknowns,
    scan_next_term,
    verify_congruence,
)
from .constants import ONE, ConstantTag, Lquad, PiPower, SqrtDisc, Zeta
from .errors import (
    InsufficientPrecision,
    InvariantViolation,
    PadicRamaError,
    PrecisionUnavailable,
    SchemaError,
)
from .exactnum import primes_in_range
from .expansion import ExpansionClaim, shifted_expansion, verify_expansion
from .series import ClosedForm, SeriesSpec, numeric_sum, rhs_value

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


# ---------------------------------------------------------------------------
# parsing / serialization

def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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


def _tag(make, where: str, *args):
    """make(*args), with an argument it rejects (such as a constant's index
    outside its range) reported as a schema error naming the field."""
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
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
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return data


def _fields(data: dict, where: str, required: Sequence[str]) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise SchemaError(f"{where}: missing field {key!r}")


def parse_series(path: Path | str) -> SeriesSpec:
    path = Path(path)
    data = _load_json(path)
    where = path.name
    _fields(data, where, ["name", "upper", "lower", "sign", "base", "poly",
                          "multiplier", "rhs"])
    rhs = data["rhs"]
    _fields(rhs, f"{where}:rhs", ["coefficient"])
    denom = data.get("denom_linear")
    if denom is not None:
        if not isinstance(denom, list) or len(denom) != 2:
            raise SchemaError(f"{where}: denom_linear must be [alpha, beta] or null")
        denom = (_rational(denom[0], f"{where}:denom_linear[0]"),
                 _rational(denom[1], f"{where}:denom_linear[1]"))
    return SeriesSpec(
        name=str(data["name"]),
        upper=tuple(_rational(a, f"{where}:upper")
                    for a in _list(data["upper"], f"{where}:upper")),
        lower=tuple(_rational(b, f"{where}:lower")
                    for b in _list(data["lower"], f"{where}:lower")),
        sign=_integer(data["sign"], f"{where}:sign"),
        base=_rational(data["base"], f"{where}:base"),
        poly=tuple(_rational(c, f"{where}:poly")
                   for c in _list(data["poly"], f"{where}:poly")),
        denom_linear=denom,
        multiplier=_rational(data["multiplier"], f"{where}:multiplier"),
        rhs=ClosedForm(
            coefficient=_rational(rhs["coefficient"], f"{where}:rhs.coefficient"),
            sqrt_disc=_integer(rhs.get("sqrt_disc", 1), f"{where}:rhs.sqrt_disc"),
            pi_exponent=_integer(rhs.get("pi_exponent", 0), f"{where}:rhs.pi_exponent"),
        ),
    )


def serialize_series(spec: SeriesSpec) -> dict:
    return {
        "name": spec.name,
        "upper": [str(a) for a in spec.upper],
        "lower": [str(b) for b in spec.lower],
        "sign": spec.sign,
        "base": str(spec.base),
        "poly": [str(c) for c in spec.poly],
        "denom_linear": None if spec.denom_linear is None
        else [str(spec.denom_linear[0]), str(spec.denom_linear[1])],
        "multiplier": str(spec.multiplier),
        "rhs": {
            "coefficient": str(spec.rhs.coefficient),
            "sqrt_disc": spec.rhs.sqrt_disc,
            "pi_exponent": spec.rhs.pi_exponent,
        },
    }


def _template_constant(raw, where: str) -> TemplateConstant:
    if raw == "one":
        return ONE
    if isinstance(raw, dict) and len(raw) == 1:
        (kind, arg), = raw.items()
        where = f"{where}:{kind}"
        if kind == "kron":
            return Kron(_integer(arg, where))
        if kind == "zeta_p":
            return _tag(ZetaP, where, _integer(arg, where))
        if kind == "l_p":
            if not isinstance(arg, list) or len(arg) != 2:
                raise SchemaError(f"{where}: takes [disc, k]")
            return _tag(LQp, where, _integer(arg[0], where), _integer(arg[1], where))
    raise SchemaError(f"{where}: unknown constant {raw!r}")


def _serialize_template_constant(c: TemplateConstant):
    if isinstance(c, Kron):
        return {"kron": c.disc}
    if isinstance(c, ZetaP):
        return {"zeta_p": c.k}
    if isinstance(c, LQp):
        return {"l_p": [c.disc, c.k]}
    return "one"


def parse_template(path: Path | str) -> ExpansionTemplate:
    path = Path(path)
    data = _load_json(path)
    where = path.name
    _fields(data, where, ["mod_power", "terms"])
    terms = []
    for i, raw in enumerate(_list(data["terms"], f"{where}:terms")):
        _fields(raw, f"{where}:terms[{i}]", ["exponent", "constant", "coefficient"])
        coeff = raw["coefficient"]
        terms.append(
            TemplateTerm(
                exponent=_integer(raw["exponent"], f"{where}:terms[{i}].exponent"),
                constant=_template_constant(raw["constant"], f"{where}:terms[{i}]"),
                coefficient=None if coeff == "?"
                else _rational(coeff, f"{where}:terms[{i}].coefficient"),
            )
        )
    return ExpansionTemplate(
        terms=tuple(terms),
        modulus_power=_integer(data["mod_power"], f"{where}:mod_power"),
        scale=_rational(data.get("scale", "1"), f"{where}:scale"),
    )


def serialize_template(tpl: ExpansionTemplate, name: str = "") -> dict:
    out = {
        "mod_power": tpl.modulus_power,
        "scale": str(tpl.scale),
        "terms": [
            {
                "exponent": t.exponent,
                "constant": _serialize_template_constant(t.constant),
                "coefficient": "?" if t.coefficient is None else str(t.coefficient),
            }
            for t in tpl.terms
        ],
    }
    if name:
        out["name"] = name
    return out


def _claim_constant(raw, where: str) -> ConstantTag:
    if raw == "one":
        return ONE
    if isinstance(raw, dict) and len(raw) == 1:
        (kind, arg), = raw.items()
        where = f"{where}:{kind}"
        if kind == "pi_power":
            return _tag(PiPower, where, _integer(arg, where))
        if kind == "zeta":
            return _tag(Zeta, where, _integer(arg, where))
        if kind == "sqrt":
            return _tag(SqrtDisc, where, _integer(arg, where))
        if kind == "l":
            if not isinstance(arg, list) or len(arg) != 2:
                raise SchemaError(f"{where}: takes [disc, k]")
            return _tag(Lquad, where, _integer(arg[0], where), _integer(arg[1], where))
    raise SchemaError(f"{where}: unknown constant {raw!r}")


@dataclass(frozen=True)
class ClaimsFile:
    name: str
    scale: Fraction
    order: int
    claims: tuple[ExpansionClaim, ...]
    tolerance: Optional[str] = None  # decimal string, e.g. "1e-40"


def parse_claims(path: Path | str) -> ClaimsFile:
    path = Path(path)
    data = _load_json(path)
    where = path.name
    _fields(data, where, ["order", "claims"])
    tolerance = data.get("tolerance")
    if tolerance is not None:
        _tag(mpf, f"{where}:tolerance", tolerance)
    claims = []
    for i, raw in enumerate(_list(data["claims"], f"{where}:claims")):
        _fields(raw, f"{where}:claims[{i}]", ["order", "coefficient"])
        claims.append(
            ExpansionClaim(
                order=_integer(raw["order"], f"{where}:claims[{i}].order"),
                coefficient=_rational(raw["coefficient"],
                                      f"{where}:claims[{i}].coefficient"),
                constants=tuple(
                    _claim_constant(c, f"{where}:claims[{i}]")
                    for c in _list(raw.get("constants", []),
                                   f"{where}:claims[{i}].constants")
                ),
            )
        )
    return ClaimsFile(
        name=str(data.get("name", path.stem)),
        scale=_rational(data.get("scale", "1"), f"{where}:scale"),
        order=_integer(data["order"], f"{where}:order"),
        claims=tuple(claims),
        tolerance=tolerance,
    )


def resolve_input(name: str) -> Path:
    """A literal path if it exists, else a packaged fixture by (base)name."""
    p = Path(name)
    if p.exists():
        return p
    root = resources.files("padic_rama") / "fixtures"
    for candidate in (name, f"{name}.json"):
        fp = root / candidate
        if fp.is_file():
            return Path(str(fp))
    raise FileNotFoundError(f"no such file or fixture: {name}")


# ---------------------------------------------------------------------------
# prime ranges

def parse_prime_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SchemaError(f"prime range must look like 5..199, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise SchemaError(f"bad prime range {text!r}") from None


def admissible_primes(
    spec: SeriesSpec,
    tpl: Optional[ExpansionTemplate],
    lo: int,
    hi: int,
    exclude: Sequence[int] = (),
) -> list[int]:
    """Primes in [lo, hi] minus the structural exclusions: divisors of the
    series' denominators, of template discriminants/coefficient/scale parts,
    and primes below a one-digit constant's reach (p >= k+2)."""
    banned = set(exclude)
    min_p = 2
    if tpl is not None:
        banned |= tpl.admissibility_exclusions()
        min_p = tpl.min_prime()
    return [p for p in primes_in_range(max(lo, min_p), hi)
            if p not in banned and not spec.is_bad_prime(p)]


# ---------------------------------------------------------------------------
# run configuration and drivers

@dataclass
class RunConfig:
    command: str
    spec_path: str
    template_path: Optional[str] = None
    claims_path: Optional[str] = None
    prime_lo: int = 5
    prime_hi: int = 199
    exclusions: tuple[int, ...] = ()
    order: int = 5
    precision_bits: int = 256
    mod_power: Optional[int] = None
    candidates: tuple[str, ...] = ()
    max_power: Optional[int] = None
    out_format: str = "text"
    output: Optional[str] = None

    def validate(self) -> None:
        if self.prime_lo > self.prime_hi:
            raise SchemaError("prime_lo must be <= prime_hi")
        if self.precision_bits < 64:
            raise SchemaError("precision must be >= 64 bits")
        if not 0 <= self.order <= 16:
            raise SchemaError("order must be within 0..16")
        if self.mod_power is not None and not 1 <= self.mod_power <= 32:
            raise SchemaError("--mod-power must be within 1..32")
        if self.max_power is not None and not 1 <= self.max_power <= 32:
            raise SchemaError("--max-power must be within 1..32")
        if self.out_format not in ("text", "json", "csv"):
            raise SchemaError(f"unknown format {self.out_format!r}")


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, payload: dict) -> None:
    _emit(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _congruence_csv(report: CongruenceReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "lhs", "rhs", "pass", "defect_valuation"])
    for r in report.rows:
        writer.writerow([
            r.p,
            "" if r.lhs is None else r.lhs,
            "" if r.rhs is None else r.rhs,
            str(r.passed).lower(),
            "" if r.defect_valuation is None else r.defect_valuation,
        ])
    return buf.getvalue()


def _run_sum_check(config: RunConfig) -> int:
    spec = parse_series(resolve_input(config.spec_path))
    bits = config.precision_bits
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
        "value": mp.nstr(value, 40),
        "closed_form": mp.nstr(target, 40),
        "abs_diff": mp.nstr(diff, 8),
        "tail_bound": mp.nstr(bound, 8),
        "pass": ok,
    }
    if config.out_format == "json":
        _emit_json(config, payload)
    else:
        _emit(
            config,
            f"{spec.name}: sum = {payload['value']}\n"
            f"{' ' * len(spec.name)}  rhs = {payload['closed_form']}\n"
            f"|diff| = {payload['abs_diff']} (tail bound {payload['tail_bound']})"
            f" -> {'PASS' if ok else 'FAIL'}\n",
        )
    return EXIT_OK if ok else EXIT_MATH_FAIL


def _run_expand(config: RunConfig) -> int:
    spec = parse_series(resolve_input(config.spec_path))
    bits = config.precision_bits
    if config.claims_path is None:
        ts = shifted_expansion(spec, config.order, bits)
        payload = {
            "command": "expand",
            "series": spec.name,
            "order": config.order,
            "precision_bits": bits,
            "error_bound": mp.nstr(ts.error_bound, 8),
            "coefficients": [mp.nstr(c, 40) for c in ts.coeffs],
        }
        if config.out_format == "json":
            _emit_json(config, payload)
        else:
            lines = [f"{spec.name}: expansion to order {config.order} "
                     f"({bits} bits, coefficient error < {payload['error_bound']})"]
            lines += [f"  x^{k}: {c}" for k, c in enumerate(payload["coefficients"])]
            _emit(config, "\n".join(lines) + "\n")
        return EXIT_OK
    claims = parse_claims(resolve_input(config.claims_path))
    tol = mpf(claims.tolerance) if claims.tolerance else None
    report = verify_expansion(
        spec.scaled(claims.scale), claims.claims, claims.order, bits, tolerance=tol
    )
    payload = {"command": "expand", "claims": claims.name, **report.as_dict()}
    if config.out_format == "json":
        _emit_json(config, payload)
    else:
        lines = [f"{spec.name} vs claims {claims.name!r} "
                 f"(order {claims.order}, {bits} bits, tol {mp.nstr(report.tolerance, 4)})"]
        for c in report.checks:
            kind = "claimed" if c.claimed else "zero"
            lines.append(
                f"  x^{c.order} [{kind:7s}] defect {mp.nstr(c.defect, 4)} "
                f"-> {'PASS' if c.passed else 'FAIL'}"
            )
        lines.append("all pass" if report.all_pass else "FAILURES present")
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK if report.all_pass else EXIT_MATH_FAIL


def _run_congruence(config: RunConfig) -> int:
    spec = parse_series(resolve_input(config.spec_path))
    tpl = parse_template(resolve_input(config.template_path))
    if config.mod_power is not None and config.mod_power != tpl.modulus_power:
        tpl = replace(tpl, modulus_power=config.mod_power)
    primes = admissible_primes(spec, tpl, config.prime_lo, config.prime_hi,
                               config.exclusions)
    report = verify_congruence(spec, tpl, primes)
    payload = {"command": "congruence", **report.as_dict()}
    if config.out_format == "json":
        _emit_json(config, payload)
    elif config.out_format == "csv":
        _emit(config, _congruence_csv(report))
    else:
        lines = [f"{spec.name} vs template mod p^{tpl.modulus_power} "
                 f"over {len(primes)} primes in [{config.prime_lo}, {config.prime_hi}]"]
        for r in report.rows:
            if r.skipped:
                lines.append(f"  p={r.p}: skipped ({r.note})")
            else:
                status = "pass" if r.passed else f"FAIL (defect at p^{r.defect_valuation})"
                lines.append(f"  p={r.p}: {status}")
        c = report.counts
        lines.append(f"pass {c['pass']}, fail {c['fail']}, skip {c['skip']}")
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK if report.all_pass else EXIT_MATH_FAIL


def _run_fit(config: RunConfig) -> int:
    spec = parse_series(resolve_input(config.spec_path))
    tpl = parse_template(resolve_input(config.template_path))
    primes = admissible_primes(spec, tpl, config.prime_lo, config.prime_hi,
                               config.exclusions)
    result = fit_unknowns(spec, tpl, primes)
    payload = {
        "command": "fit",
        "series": spec.name,
        "coefficients": [str(c) for c in result.coefficients],
        "template": serialize_template(result.template),
        "fit_primes": list(result.fit_primes),
        "held_out_primes": list(result.held_out_primes),
        "held_out_pass": result.held_out_ok,
    }
    if config.out_format == "json":
        _emit_json(config, payload)
    else:
        coeffs = ", ".join(str(c) for c in result.coefficients)
        _emit(
            config,
            f"{spec.name}: recovered coefficients ({coeffs}) from "
            f"{len(result.fit_primes)} primes; held-out check over "
            f"{len(result.held_out_primes)} primes: "
            f"{'PASS' if result.held_out_ok else 'FAIL'}\n",
        )
    return EXIT_OK if result.held_out_ok else EXIT_MATH_FAIL


def _parse_candidate(text: str) -> TemplateConstant:
    parts = text.split(":")
    kind = parts[0]
    if kind == "one" and len(parts) == 1:
        return ONE
    where = f"candidate {text!r}"
    if kind == "kron" and len(parts) == 2:
        return Kron(_integer(parts[1], where))
    if kind == "zeta_p" and len(parts) == 2:
        return _tag(ZetaP, where, _integer(parts[1], where))
    if kind == "l_p" and len(parts) == 3:
        return _tag(LQp, where, _integer(parts[1], where), _integer(parts[2], where))
    raise SchemaError(f"bad candidate {text!r} "
                      "(use one, kron:D, zeta_p:K or l_p:D:K)")


def _run_scan(config: RunConfig) -> int:
    spec = parse_series(resolve_input(config.spec_path))
    tpl = parse_template(resolve_input(config.template_path))
    if not config.candidates:
        raise SchemaError("scan needs --candidates")
    cands = [_parse_candidate(c) for c in config.candidates]
    primes = admissible_primes(spec, tpl, config.prime_lo, config.prime_hi,
                               config.exclusions)
    report = scan_next_term(spec, tpl, primes, cands, max_power=config.max_power)
    payload = {"command": "scan", "series": spec.name, **report.as_dict()}
    if config.out_format == "json":
        _emit_json(config, payload)
    else:
        lines = [f"{spec.name}: scan outcome = {report.outcome}"]
        if report.note:
            lines.append(f"  {report.note}")
        if report.defect_exponent is not None:
            lines.append(f"  first defect at p^{report.defect_exponent}")
        for cand in report.candidates:
            val = "none" if cand.coefficient is None else str(cand.coefficient)
            extra = f" ({cand.note})" if cand.note else ""
            lines.append(f"  {cand.constant!r}: coefficient {val}{extra}")
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK


_DRIVERS = {
    "sum-check": _run_sum_check,
    "expand": _run_expand,
    "congruence": _run_congruence,
    "fit": _run_fit,
    "scan": _run_scan,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    try:
        config.validate()
        return _DRIVERS[config.command](config)
    except (SchemaError, InvariantViolation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionUnavailable, InsufficientPrecision) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except PadicRamaError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-rama",
        description="Truncated hypergeometric sums, their prime-power "
                    "congruences, and the constants they match.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, template=False):
        p.add_argument("--spec", required=True, help="series file or fixture name")
        if template:
            p.add_argument("--template", required=True,
                           help="template file or fixture name")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    def prime_args(p):
        p.add_argument("--primes", default="5..199", metavar="LO..HI")
        p.add_argument("--exclude", default="", metavar="P1,P2",
                       help="extra primes to skip")

    p = sub.add_parser("sum-check", help="full sum vs closed form")
    common(p)
    p.add_argument("--prec", type=int, default=128, metavar="BITS")

    p = sub.add_parser("expand", help="x-shift expansion, optionally vs claims")
    common(p)
    p.add_argument("--order", type=int, default=5, metavar="K")
    p.add_argument("--prec", type=int, default=256, metavar="BITS")
    p.add_argument("--verify", metavar="CLAIMS", help="claims file or fixture name")

    p = sub.add_parser("congruence", help="verify a template over a prime range")
    common(p, template=True)
    prime_args(p)
    p.add_argument("--mod-power", type=int, metavar="M",
                   help="override the template's modulus power")

    p = sub.add_parser("fit", help="recover unknown template coefficients")
    common(p, template=True)
    prime_args(p)

    p = sub.add_parser("scan", help="probe for the next term past the modulus")
    common(p, template=True)
    prime_args(p)
    p.add_argument("--candidates", default="", metavar="C1,C2",
                   help="one, kron:D, zeta_p:K, l_p:D:K")
    p.add_argument("--max-power", type=int, metavar="P")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    lo, hi = (5, 199)
    if getattr(args, "primes", None):
        lo, hi = parse_prime_range(args.primes)
    exclusions = tuple(
        _integer(x, "--exclude") for x in getattr(args, "exclude", "").split(",")
        if x.strip()
    )
    candidates = tuple(
        c.strip() for c in getattr(args, "candidates", "").split(",") if c.strip()
    )
    return RunConfig(
        command=args.command,
        spec_path=args.spec,
        template_path=getattr(args, "template", None),
        claims_path=getattr(args, "verify", None),
        prime_lo=lo,
        prime_hi=hi,
        exclusions=exclusions,
        order=getattr(args, "order", 5),
        precision_bits=getattr(args, "prec", 256),
        mod_power=getattr(args, "mod_power", None),
        candidates=candidates,
        max_power=getattr(args, "max_power", None),
        out_format=args.format,
        output=args.output,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = config_from_args(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

"""p-adic side: expansion templates r_1 c_1(p) p^{e_1} + ... modulo p^M,
verification of congruence claims over prime ranges, recovery of unknown
rational coefficients from multi-prime residues, and scanning for the next
term beyond a verified modulus.

A claim speaks about every prime outside a finite exceptional set, and
``_judge`` is the one statement of that set: primes dividing a denominator
of the series, the scale, or a known coefficient, and primes where a
template constant has no value, which ``constant_values`` alone decides (a
discriminant or conductor prime, or one below a one-digit constant's reach
p >= k+2).  ``inadmissible`` and ``admissible_primes`` are views of it.

Verify, fit and scan each judge their primes once, dropping the
inadmissible ones, and read the sums once (``truncated_sums_mod``).  The
judgement reads each template constant once over the range
(``constant_values``: one ``lfunctions.L_p_digits`` pass for a one-digit
constant); every later step takes the values from that table.
``_residuals`` (sum minus the known terms) serves every command, and
``_read_coefficient`` (one slot's digits -> CRT -> rational) fit and scan.
Each command returns a record (``CongruenceReport``, ``FitResult``,
``ScanReport``) that ``cli`` renders.
"""

from __future__ import annotations

from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, Union

from ._record import record, replace
from .constants import One
from .errors import (
    BadPrime,
    InconsistentResidues,
    InvariantViolation,
    PrecisionUnavailable,
    ReconstructionFailed,
    UnknownCoefficient,
)
from .exactnum import ResidueClass, crt_combine, kronecker, rational_reconstruct, valuation
from .lfunctions import L_p_digits, QuadCharacter, check_L_p, parity_zero
from .lfunctions import L_p_mod_p, zeta_p_mod_p  # noqa: F401  (perfbench/traced.py wraps these names)
from .series import SeriesSpec, truncated_sums_mod
from .series import truncated_sum_mod  # noqa: F401  (perfbench/traced.py wraps this name)


@record
class Kron:
    """The Kronecker symbol (disc|p) as a template constant, for a
    discriminant ``QuadCharacter`` accepts other than 1."""

    disc: int

    def __post_init__(self) -> None:
        QuadCharacter(self.disc)  # validates the discriminant
        if self.disc == 1:
            raise ValueError('(1|p) = 1 at every prime: use "one"')


@record
class ZetaP:
    """zeta_p(k) = L_p(k, chi_1) at an integer k >= 2; only its mod-p digit
    is available."""

    k: int
    disc: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")


@record
class LQp:
    """L_{D,p}(k) for a discriminant ``QuadCharacter`` accepts other than 1;
    only its mod-p digit is available, and (D, k) is rejected when
    ``check_L_p`` says no prime has one."""

    disc: int
    k: int

    def __post_init__(self) -> None:
        chi = QuadCharacter(self.disc)
        if self.disc == 1:
            raise ValueError("disc 1 is the trivial character: use zeta_p")
        if why := check_L_p(chi, self.k):
            raise PrecisionUnavailable(why)


TemplateConstant = Union[One, Kron, ZetaP, LQp]
ONE_DIGIT = (ZetaP, LQp)  # the constants that carry a single p-adic digit
Digits = dict[TemplateConstant, dict[int, Union[int, Exception]]]  # constant_values per constant


def is_structural_zero(constant: TemplateConstant) -> bool:
    """True when the constant vanishes for every admissible prime
    (the parity zeros of ``lfunctions.parity_zero``)."""
    return isinstance(constant, ONE_DIGIT) and parity_zero(constant.disc, constant.k)


def constant_values(constant: TemplateConstant,
                    primes: Iterable[int]) -> dict[int, Union[int, Exception]]:
    """{p: the constant's value at p, or the BadPrime or PrecisionUnavailable
    that says why it has none}: exactly +-1/1 for One/Kron (valid modulo every
    power of p), and the single mod-p digit for ZetaP/LQp (``L_p_digits``):
    the one place a command evaluates a constant."""
    if isinstance(constant, ONE_DIGIT):
        return L_p_digits(QuadCharacter(constant.disc), constant.k, primes)
    if isinstance(constant, Kron):
        return {p: kronecker(constant.disc, p)
                or BadPrime(f"p={p} divides the discriminant {constant.disc}") for p in primes}
    if isinstance(constant, One):
        return dict.fromkeys(primes, 1)
    raise TypeError(f"unknown template constant {constant!r}")


def constant_mod_p(constant: TemplateConstant, p: int) -> int:
    """``constant_values`` at the prime p, raising what it holds instead of a value."""
    value = constant_values(constant, [p])[p]
    if isinstance(value, Exception):
        raise value
    return value


@record
class TemplateTerm:
    exponent: int
    constant: TemplateConstant
    coefficient: Optional[Fraction]  # None marks an unknown to be fitted

    @property
    def known(self) -> bool:
        return self.coefficient is not None

    def inadmissible(self, p: int) -> str:
        """Why the prime p cannot read this term, or "" when it can: p
        divides the denominator of its known coefficient."""
        if self.known and self.coefficient.denominator % p == 0:
            return f"p={p} divides a template coefficient denominator"
        return ""


@record
class ExpansionTemplate:
    """Ordered sum of terms coefficient * constant(p) * p^exponent, asserted
    modulo p^modulus_power for the truncated sum rescaled by ``scale``.

    scale is a global unit prefactor: the claim reads
        scale * (truncated sum) == template  (mod p^M).
    """

    terms: tuple[TemplateTerm, ...]
    modulus_power: int
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        M = self.modulus_power
        if M < 1:
            raise InvariantViolation("mod_power", "must be >= 1")
        exps = [t.exponent for t in self.terms]
        if any(e < 0 for e in exps):
            raise InvariantViolation("exponent", "must be >= 0")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise InvariantViolation("exponents", "must be strictly increasing")
        if self.terms and exps[-1] >= M:
            raise InvariantViolation("exponents", f"last exponent must be < {M}")
        for t in self.terms:
            if isinstance(t.constant, ONE_DIGIT) and M - t.exponent > 1:
                raise InvariantViolation(
                    "exponent",
                    f"term at p^{t.exponent} carries a one-digit constant but "
                    f"M - e = {M - t.exponent} > 1",
                )
        if self.scale <= 0:
            raise InvariantViolation("scale", "must be a positive rational")

    @property
    def fully_known(self) -> bool:
        return all(t.known for t in self.terms)


def _judge(spec: SeriesSpec, tpl: ExpansionTemplate,
           primes: Iterable[int]) -> tuple[list[int], dict[int, str], Digits]:
    """The one judgement of a prime range: (the admitted primes, sorted and
    distinct; {p: why p is inadmissible, or ""}; {constant: its
    ``constant_values``} at the primes the structural rules pass).  In
    order, p is inadmissible when it divides a structural denominator of the
    series, the scale, or a known coefficient's denominator, or when a
    template constant has no value at p, in its evaluator's words."""
    reasons = dict.fromkeys(sorted(set(primes)), "")
    for p in reasons:
        why = spec.inadmissible(p)
        if not why and (tpl.scale.numerator % p == 0 or tpl.scale.denominator % p == 0):
            why = f"p={p} divides the template scale {tpl.scale}"
        reasons[p] = why or next(filter(None, (t.inadmissible(p) for t in tpl.terms)), "")
    checked = [p for p, why in reasons.items() if not why]
    digits = {c: constant_values(c, checked)
              for c in dict.fromkeys(t.constant for t in tpl.terms)}
    for p in checked:
        reasons[p] = next((str(d[p]) for d in digits.values()
                           if isinstance(d[p], Exception)), "")
    return [p for p, why in reasons.items() if not why], reasons, digits


def inadmissible(spec: SeriesSpec, tpl: ExpansionTemplate, p: int) -> str:
    """Why the claim  scale * (truncated sum) == template (mod p^M)  cannot be
    read at the prime p, or "" when p is admissible: ``_judge`` at p."""
    return _judge(spec, tpl, [p])[1][p]


def admissible_primes(spec: SeriesSpec, tpl: ExpansionTemplate,
                      primes: Iterable[int]) -> list[int]:
    """The primes given, sorted and distinct, less those ``_judge`` rejects."""
    return _judge(spec, tpl, primes)[0]


def _term_mod(term: TemplateTerm, c: int, p: int, k: int) -> int:
    """coefficient * c * p^exponent modulo p^k, c the constant's value at p,
    at width k - exponent: a one-digit constant (zeta_p, L_p) is exact there
    only when that width is 1, which the template invariants guarantee."""
    if why := term.inadmissible(p):
        raise BadPrime(why)
    coeff = term.coefficient
    pw = p ** (k - term.exponent)
    return coeff.numerator * pow(coeff.denominator, -1, pw) * c % pw * p**term.exponent


def template_rhs_mod(tpl: ExpansionTemplate, p: int) -> int:
    """The template right side as an integer in [0, p^M)."""
    if not tpl.fully_known:
        raise UnknownCoefficient("template has unresolved coefficients")
    M = tpl.modulus_power
    return sum(_term_mod(t, constant_mod_p(t.constant, p), p, M) for t in tpl.terms) % p**M


@record
class CongruenceRow:
    p: int
    lhs: int
    rhs: int
    passed: bool
    defect_valuation: Optional[int]  # < M iff failing, None when passing


@record
class CongruenceReport:
    series: str
    modulus_power: int
    rows: tuple[CongruenceRow, ...]

    @property
    def all_pass(self) -> bool:
        """True when there is at least one row and every row passed."""
        return bool(self.rows) and all(r.passed for r in self.rows)

    @property
    def counts(self) -> dict[str, int]:
        passed = sum(1 for r in self.rows if r.passed)
        return {"pass": passed, "fail": len(self.rows) - passed, "skip": 0}


def _residuals(tpl: ExpansionTemplate, digits: Digits, sums: Mapping[int, int],
               primes: Sequence[int], m: int) -> dict[int, int]:
    """At each prime, the left side in ``sums`` minus every known template
    term, modulo p^m; structural zeros contribute nothing."""
    known = [t for t in tpl.terms if t.known]
    return {p: (sums[p] - sum(_term_mod(t, digits[t.constant][p], p, m) for t in known))
            % p**m for p in primes}


def _report(spec: SeriesSpec, tpl: ExpansionTemplate, digits: Digits,
            sums: Mapping[int, int], primes: Sequence[int]) -> CongruenceReport:
    """The rows of ``sums`` against the fully known template at ``primes``."""
    M = tpl.modulus_power
    rows = tuple(CongruenceRow(p=p, lhs=sums[p], rhs=(sums[p] - d) % p**M, passed=not d,
                               defect_valuation=valuation(d, p) if d else None)
                 for p, d in _residuals(tpl, digits, sums, primes, M).items())
    return CongruenceReport(series=spec.name, modulus_power=M, rows=rows)


def verify_congruence(spec: SeriesSpec, tpl: ExpansionTemplate,
                      primes: Iterable[int]) -> CongruenceReport:
    """Compare scale * truncated sum against the fully known template modulo
    p^M at every admissible prime given, each once and in order; with none,
    InvariantViolation."""
    if not tpl.fully_known:
        raise UnknownCoefficient("template has unresolved coefficients")
    primes, _, digits = _judge(spec, tpl, primes)
    if not primes:
        raise InvariantViolation("primes", "verification needs at least one, got 0")
    sums = truncated_sums_mod(spec.scaled(tpl.scale), primes, tpl.modulus_power)
    return _report(spec, tpl, digits, sums, primes)


def _read_coefficient(constant: TemplateConstant, digits: Digits, e: int, w: int,
                      residuals: Mapping[int, int]) -> tuple[Optional[Fraction], int]:
    """The rational r with r * constant(p) matching digits p^e .. p^(e+w-1)
    of the residual at every prime: CRT, then rational reconstruction.

    Returns (r, or None when no bounded rational fits; primes used).  A
    residual that p^e does not divide raises InconsistentResidues.  A prime
    where the constant has no value or no unit is skipped; when none is
    left, PrecisionUnavailable.
    """
    classes = []
    for p, r in residuals.items():
        if r % p**e:
            raise InconsistentResidues(
                f"residual at p={p} has valuation {valuation(r, p)} below the slot p^{e}"
            )
        c = digits[constant][p]
        if isinstance(c, Exception) or c % p == 0:
            continue  # this prime carries no information for the coefficient
        pw = p**w
        classes.append(ResidueClass(r // p**e * pow(c, -1, pw) % pw, pw))
    if not classes:
        raise PrecisionUnavailable(f"{constant!r} is not a unit at any prime given")
    return rational_reconstruct(crt_combine(classes)), len(classes)


@record
class FitResult:
    coefficients: tuple[Fraction, ...]
    template: ExpansionTemplate
    fit_primes: tuple[int, ...]
    held_out_primes: tuple[int, ...]
    held_out_report: CongruenceReport

    @property
    def held_out_ok(self) -> bool:
        return self.held_out_report.all_pass


HELD_OUT_FRACTION = 0.2  # top share of the prime range that re-checks a fit


def fit_unknowns(spec: SeriesSpec, tpl: ExpansionTemplate,
                 primes: Sequence[int]) -> FitResult:
    """Recover the unknown rational coefficients by digit peeling.

    Stage i reads r_i from the residual's digits p^(e_i) .. p^(e_{i+1} - 1)
    at every fit prime (the final stage up to p^(M-1)) with
    ``_read_coefficient``; the exact value is substituted before the next
    stage.  The primes that ``_judge`` rejects are dropped first, and the
    sums and constants are read once at the rest; the refits and the rows of
    the held-out top HELD_OUT_FRACTION, which check the completed template,
    reuse them and judge no prime again.
    A template with no unknown, or fewer than two primes left after that or
    after a refit, raise InvariantViolation.
    """
    for t in tpl.terms:
        if is_structural_zero(t.constant) and not t.known:
            raise InvariantViolation(
                "template",
                f"unknown coefficient on the structurally zero constant {t.constant!r}",
            )
    # a structural zero contributes nothing at any prime
    work = replace(tpl, terms=tuple(t for t in tpl.terms
                                    if not is_structural_zero(t.constant)))
    if work.fully_known:
        raise InvariantViolation("template", 'no "?" coefficient to fit')

    M = work.modulus_power
    exps = [t.exponent for t in work.terms]
    windows = [b - a for a, b in zip(exps, exps[1:])] + [M - exps[-1]]
    primes, _, digits = _judge(spec, tpl, primes)
    sums = truncated_sums_mod(spec.scaled(tpl.scale), primes, M)
    while True:
        if len(primes) < 2:
            raise InvariantViolation(
                "primes", f"fitting needs at least two, got {len(primes)}")
        n_held = max(1, round(HELD_OUT_FRACTION * len(primes)))
        fit_primes, held_out = primes[:-n_held], primes[-n_held:]
        residual = _residuals(work, digits, sums, fit_primes, M)
        terms, recovered = list(work.terms), []
        for i, (term, w) in enumerate(zip(work.terms, windows)):
            if term.known:
                continue
            value, used = _read_coefficient(term.constant, digits, term.exponent, w, residual)
            if value is None:
                raise ReconstructionFailed(
                    f"no bounded rational fits the coefficient at p^{term.exponent} "
                    f"(primes used: {used}); increase the prime count"
                )
            if any(value.denominator % p == 0 for p in primes):
                break
            recovered.append(value)
            terms[i] = term = replace(term, coefficient=value)
            for p in fit_primes:
                residual[p] = (residual[p]
                               - _term_mod(term, digits[term.constant][p], p, M)) % p**M
        else:
            break  # no recovered denominator meets the range
        # refit without the range primes dividing the recovered denominator
        primes = [p for p in primes if value.denominator % p != 0]

    for p, r in residual.items():
        if r:
            raise InconsistentResidues(
                f"template does not explain the residue at p={p} modulo p^{M}"
            )

    completed = replace(work, terms=tuple(terms))
    return FitResult(
        coefficients=tuple(recovered),
        template=completed,
        fit_primes=tuple(fit_primes),
        held_out_primes=tuple(held_out),
        held_out_report=_report(spec, completed, digits, sums, held_out),
    )


@record
class CandidateFit:
    constant: TemplateConstant
    coefficient: Optional[Fraction]
    primes_used: int
    note: str = ""


@record
class ScanReport:
    outcome: str  # "found" | "no_defect" | "indeterminate"
    defect_exponent: Optional[int]
    digits: dict[int, int]
    candidates: tuple[CandidateFit, ...]
    note: str = ""


def scan_next_term(
    spec: SeriesSpec,
    tpl: ExpansionTemplate,
    primes: Sequence[int],
    candidates: Sequence[TemplateConstant],
    *,
    max_power: Optional[int] = None,
) -> ScanReport:
    """Probe the defect sum - template beyond the verified modulus and try
    to express its first nonzero digit as rational * candidate(p).

    Templates whose last term carries a one-digit constant (zeta_p / L_p)
    cannot be probed past their modulus -- the constant's own next digit is
    unknown -- and the scan reports that outcome instead of guessing.
    ``max_power`` (default M + 4) must exceed M, else InvariantViolation;
    a template that fails modulo p^M at some prime raises
    InconsistentResidues.  The primes that ``_judge`` rejects are dropped
    first, and InvariantViolation is raised when none is left.  A candidate
    that is also a template constant reuses the judgement's reading of it.
    """
    if not tpl.fully_known:
        raise UnknownCoefficient("template has unresolved coefficients")
    M = tpl.modulus_power
    limit = max_power if max_power is not None else M + 4
    if limit <= M:
        raise InvariantViolation(
            "max_power", f"must exceed the template's mod_power {M}, got {limit}")
    # the template invariant puts any one-digit term at p^(M-1)
    if any(isinstance(t.constant, ONE_DIGIT) and not is_structural_zero(t.constant)
           for t in tpl.terms):
        return ScanReport(
            outcome="indeterminate",
            defect_exponent=None,
            digits={},
            candidates=tuple(
                CandidateFit(constant=c, coefficient=None, primes_used=0,
                             note="template not evaluable past its modulus")
                for c in candidates
            ),
            note=(
                "the template's one-digit constant at slot "
                f"p^{M - 1} caps evaluation at p^{M}; "
                "the defect beyond the modulus is unknowable"
            ),
        )

    primes, _, digits = _judge(spec, tpl, primes)
    if not primes:
        raise InvariantViolation("primes", "scanning needs at least one, got 0")
    # all surviving constants are exact (One/Kron), so the template extends
    # to any modulus
    sums = truncated_sums_mod(spec.scaled(tpl.scale), primes, limit)
    defects = _residuals(tpl, digits, sums, primes, limit)
    failing = next((p for p in primes if defects[p] % p**M), None)
    if failing is not None:
        raise InconsistentResidues(
            f"template fails below its modulus: at p={failing} the defect has "
            f"valuation {valuation(defects[failing], failing)} < {M}"
        )

    exponent = next((e for e in range(M, limit)
                     if any(d % p ** (e + 1) for p, d in defects.items())), None)
    # with no defect every candidate reads the all-zero digit at p^(limit-1)
    slot = limit - 1 if exponent is None else exponent
    fits = []
    for cand in candidates:
        if is_structural_zero(cand):
            fits.append(CandidateFit(constant=cand, coefficient=None,
                                     primes_used=0,
                                     note="structurally zero constant"))
            continue
        if cand not in digits:
            digits[cand] = constant_values(cand, primes)
        value, used = _read_coefficient(cand, digits, slot, 1, defects)
        fits.append(CandidateFit(constant=cand, coefficient=value, primes_used=used,
                                 note="no bounded rational fits" if value is None else ""))
    return ScanReport(
        outcome="no_defect" if exponent is None else "found",
        defect_exponent=exponent,
        digits={p: defects[p] // p**slot % p for p in primes},
        candidates=tuple(fits),
        note=(f"sum agrees with the template modulo p^{limit} at every prime"
              if exponent is None else ""),
    )

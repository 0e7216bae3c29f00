"""Data model and evaluators for Ramanujan-like hypergeometric series:
exact terms, exact and modular truncated sums over n = 0..p-1, and
high-precision numeric evaluation of the full sums against their closed
forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .constants import PiPower, SqrtDisc, constant_value, to_mpf
from .errors import BadPrime, GuardExhausted, InvariantViolation, NegativeValuationSum
from .exactnum import PadicResidue, padic_inv, reduce_rational

_GUARD_START = 4
_GUARD_MAX = 32


@dataclass(frozen=True)
class ClosedForm:
    """coefficient * sqrt(sqrt_disc) / pi^pi_exponent."""

    coefficient: Fraction
    sqrt_disc: int = 1
    pi_exponent: int = 0

    def __post_init__(self) -> None:
        if self.sqrt_disc < 1:
            raise InvariantViolation("rhs.sqrt_disc", "must be a positive integer")
        if self.pi_exponent < 0:
            raise InvariantViolation("rhs.pi_exponent", "must be >= 0")


@dataclass(frozen=True)
class SeriesSpec:
    """One series: sum over n of

        multiplier * prod (a_i)_n / prod (b_j)_n
                   * sign^n * base^n * P(n) / (alpha*n + beta)

    with all data exact rationals.  The (1)_n factors of the denominator are
    listed explicitly in ``lower``.
    """

    name: str
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    sign: int
    base: Fraction
    poly: tuple[Fraction, ...]
    denom_linear: Optional[tuple[Fraction, Fraction]]
    multiplier: Fraction
    rhs: ClosedForm

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise InvariantViolation("sign", "must be +1 or -1")
        if not 0 < self.base < 1:
            raise InvariantViolation("base", "must satisfy 0 < base < 1")
        for label, params in (("upper", self.upper), ("lower", self.lower)):
            for a in params:
                if not 0 < a <= 1:
                    raise InvariantViolation(label, f"parameter {a} outside (0, 1]")
        if len(self.upper) != len(self.lower):
            # unbalanced parameter lists break the term-ratio limit sign*base
            # that the geometric tail bounds rely on
            raise InvariantViolation(
                "lower", "upper and lower parameter lists must have equal length"
            )
        if not self.poly:
            raise InvariantViolation("poly", "must be non-empty")
        if len(self.poly) > 1 and self.poly[-1] == 0:
            raise InvariantViolation("poly", "leading coefficient must be nonzero")
        if self.denom_linear is not None:
            alpha, beta = self.denom_linear
            if alpha < 0:
                raise InvariantViolation("denom_linear", "alpha must be >= 0")
            if beta == 0 or (alpha > 0 and (-beta / alpha).denominator == 1
                             and -beta / alpha >= 0):
                raise InvariantViolation(
                    "denom_linear", "alpha*n + beta vanishes at an integer n >= 0"
                )

    def is_bad_prime(self, p: int) -> bool:
        """True when the prime p divides the denominator of a series datum."""
        qs = [self.base, self.multiplier, *self.upper, *self.lower, *self.poly,
              *(self.denom_linear or ())]
        return any(q.denominator % p == 0 for q in qs)

    def scaled(self, scale: Fraction) -> "SeriesSpec":
        """Same series with the global prefactor multiplied by ``scale``."""
        if scale == 1:
            return self
        return replace(self, multiplier=self.multiplier * scale)

    def poly_at(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.poly):
            acc = acc * x + c
        return acc

    def linear_at(self, n: Fraction | int) -> Fraction:
        if self.denom_linear is None:
            return Fraction(1)
        alpha, beta = self.denom_linear
        return alpha * n + beta

    def hyper_ratio(self, n: int) -> Fraction:
        """Ratio of consecutive hypergeometric parts (without P and the
        linear denominator): sign * base * prod(a_i + n) / prod(b_j + n)."""
        r = self.sign * self.base
        for a in self.upper:
            r *= a + n
        for b in self.lower:
            r /= b + n
        return r


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Fraction(1)
    a = Fraction(a)
    for k in range(n):
        out *= a + k
    return out


def term_exact(spec: SeriesSpec, n: int) -> Fraction:
    """The n-th term, evaluated from the product formula."""
    t = spec.multiplier * Fraction(spec.sign) ** n * spec.base**n
    for a in spec.upper:
        t *= pochhammer(a, n)
    for b in spec.lower:
        t /= pochhammer(b, n)
    return t * spec.poly_at(n) / spec.linear_at(n)


def truncated_sum_exact(spec: SeriesSpec, p: int) -> Fraction:
    """Exact sum of the first p terms, with the incremental ratio update."""
    total = Fraction(0)
    h = spec.multiplier
    for n in range(p):
        total += h * spec.poly_at(n) / spec.linear_at(n)
        if n < p - 1:
            h *= spec.hyper_ratio(n)
    return total


def truncated_sum_mod(spec: SeriesSpec, p: int, m: int) -> PadicResidue:
    """The truncated sum as a residue with absolute precision >= m.

    Terms are accumulated in tracked-valuation arithmetic at working unit
    precision m + g; transient negative valuations up to g pass through
    losslessly.  The guard g starts at 4 and doubles (up to 32) whenever a
    term comes out knowing fewer than m digits.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if spec.is_bad_prime(p):
        raise BadPrime(f"p={p} divides a structural denominator of {spec.name}")
    guard = _GUARD_START
    while True:
        result = _truncated_sum_attempt(spec, p, m, m + guard)
        if result is not None:
            if not result.is_zero and result.m > 0 and result.v < 0:
                raise NegativeValuationSum(
                    f"{spec.name} at p={p}: sum has valuation {result.v}"
                )
            return result
        guard *= 2
        if guard > _GUARD_MAX:
            raise GuardExhausted(
                f"{spec.name} at p={p}: guard digits exhausted at m={m}"
            )


def _truncated_sum_attempt(
    spec: SeriesSpec, p: int, m: int, width: int
) -> Optional[PadicResidue]:
    """One pass at unit precision ``width``; None means the guard was too small."""
    h = reduce_rational(spec.multiplier, p, width)
    acc = PadicResidue.exact_zero(p)
    for n in range(p):
        pn = spec.poly_at(n)
        if pn == 0 or h.is_zero:
            term = PadicResidue.exact_zero(p)
        else:
            term = h * reduce_rational(pn, p, width)
            lin = spec.linear_at(n)
            if lin != 1:
                term = term * padic_inv(reduce_rational(lin, p, width))
        if not term.is_zero and term.abs_prec < m:
            return None
        acc = acc + term
        if n < p - 1 and not h.is_zero:
            h = h * reduce_rational(spec.hyper_ratio(n), p, width)
    if not acc.is_zero and acc.abs_prec < m:
        return None
    return acc


def numeric_sum(spec: SeriesSpec, precision_bits: int) -> tuple[mpf, mpf]:
    """(value, certified_bound): the full sum truncated once the geometric
    tail bound (last term * r/(1-r), with a safety-inflated ratio r) drops
    below 2^-precision_bits.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    with mp.workprec(precision_bits + 48):
        target = mpf(2) ** (-precision_bits)
        base_m = to_mpf(spec.base)
        h = to_mpf(spec.multiplier)
        total = mp.zero
        n = 0
        t_cur = h * to_mpf(spec.poly_at(0) / spec.linear_at(0))
        terms = 0
        while True:
            total += t_cur
            terms += 1
            h = h * to_mpf(spec.hyper_ratio(n))
            n += 1
            t_next = h * to_mpf(spec.poly_at(n) / spec.linear_at(n))
            if t_cur != 0:
                rho = abs(t_next / t_cur)
            else:
                rho = base_m
            # safety-inflated ratio covering residual polynomial growth
            r_star = max(base_m, rho) * (1 + mpf(8) / n)
            if r_star < 1:
                tail = abs(t_next) / (1 - r_star)
                if tail < target:
                    rounding = (terms + 1) * mp.eps * (abs(total) + 1)
                    return +total, +(tail + rounding)
            t_cur = t_next


def rhs_value(spec: SeriesSpec, precision_bits: int) -> mpf:
    """The claimed closed form, assembled from the constant engine."""
    with mp.workprec(precision_bits + 48):
        value = to_mpf(spec.rhs.coefficient)
        if spec.rhs.sqrt_disc > 1:
            value *= constant_value(SqrtDisc(spec.rhs.sqrt_disc), precision_bits)
        if spec.rhs.pi_exponent > 0:
            value *= constant_value(PiPower(spec.rhs.pi_exponent), precision_bits)
        return +value

"""Data model and evaluators for Ramanujan-like hypergeometric series:
exact terms, exact truncated sums over n = 0..p-1, their residues modulo p^m
at many primes from one integer recurrence, and high-precision numeric
evaluation of the full sums against their closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from mpmath import mp, mpf

from .constants import PiPower, SqrtDisc, constant_value, to_mpf
from .errors import BadPrime, InvariantViolation, NegativeValuationSum
from .exactnum import valuation


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

    def check_prime(self, p: int) -> None:
        """Raise BadPrime when ``is_bad_prime(p)``."""
        if self.is_bad_prime(p):
            raise BadPrime(f"p={p} divides a structural denominator of {self.name}")

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


def _integer_factors(spec: SeriesSpec):
    """Integer polynomials num, den, a, b and a rational c with
    hyper_ratio(n) = num(n)/den(n) and poly_at(n)/linear_at(n) = c*a(n)/b(n)."""
    num_k = spec.sign * spec.base.numerator * math.prod(b.denominator for b in spec.lower)
    den_k = spec.base.denominator * math.prod(a.denominator for a in spec.upper)
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower]
    poly_den = math.lcm(*(c.denominator for c in spec.poly))
    poly = [c.numerator * (poly_den // c.denominator) for c in reversed(spec.poly)]
    alpha, beta = spec.denom_linear or (Fraction(0), Fraction(1))
    lin_den = math.lcm(alpha.denominator, beta.denominator)
    lin = (alpha.numerator * (lin_den // alpha.denominator),
           beta.numerator * (lin_den // beta.denominator))

    def num(n: int) -> int:
        return num_k * math.prod(u + w * n for u, w in upper)

    def den(n: int) -> int:
        return den_k * math.prod(u + w * n for u, w in lower)

    def a(n: int) -> int:
        acc = 0
        for c in poly:
            acc = acc * n + c
        return acc

    def b(n: int) -> int:
        return lin[0] * n + lin[1]

    return num, den, a, b, spec.multiplier * lin_den / poly_den


def truncated_sums_mod(spec: SeriesSpec, primes: Iterable[int], m: int) -> dict[int, int]:
    """The truncated sum over n < p modulo p^m, as an integer in [0, p^m),
    for every prime p given, from one exact pass over n < max(primes).

    With the integer factors of ``_integer_factors`` the partial sum through
    term n is c*N/D, kept exactly; H is the product of num(k)*b(k) over k < n.
    Adding term n is N <- N*b(n) + a(n)*H, D <- D*b(n); advancing the ratio
    multiplies N and D by den(n) and H by num(n)*b(n).  Every step multiplies
    by small integers only.  At p, with v = v_p(D) found exactly, the sum is
    (c*N / p^v) * (D / p^v)^-1 modulo p^m, read from N and D modulo p^(v+m).

    Raises BadPrime when a prime divides a structural denominator, and
    NegativeValuationSum at the first prime where the sum is not p-integral.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    primes = sorted(set(primes))
    for p in primes:
        spec.check_prime(p)
    num, den, a, b, c = _integer_factors(spec)
    out: dict[int, int] = {}
    N, D, H = 0, 1, 1
    for n in range(primes[-1] if primes else 0):
        bn = b(n)
        N = N * bn + a(n) * H
        D *= bn
        p = n + 1
        if p == primes[len(out)]:
            v = 0
            while D % p ** (v + 1) == 0:
                v += 1
            pv, pm = p**v, p**m
            top = N % (pv * pm) * c.numerator % (pv * pm)
            if top % pv:
                raise NegativeValuationSum(
                    f"{spec.name} at p={p}: sum has valuation {valuation(top, p) - v}"
                )
            unit = D % (pv * pm) // pv * c.denominator
            out[p] = top // pv * pow(unit, -1, pm) % pm
        dn = den(n)
        N *= dn
        D *= dn
        H *= num(n) * bn
    return out


def truncated_sum_mod(spec: SeriesSpec, p: int, m: int) -> int:
    """``truncated_sums_mod`` at the single prime p."""
    return truncated_sums_mod(spec, [p], m)[p]


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

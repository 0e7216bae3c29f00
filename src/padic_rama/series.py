"""Data model and evaluators for Ramanujan-like hypergeometric series: one
integer recurrence, the step triple ``exactnum._step`` on the integer
factors of ``_integer_factors``, gives both the truncated sums over
n = 0..p-1 modulo p^m at many primes (read by ``exactnum.prefix_sums_mod``)
and the full sums (summed exactly by the product tree ``exactnum._steps``
and rounded once), to check against their closed forms.
``truncated_sum_exact`` sums the first p terms in Fractions, as the
reference for the modular sums.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from ._record import record, replace
from .constants import PiPower, SqrtDisc, constant_value, to_mpf
from .errors import BadPrime, InvariantViolation, NegativeValuationSum
from .exactnum import _steps, prefix_sums_mod, valuation

if TYPE_CHECKING:
    from mpmath import mpf


@record
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


@record
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

    @property
    def vanishes(self) -> bool:
        """True when every term is zero (a zero multiplier or P = 0)."""
        return self.multiplier == 0 or not any(self.poly)

    def inadmissible(self, p: int) -> str:
        """Why the prime p cannot read the series, or "" when it can: p
        divides the denominator of a series datum."""
        qs = [self.base, self.multiplier, *self.upper, *self.lower, *self.poly,
              *(self.denom_linear or ())]
        if any(q.denominator % p == 0 for q in qs):
            return f"p={p} divides a structural denominator of {self.name}"
        return ""

    def scaled(self, scale: Fraction) -> "SeriesSpec":
        """Same series with the global prefactor multiplied by ``scale``."""
        if scale == 1:
            return self
        return replace(self, multiplier=self.multiplier * scale)


def truncated_sum_exact(spec: SeriesSpec, p: int) -> Fraction:
    """Exact sum of the first p terms in Fractions, read straight from the
    series data: the reference that the modular sums are checked against."""
    alpha, beta = spec.denom_linear or (0, 1)
    total, h = Fraction(0), spec.multiplier  # h: term n without P(n)/(alpha n + beta)
    for n in range(p):
        total += h * sum(c * n**i for i, c in enumerate(spec.poly)) / (alpha * n + beta)
        h *= (spec.sign * spec.base * math.prod(a + n for a in spec.upper)
              / math.prod(b + n for b in spec.lower))
    return total


def _distinct(params: tuple[Fraction, ...]) -> tuple[tuple[int, int, int], ...]:
    """(u, w, e) for each distinct parameter u/w of a list and its count e:
    eq2's five parameters 1/2 give the one factor (1 + 2n)^5."""
    counts: dict[Fraction, int] = {}
    for q in params:
        counts[q] = counts.get(q, 0) + 1
    return tuple((q.numerator, q.denominator, e) for q, e in counts.items())


def _expanded(k: int, factors: tuple[tuple[int, int, int], ...]) -> list[int]:
    """The coefficients, highest degree first, of k * prod (u + w*x)^e over
    (u, w, e) in factors."""
    coeffs = [k]
    for u, w, e in factors:
        for _ in range(e):
            coeffs = [w * c + u * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _polynomial(coeffs: list[int]):
    """n -> the polynomial with these coefficients (highest degree first)
    at n, by Horner's rule."""
    def at(n: int) -> int:
        acc = 0
        for c in coeffs:
            acc = acc * n + c
        return acc

    return at


def _integer_factors(spec: SeriesSpec):
    """Integer polynomials num, den, a, b, a rational c and the linear data
    of den and b, such that term n of the series is c * a(n)/b(n) *
    prod_{k<n} num(k)/den(k): num(n)/den(n) is the ratio sign * base *
    prod (a_i + n) / prod (b_j + n) of the hypergeometric parts, and
    c * a(n)/b(n) is multiplier * P(n) / (alpha*n + beta), with a and b
    cleared of denominators.  num and den are expanded once from the
    distinct parameters' powers.  The linear data (den_k, lower, lin) spell
    out den(n) = den_k * prod (u + w*n)^e over (u, w, e) in lower, and
    b(n) = u + w*n for (u, w) = lin."""
    num_k = spec.sign * spec.base.numerator * math.prod(b.denominator for b in spec.lower)
    den_k = spec.base.denominator * math.prod(a.denominator for a in spec.upper)
    lower = _distinct(spec.lower)
    poly_den = math.lcm(*(c.denominator for c in spec.poly))
    alpha, beta = spec.denom_linear or (Fraction(0), Fraction(1))
    lin_den = math.lcm(alpha.denominator, beta.denominator)
    lin = (beta.numerator * (lin_den // beta.denominator),
           alpha.numerator * (lin_den // alpha.denominator))

    def b(n: int) -> int:
        return lin[0] + lin[1] * n

    return (_polynomial(_expanded(num_k, _distinct(spec.upper))),
            _polynomial(_expanded(den_k, lower)),
            _polynomial([c.numerator * (poly_den // c.denominator) for c in reversed(spec.poly)]),
            b, spec.multiplier * lin_den / poly_den, (den_k, lower, lin))


def _linear_valuation(u: int, w: int, p: int, count: int) -> int:
    """v_p of prod_{0<=k<count} (u + w*k), no factor zero: the sum over e >= 1
    of the number of k < count with p^e | u + w*k.  With p^j = gcd(w, p^e),
    those k are none when p^j does not divide u, and otherwise the k = k0
    modulo p^(e-j): every k once p^e divides u and w.  The number only falls
    as e grows, and it is 0 once p^e exceeds every factor."""
    v, pe = 0, p
    while u % (g := math.gcd(w, pe)) == 0:
        step = pe // g
        k0 = -(u // g) * pow(w // g, -1, step) % step
        if k0 >= count:
            break
        v += (count - 1 - k0) // step + 1
        pe *= p
    return v


def _den_valuation(factors, p: int) -> int:
    """v_p(D) for the state D after step p - 1, counted from the linear data
    of ``_integer_factors`` without forming D: by ``_step``, D is
    c.denominator * prod_{k<=p-2} den(k) * prod_{k<=p-1} b(k)."""
    *_, c, (den_k, lower, lin) = factors
    return (_linear_valuation(c.denominator, 0, p, 1)
            + _linear_valuation(den_k, 0, p, p - 1)
            + sum(e * _linear_valuation(u, w, p, p - 1) for u, w, e in lower)
            + _linear_valuation(*lin, p, p))


def truncated_sums_mod(spec: SeriesSpec, primes: Iterable[int], m: int) -> dict[int, int]:
    """The truncated sum over n < p modulo p^m, as an integer in [0, p^m),
    for every prime p given, from the state (N, D) after step p - 1 of
    ``_step`` (``prefix_sums_mod``): with v = v_p(D) counted from the factor
    data (``_den_valuation``), it is (N / p^v) * (D / p^v)^-1 modulo p^m, so
    N and D are read modulo p^(m+v).

    Raises BadPrime when a prime divides a structural denominator, and
    NegativeValuationSum at the first prime where the sum is not p-integral.
    RuntimeError means D modulo p^(v+1) does not have valuation v: a fault
    in the valuation count, not in the input, so no command reports it as a
    usage error.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    primes = sorted(set(primes))
    for p in primes:
        if why := spec.inadmissible(p):
            raise BadPrime(why)
    factors = _integer_factors(spec)
    vs = [_den_valuation(factors, p) for p in primes]
    reads = prefix_sums_mod(factors, primes, [p ** (m + v) for p, v in zip(primes, vs)])
    out: dict[int, int] = {}
    for p, v, (top, bottom) in zip(primes, vs, reads):
        pv, pm = p**v, p**m
        if bottom % pv or bottom % (pv * p) == 0:
            raise RuntimeError(f"{spec.name} at p={p}: v_p(D) is not {v}")
        if top % pv:
            raise NegativeValuationSum(
                f"{spec.name} at p={p}: sum has valuation {valuation(top, p) - v}"
            )
        out[p] = top // pv * pow(bottom // pv, -1, pm) % pm
    return out


def truncated_sum_mod(spec: SeriesSpec, p: int, m: int) -> int:
    """``truncated_sums_mod`` at the single prime p."""
    return truncated_sums_mod(spec, [p], m)[p]


def _fdiv(x: int, y: int) -> mpf:
    """``mp.fdiv(x, y)`` for integers x and y > 0: the same correctly
    rounded mpf at the working precision.  mpmath strips trailing zero bits
    from each integer a byte at a time and then divides out every bit by
    which x is longer than y; here the quotient q = floor(v) of
    v = |x| 2^k / y gets prec + 5 bits and a sticky bit (v > q), which round
    the same way.

    q is read from the leading bits: with the low s bits cut from |x| 2^k and
    from y, leaving xh (2 (prec + 5) + 64 bits) and yh (prec + 69 bits), v
    lies strictly between xh / (yh + 1) and (xh + 1) / yh, an interval about
    2^-62 wide.  When both ends have the same floor, that floor is q and
    v > q, so the sticky bit is set.  Only when an integer falls in the
    interval (an exact quotient, or one within about 2^-62 of an integer)
    is the quotient taken by an exact ``divmod``.
    """
    from mpmath import mp
    from mpmath.libmp import from_man_exp, round_nearest

    k = mp.prec + 5 - x.bit_length() + y.bit_length()

    def rounded(man: int) -> mpf:
        return mp.make_mpf(from_man_exp(-man if x < 0 else man, -k - 1, mp.prec,
                                        round_nearest))

    s = y.bit_length() - mp.prec - 69
    if s > 0:
        xh = abs(x) << (k - s) if k >= s else abs(x) >> (s - k)
        yh = y >> s
        q = xh // (yh + 1)
        if xh and q == (xh + 1) // yh:
            return rounded(2 * q + 1)
    q, r = divmod(abs(x) << k, y) if k >= 0 else divmod(abs(x), y << -k)
    return rounded(2 * q + (r != 0))


def numeric_sum(spec: SeriesSpec, precision_bits: int) -> tuple[mpf, mpf]:
    """(value, certified_bound): the full sum, summed exactly in integers by
    the ``_step`` recurrence and rounded once, to precision_bits + 48 bits.

    Summation stops before term n once the geometric tail bound
    |term n| / (1 - r) is below 2^-precision_bits, tested exactly; r is
    max(base, |term n / term n-1|) inflated by (1 + 8/n) to cover residual
    polynomial growth.  A zero term (a root of P) bounds nothing and never
    stops the sum, unless every term vanishes.  The bound adds
    (terms + 1) * eps * (|value| + 1).

    The stop index is found by a float screen S = precision_bits + log2 of
    the tail bound, built from log2 of the small factors: S < 0 is the stop
    test.  The running sum of log2|num(k)/den(k)| is kept in integer units
    of 2^-32 bit, so each of its n increments errs by less than 2^-32 bit
    and the additions add nothing; the float operations that finish S (a
    division, six additions and the log2 of four small integers) err by
    less than 2^-18 bit while its summands stay below 2^30.  So S is within
    (n + 2^14) * 2^-32 bit of its exact value, below the margin delta = 1
    bit for any n < 2^31, and S >= 1 means "not yet" for certain.  At each
    n with S < 1, one product tree of the steps since the last exact state
    (``_steps``) brings the exact state to n and the exact integer test
    decides.  The trees cost O(M(size) log n) in all, where testing every
    term exactly costs n passes over growing integers.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    from mpmath import mp

    num, den, a, b, c, _ = factors = _integer_factors(spec)
    base = spec.base
    N, D, H = 0, c.denominator, c.numerator  # the state before step `done`
    done = 0
    log_c = 0.0 if spec.vanishes else (math.log2(abs(c.numerator))
                                       - math.log2(c.denominator))
    log_hyper = 0  # log2 |prod_{k<n} num(k)/den(k)|, in units of 2^-32 bit
    a_prev = a(0)
    for n in itertools.count(1):
        num_prev, den_prev, b_prev = num(n - 1), den(n - 1), b(n - 1)
        log_hyper += round(
            (math.log2(abs(num_prev)) - math.log2(abs(den_prev))) * 2**32)
        an, bn = a(n), b(n)
        rn, rd = base.numerator, base.denominator
        if a_prev:  # |term n / term n-1| when term n-1 is not zero
            rho_n, rho_d = abs(an * num_prev * b_prev), abs(a_prev * den_prev * bn)
            if rho_n * rd >= rn * rho_d:
                rn, rd = rho_n, rho_d
        rn, rd = rn * (n + 8), rd * n  # r = rn/rd
        a_prev = an
        if rn >= rd:
            continue
        if not spec.vanishes and (not an or (
                log_hyper / 2**32 + log_c + math.log2(abs(an)) - math.log2(abs(bn))
                + math.log2(rd) - math.log2(rd - rn) + precision_bits >= 1)):
            continue
        q, t, p = _steps(factors, done, n + 1)
        N, D, H = q * N + t * H, q * D, p * H
        done = n + 1
        T = an * H  # T/D: term n; N/D: terms 0..n
        top, bot = abs(T) * rd, abs(D) * (rd - rn)
        if top << precision_bits < bot:
            with mp.workprec(precision_bits + 48):
                total = _fdiv(N - T, D)
                rounding = (n + 1) * mp.eps * (abs(total) + 1)
                return total, _fdiv(top, bot) + rounding


def rhs_value(spec: SeriesSpec, precision_bits: int) -> mpf:
    """The claimed closed form, assembled from the constant engine."""
    from mpmath import mp

    with mp.workprec(precision_bits + 48):
        value = to_mpf(spec.rhs.coefficient)
        if spec.rhs.sqrt_disc > 1:
            value *= constant_value(SqrtDisc(spec.rhs.sqrt_disc), precision_bits)
        if spec.rhs.pi_exponent > 0:
            value *= constant_value(PiPower(spec.rhs.pi_exponent), precision_bits)
        return +value

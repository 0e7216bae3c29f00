"""Exact-arithmetic substrate: rationals, their reduction modulo prime powers
with tracked valuation, Kronecker symbols, CRT and rational reconstruction.

Rationals are stdlib ``fractions.Fraction`` throughout: it already guarantees
the canonical form (reduced, positive denominator, zero = 0/1) that every
other module relies on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._record import record
from .errors import NegativeValuationSum, NonCoprimeModuli, PrecisionUnavailable


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@record
class PadicResidue:
    """p^v * u known modulo p^(v+m), i.e. with m known unit digits.

    Two shapes occur:
      * exact zero: ``is_zero`` set, remaining fields ignored (stored as 0);
      * ordinary value: m >= 1, u in [1, p^m) with p not dividing u.

    Instances are immutable and never report more precision than they hold.
    """

    p: int
    v: int = 0
    u: int = 0
    m: int = 0
    is_zero: bool = False

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.is_zero:
            if (self.v, self.u, self.m) != (0, 0, 0):
                raise ValueError("exact zero must carry zeroed fields")
            return
        if self.m < 1:
            raise ValueError("unit precision m must be >= 1")
        if not (1 <= self.u < self.p**self.m) or self.u % self.p == 0:
            raise ValueError("unit must lie in [1, p^m) and be coprime to p")

    @classmethod
    def exact_zero(cls, p: int) -> "PadicResidue":
        return cls(p=p, is_zero=True)

    @property
    def abs_prec(self) -> float:
        """Absolute precision: the value is known modulo p^abs_prec."""
        return math.inf if self.is_zero else self.v + self.m

    def residue(self, mod_power: int) -> int:
        """The value as an integer in [0, p^mod_power).

        Requires nonnegative valuation and absolute precision >= mod_power.
        """
        if self.is_zero:
            return 0
        if self.v < 0:
            raise NegativeValuationSum(f"valuation {self.v} < 0")
        if self.abs_prec < mod_power:
            raise PrecisionUnavailable(
                f"known modulo p^{self.abs_prec}, asked for p^{mod_power}"
            )
        return self.u * self.p**self.v % self.p**mod_power

    def __repr__(self) -> str:
        if self.is_zero:
            return f"PadicResidue(p={self.p}, 0)"
        return (
            f"PadicResidue(p={self.p}, {self.p}^{self.v}*{self.u}"
            f" + O({self.p}^{self.v + self.m}))"
        )


def reduce_rational(q: Fraction | int, p: int, m: int) -> PadicResidue:
    """Reduce a rational to its class modulo p^(v+m): exact valuation v and
    m digits of the unit part.  Negative valuations are representable; it is
    the caller's decision whether they are fatal.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = Fraction(q)
    if q == 0:
        return PadicResidue.exact_zero(p)
    vn = valuation(q.numerator, p)
    vd = valuation(q.denominator, p)
    pm = p**m
    num = abs(q.numerator) // p**vn * (1 if q.numerator > 0 else -1)
    den = q.denominator // p**vd
    u = num * pow(den, -1, pm) % pm
    return PadicResidue(p=p, v=vn - vd, u=u, m=m)


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for n >= 1; 0 iff gcd(D, n) > 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    result = 1
    # factor of 2: (D|2) = 0 for even D, +1 for D = +-1 (mod 8), -1 otherwise
    e2 = valuation(n, 2) if n % 2 == 0 else 0
    if e2:
        if D % 2 == 0:
            return 0
        if e2 % 2 == 1 and D % 8 in (3, 5):
            result = -result
        n >>= e2
    if n == 1:
        return result
    a = D
    if a < 0:
        a = -a
        if n % 4 == 3:
            result = -result
    # Jacobi symbol (a|n) for odd n via quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@record
class ResidueClass:
    """An integer class value + M*Z with 0 <= value < M."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.value < self.modulus:
            raise ValueError("value must lie in [0, modulus)")


def crt_combine(pairs: Sequence[ResidueClass] | Iterable[ResidueClass]) -> ResidueClass:
    """The unique class modulo the product agreeing with every input.

    Moduli must be pairwise coprime (checked incrementally).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("crt_combine needs at least one residue")
    x, M = pairs[0].value, pairs[0].modulus
    for rc in pairs[1:]:
        if math.gcd(M, rc.modulus) != 1:
            raise NonCoprimeModuli(f"moduli {M} and {rc.modulus} share a factor")
        t = (rc.value - x) * pow(M, -1, rc.modulus) % rc.modulus
        x += M * t
        M *= rc.modulus
    return ResidueClass(x % M, M)


def rational_reconstruct(r: ResidueClass) -> Optional[Fraction]:
    """Recover the unique n/d with |n|, d <= floor(sqrt(M/2)), gcd(d, M) = 1
    and n = r*d (mod M), if one exists (half-extended Euclid, symmetric
    height bound).  Absence is a value, not an error.
    """
    M = r.modulus
    if M < 2:
        raise ValueError("modulus must be >= 2")
    bound = math.isqrt(M // 2)
    r0, s0 = M, 0
    r1, s1 = r.value, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if den > bound or abs(num) > bound or den == 0:
        return None
    if math.gcd(den, M) != 1:
        return None
    q = Fraction(num, den)
    # re-verify after reduction (gcd(num, den) may have been > 1)
    if abs(q.numerator) > bound or q.denominator > bound:
        return None
    if (q.numerator - r.value * q.denominator) % M != 0:
        return None
    return q


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi (simple sieve)."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(max(lo, 2), hi + 1) if sieve[i]]

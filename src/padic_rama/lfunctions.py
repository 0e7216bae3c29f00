"""Bernoulli numbers (exact, and a mod-p table kept as a test oracle),
quadratic Dirichlet characters, the rational values of zeta and quadratic
L-functions at non-positive integers, and the single p-adic digit of
zeta_p(k) / L_{D,p}(k) that the congruence machinery consumes.  That digit is
a Kummer value, -B_{m,chi}/m mod p with m = p-k, and one power sum over
a <= f p gives B_{m,chi} mod p for zeta_p (f = 1) and for L_p alike.

Convention: B_1 = -1/2 everywhere, so that zeta(1-k) = -B_k/k and
L(1-m, chi) = -B_{m,chi}/m hold with no sign fixups.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .errors import BadPrime, InvariantViolation, PrecisionUnavailable
from .exactnum import kronecker, prime_factors

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_bernoulli_lock = threading.Lock()


def bernoulli_exact(k: int) -> Fraction:
    """B_k as an exact rational, via the defining convolution
    sum_{j=0}^{k} C(k+1, j) B_j = 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(_bernoulli_cache):
        with _bernoulli_lock:
            for n in range(len(_bernoulli_cache), k + 1):
                if n % 2 == 1:
                    _bernoulli_cache.append(Fraction(0))
                    continue
                acc = sum(
                    comb(n + 1, j) * _bernoulli_cache[j] for j in range(n)
                )
                _bernoulli_cache.append(Fraction(-acc, n + 1))
    return _bernoulli_cache[k]


@dataclass(frozen=True)
class BernoulliTableModP:
    """B_0 .. B_{p-3} reduced mod p (all of them p-integral for p >= 5)."""

    p: int
    values: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.values[k]


def bernoulli_all_mod_p(p: int) -> BernoulliTableModP:
    """All of B_0 .. B_{p-3} mod p at once, via mod-p inversion of the power
    series (e^x - 1)/x.  O(p^2) word operations; factorials up to p-3 stay
    invertible.  No library path calls it: it is the oracle the tests hold
    the power-sum digits of zeta_p_mod_p / L_p_mod_p against.
    """
    if p < 5:
        raise ValueError("p must be a prime >= 5")
    top = p - 3
    # factorials and inverse factorials mod p up to top+1
    fact = [1] * (top + 2)
    for i in range(1, top + 2):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * (top + 2)
    inv_fact[top + 1] = pow(fact[top + 1], -1, p)
    for i in range(top + 1, 0, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    # A = (e^x - 1)/x has A_i = 1/(i+1)!; invert the series mod x^{top+1}
    A = [inv_fact[i + 1] for i in range(top + 1)]
    C = [0] * (top + 1)
    C[0] = 1
    for n in range(1, top + 1):
        s = 0
        for j in range(1, n + 1):
            s += A[j] * C[n - j]
        C[n] = -s % p
    values = tuple(C[n] * fact[n] % p for n in range(top + 1))
    return BernoulliTableModP(p=p, values=values)


def zeta_nonpositive(s: int) -> Fraction:
    """zeta(s) for s <= 0:  zeta(0) = -1/2,  zeta(1-k) = -B_k/k."""
    if s > 0:
        raise ValueError("s must be <= 0")
    if s == 0:
        return Fraction(-1, 2)
    k = 1 - s
    return -bernoulli_exact(k) / k


def _squarefree(n: int) -> bool:
    return all(n % (q * q) != 0 for q in prime_factors(n))


@dataclass(frozen=True)
class QuadCharacter:
    """The quadratic character a -> (D|a) of a fundamental discriminant D.

    D = 1 denotes the trivial character (Riemann zeta's L-series).
    """

    D: int

    def __post_init__(self) -> None:
        D = self.D
        if D == 1:
            return
        ok = (D % 4 == 1 and _squarefree(D)) or (
            D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(D // 4)
        )
        if not ok:
            raise InvariantViolation("discriminant", f"{D} is not fundamental")

    @property
    def conductor(self) -> int:
        return abs(self.D)

    @property
    def is_even(self) -> bool:
        """chi(-1) = +1 exactly when D > 0."""
        return self.D > 0

    def __call__(self, a: int) -> int:
        if a < 1:
            raise ValueError("character argument must be >= 1")
        return kronecker(self.D, a)


def generalized_bernoulli(chi: QuadCharacter, m: int) -> Fraction:
    """B_{m,chi} = f^{m-1} * sum_{a=1..f} chi(a) * B_m(a/f), with B_m(x)
    expanded through the binomial convolution over exact Bernoulli numbers.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    f = chi.conductor
    total = Fraction(0)
    for a in range(1, f + 1):
        c = chi(a)
        if c == 0:
            continue
        x = Fraction(a, f)
        poly = sum(
            comb(m, j) * bernoulli_exact(j) * x ** (m - j) for j in range(m + 1)
        )
        total += c * poly
    return Fraction(f) ** (m - 1) * total


def L_nonpositive(chi: QuadCharacter, s: int) -> Fraction:
    """L(s, chi) for s <= 0:  L(1-m, chi) = -B_{m,chi}/m."""
    if s > 0:
        raise ValueError("s must be <= 0")
    if chi.D == 1:
        return zeta_nonpositive(s)
    m = 1 - s
    return -generalized_bernoulli(chi, m) / m


@cache
def _bernoulli_chi_mod_p(D: int, m: int, p: int) -> int:
    """B_{m,chi} mod p for the character of discriminant D (D = 1: B_m), with
    p prime to the conductor f and 2 <= m <= p-2, from the power-sum
    congruence  sum_{a=1}^{f p} chi(a) a^m = f p B_{m,chi}  (mod p^2).

    Writing a = b + p j (0 <= b < p, 0 <= j < f), a^m = b^m + m p j b^(m-1)
    (mod p^2), and the character sums over j depend only on b mod f: the
    sum costs p powers instead of f p.
    """
    f, pp = abs(D), p * p
    chi = [kronecker(D, r or f) for r in range(f)]  # class 0 read at a = f
    whole = sum(chi)  # b + p j runs over every class mod f
    weight = [sum(j * chi[(s + p * j) % f] for j in range(f)) for s in range(f)]
    total = sum((whole * b + m * p * weight[b % f]) * pow(b, m - 1, pp)
                for b in range(1, p))
    return total % pp // p * pow(f, -1, p) % p


def zeta_p_mod_p(k: int, p: int) -> int:
    """The single known digit of zeta_p(k): 0 for even k (parity vanishing),
    else zeta(1+k-p) = -B_m/m mod p with m = p-k, B_m from a power sum.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if p < k + 2:
        raise PrecisionUnavailable(f"zeta_p({k}) mod {p} needs p >= {k + 2}")
    if k % 2 == 0:
        return 0
    m = p - k  # m is even and 2 <= m <= p-3
    return -_bernoulli_chi_mod_p(1, m, p) * pow(m, -1, p) % p


def L_p_mod_p(chi: QuadCharacter, k: int, p: int) -> int:
    """The single known digit of L_{D,p}(k): 0 when chi(-1) = (-1)^k (the
    parity/trivial zeros), else L(1+k-p, chi) = -B_{m,chi}/m mod p with
    m = p-k, B_{m,chi} from a power sum over a <= f p.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p >= 5 and chi.conductor % p == 0:
        raise BadPrime(f"p={p} divides the conductor {chi.conductor}")
    if chi.D == 1:
        return zeta_p_mod_p(k, p)
    if chi.is_even == (k % 2 == 0):
        return 0
    if p < k + 2:
        raise PrecisionUnavailable(f"L_p({k}) mod {p} needs p >= {k + 2}")
    m = p - k
    if m > p - 2:
        # k = 1 with even chi would need B_{p-1}, which is not p-integral
        raise PrecisionUnavailable(f"L_p(1) of an even character needs B_{p - 1}")
    return -_bernoulli_chi_mod_p(chi.D, m, p) * pow(m, -1, p) % p

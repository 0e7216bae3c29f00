"""Bernoulli numbers (exact, and a mod-p table kept as a test oracle),
quadratic Dirichlet characters, the rational values of zeta and quadratic
L-functions at non-positive integers, and the single p-adic digit of
L_{D,p}(k) that the congruence machinery consumes.  zeta_p is L_p of the
trivial character chi_1 (D = 1), so one routine serves both: the digit is a
Kummer value, -B_{m,chi}/m mod p with m = p-k, and one power sum over
a <= f p gives B_{m,chi} mod p (f = 1 for zeta_p).  Its p powers b^(m-1)
mod p^2 come from a multiplicative sieve: a modular power at each prime b
below p, one product of two earlier powers at each composite.

Convention: B_1 = -1/2 everywhere, so that zeta(1-k) = -B_k/k and
L(1-m, chi) = -B_{m,chi}/m hold with no sign fixups.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, isqrt

from ._record import record
from .errors import BadPrime, InvariantViolation, PrecisionUnavailable
from .exactnum import kronecker


@cache
def bernoulli_exact(k: int) -> Fraction:
    """B_k as an exact rational (mpmath.bernfrac)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    from mpmath import bernfrac

    return Fraction(*bernfrac(k))


def bernoulli_all_mod_p(p: int) -> tuple[int, ...]:
    """B_0 .. B_{p-3} mod p (all of them p-integral for p >= 5), from the
    defining convolution sum_{j=0}^{n} C(n+1, j) B_j = 0 with the binomial
    row kept mod p: O(p^2) word operations.  No library path calls it: it is
    the oracle the tests hold the power-sum digits of L_p_mod_p against.
    """
    if p < 5:
        raise ValueError("p must be a prime >= 5")
    B, row = [1], [1, 1]  # row n holds C(n+1, j) mod p
    for n in range(1, p - 2):
        row = [1, *((a + b) % p for a, b in zip(row, row[1:])), 1]
        B.append(-sum(c * b for c, b in zip(row, B)) * pow(n + 1, -1, p) % p)
    return tuple(B)


def zeta_nonpositive(s: int) -> Fraction:
    """zeta(s) = L(s, chi_1) for s <= 0:  zeta(1-k) = -B_k/k, zeta(0) = -1/2."""
    return L_nonpositive(QuadCharacter(1), s)


DISC_MAX = 1000  # bound on |D|: an L_p digit costs O(|D| + p) at each prime


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, isqrt(abs(n)) + 1))


@record
class QuadCharacter:
    """The quadratic character a -> (D|a) of a fundamental discriminant D
    with |D| <= DISC_MAX: the one rule for every discriminant a constant
    carries (``Kron``, ``LQp``, ``Lquad``).

    D = 1 denotes the trivial character (Riemann zeta's L-series).
    """

    D: int

    def __post_init__(self) -> None:
        D = self.D
        if abs(D) > DISC_MAX:
            raise InvariantViolation("discriminant", f"must be within -{DISC_MAX}..{DISC_MAX}")
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
    m = 1 - s
    return -generalized_bernoulli(chi, m) / m


def _bernoulli_chi_mod_p(D: int, m: int, p: int) -> int:
    """B_{m,chi} mod p for the character of discriminant D (D = 1: B_m), with
    p prime to the conductor f and 2 <= m <= p-2, from the power-sum
    congruence  sum_{a=1}^{f p} chi(a) a^m = f p B_{m,chi}  (mod p^2).

    Writing a = b + p j (0 <= b < p, 0 <= j < f), a^m = b^m + m p j b^(m-1)
    (mod p^2), and the character sums over j depend only on b mod f: the
    sum needs p powers instead of f p.  The weights sum_j j chi(s + p j) walk
    from s = 0 in O(f): weight[s + p] = weight[s] - sum(chi) + f chi(s).
    b -> b^(m-1) is completely multiplicative, so the powers come from a
    sieve built afresh at each call: ``pow`` at each prime b, and
    q^(m-1) (b/q)^(m-1) at a composite b with least prime factor q.
    """
    f, pp, e = abs(D), p * p, m - 1
    chi = [kronecker(D, r or f) for r in range(f)]  # class 0 read at a = f
    whole = sum(chi)  # b + p j runs over every class mod f
    weight = [sum(j * chi[p * j % f] for j in range(f))] * f
    s = 0
    for _ in range(f - 1):
        weight[(s + p) % f] = weight[s] - whole + f * chi[s]
        s = (s + p) % f
    least = list(range(p))  # least prime factor of each 2 <= b < p
    for q in range(isqrt(p - 1), 1, -1):
        least[q * q::q] = [q] * len(range(q * q, p, q))
    power = [0, 1] + [0] * (p - 2)  # b^e mod p^2
    for b in range(2, p):
        q = least[b]
        power[b] = pow(b, e, pp) if q == b else power[q] * power[b // q] % pp
    total = sum((whole * b + m * p * weight[b % f]) * power[b] for b in range(1, p))
    return total % pp // p * pow(f, -1, p) % p


def parity_zero(D: int, k: int) -> bool:
    """True when chi_D(-1) = (-1)^k, i.e. (D > 0) == (k even): then L_{D,p}(k)
    vanishes identically (for D = 1, zeta_p at even k)."""
    return (D > 0) == (k % 2 == 0)


def check_L_p(chi: QuadCharacter, k: int) -> None:
    """Raise unless L_p(k, chi) has a digit at some prime: ValueError for
    k < 1, PrecisionUnavailable for k = 1 with an even character, whose Kummer
    value needs B_{p-1}, which is not p-integral (for chi_1: the pole of
    zeta_p at 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 and chi.is_even:
        raise PrecisionUnavailable("L_p(1) of an even character needs B_{p-1}")


def zeta_p_mod_p(k: int, p: int) -> int:
    """The single known digit of zeta_p(k) = L_p(k, chi_1), for k >= 2."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return L_p_mod_p(QuadCharacter(1), k, p)


def L_p_mod_p(chi: QuadCharacter, k: int, p: int) -> int:
    """The single known digit of L_{D,p}(k): 0 when ``parity_zero(D, k)``,
    else L(1+k-p, chi) = -B_{m,chi}/m mod p with m = p-k, B_{m,chi} from a
    power sum over a <= f p, afresh at each call.  BadPrime at every prime
    dividing the conductor (2 and 3 included), else PrecisionUnavailable below
    the reach p >= k+2; ``congruence.constant_digits`` reads each digit once
    per command, these messages included.
    """
    if chi.conductor % p == 0:
        raise BadPrime(f"p={p} divides the conductor {chi.conductor}")
    check_L_p(chi, k)
    if parity_zero(chi.D, k):
        return 0
    if p < k + 2:
        raise PrecisionUnavailable(f"L_p({k}) mod {p} needs p >= {k + 2}")
    m = p - k  # 2 <= m <= p-2
    return -_bernoulli_chi_mod_p(chi.D, m, p) * pow(m, -1, p) % p

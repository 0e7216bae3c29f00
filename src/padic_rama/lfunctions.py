"""Quadratic Dirichlet characters and the single p-adic digit of L_{D,p}(k)
that the congruence machinery consumes, with a mod-p Bernoulli table kept as
a test oracle.  zeta_p is L_p of the trivial character chi_1 (D = 1), so one
routine serves both: the digit is a Kummer value, -B_{m,chi}/m mod p with
m = p-k, read over a whole prime range from prefix sums of the recurrence
``exactnum.prefix_sums_mod`` that the truncated sums read too.  For f = 1,
Glaisher's congruence sum_{b<p} b^(1-k) = ((k-1)/k) p B_{p-k} (mod p^2)
gives it from one sum read modulo p^2.  For a conductor f > 1, a = b + p j
in sum_{a<=fp} chi(a) a^m = f p B_{m,chi} (mod p^2), with sum(chi) = 0 and
b^(m-1) = b^-k (mod p), gives -(1/f) sum_r w_p(r) S_r (mod p): S_r sums b^-k
over b < p, b = r (mod f), one recurrence per class, and the weights
w_p(s) = sum_j j chi(s + p j) walk by w_p(s + p) = w_p(s) + f chi(s).

Convention: B_1 = -1/2 everywhere, so that zeta(1-k) = -B_k/k and
L(1-m, chi) = -B_{m,chi}/m hold with no sign fixups.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from typing import Iterable

from ._record import record
from .errors import BadPrime, InvariantViolation, PrecisionUnavailable
from .exactnum import kronecker, prefix_sums_mod


def bernoulli_all_mod_p(p: int) -> tuple[int, ...]:
    """B_0 .. B_{p-3} mod p (all of them p-integral for p >= 5), from the
    defining convolution sum_{j=0}^{n} C(n+1, j) B_j = 0 with the binomial
    row kept mod p: O(p^2) word operations.  No library path calls it: it is
    the oracle the tests hold the prefix-sum digits of L_p_mod_p against.
    """
    if p < 5:
        raise ValueError("p must be a prime >= 5")
    B, row = [1], [1, 1]  # row n holds C(n+1, j) mod p
    for n in range(1, p - 2):
        row = [1, *((a + b) % p for a, b in zip(row, row[1:])), 1]
        B.append(-sum(c * b for c, b in zip(row, B)) * pow(n + 1, -1, p) % p)
    return tuple(B)


DISC_MAX = 1000  # bound on |D|: O(|D|) reads per prime; 1.3 s at D = -995 over 5..10^4


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


def parity_zero(D: int, k: int) -> bool:
    """True when chi_D(-1) = (-1)^k, i.e. (D > 0) == (k even): then L_{D,p}(k)
    vanishes identically (for D = 1, zeta_p at even k)."""
    return (D > 0) == (k % 2 == 0)


def check_L_p(chi: QuadCharacter, k: int) -> str:
    """Why L_p(k, chi) has a digit at no prime, or "" when some prime has one;
    ValueError for k < 1.  For k = 1 and an even character the Kummer value
    needs B_{p-1}, which is not p-integral (for chi_1: the pole of zeta_p at 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return "L_p(1) of an even character needs B_{p-1}" if k == 1 and chi.is_even else ""


def _class_sums(b0: int, f: int, e: int, primes: list[int], moduli: list[int]):
    """``exactnum.prefix_sums_mod`` of the sum of b^-e over the members
    b = b0 + f n < p of a class mod f, read at each prime p modulo the
    matching modulus."""
    def one(n: int) -> int:
        return 1

    factors = one, one, one, lambda n: (b0 + f * n) ** e, 1, None
    return prefix_sums_mod(factors, ((p - 1 - b0) // f + 1 for p in primes), moduli)


def L_p_digits(chi: QuadCharacter, k: int, primes: Iterable[int]) -> dict[int, int | Exception]:
    """{p: the single known digit of L_{D,p}(k), or the BadPrime or
    PrecisionUnavailable that says why p has none}, for every prime given in
    one pass up the sorted primes: 0 when ``parity_zero(D, k)``, else
    -B_{m,chi}/m mod p with m = p-k, from class prefix sums (module
    docstring).  BadPrime at every prime dividing the conductor f (2 and 3
    included), else PrecisionUnavailable where ``check_L_p`` says no prime
    has one, else PrecisionUnavailable below the reach p >= k+2.
    """
    f, zero, nowhere = chi.conductor, parity_zero(chi.D, k), check_L_p(chi, k)
    out: dict[int, int | Exception] = {}
    for p in sorted(set(primes)):
        if f % p == 0:
            out[p] = BadPrime(f"p={p} divides the conductor {f}")
        elif nowhere:
            out[p] = PrecisionUnavailable(nowhere)
        elif not zero and p < k + 2:
            out[p] = PrecisionUnavailable(f"L_p({k}) mod {p} needs p >= {k + 2}")
        else:
            out[p] = 0
    todo = [] if zero else [p for p, d in out.items() if not isinstance(d, Exception)]
    if f == 1:
        for p, (N, D) in zip(todo, _class_sums(1, 1, k - 1, todo, [p * p for p in todo])):
            out[p] = N * pow(D, -1, p * p) % (p * p) // p * pow(k - 1, -1, p) % p
        return out
    chi_r = [kronecker(chi.D, r or f) for r in range(f)]  # class 0 read at a = f
    classes = [_class_sums(b0, f, k, todo, todo) for b0 in range(1, f + 1)]
    for p, sums in zip(todo, zip(*classes)):
        walk = [p * j % f for j in range(f)]  # s = 0, p, 2p, ... (mod f)
        w0 = sum(j * chi_r[s] for j, s in enumerate(walk))
        w = dict(zip(walk, accumulate((f * chi_r[s] for s in walk), initial=w0)))
        total = sum(w[b0 % f] * N * pow(D, -1, p) for b0, (N, D) in enumerate(sums, 1) if N)
        out[p] = -total * pow(f, -1, p) % p
    return out


def zeta_p_mod_p(k: int, p: int) -> int:
    """The single known digit of zeta_p(k) = L_p(k, chi_1), for k >= 2."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return L_p_mod_p(QuadCharacter(1), k, p)


def L_p_mod_p(chi: QuadCharacter, k: int, p: int) -> int:
    """``L_p_digits`` at the single prime p, raising what it holds instead of a digit."""
    digit = L_p_digits(chi, k, [p])[p]
    if isinstance(digit, Exception):
        raise digit
    return digit

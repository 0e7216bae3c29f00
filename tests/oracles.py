"""Independent routes that the tests hold the library against.

None of them imports a private name of ``padic_rama`` or reuses its cores:
each one starts again from the public series data, characters and mpmath.

- Fraction terms of a series: ``pochhammer`` and ``term_exact`` from the
  product formula, and ``hyper_ratio``, ``poly_at`` and ``linear_at`` for the
  term-by-term ratio update.
- ``zeta_nonpositive``: zeta(s) for s <= 0, read as L(s, chi_1).
- ``reference_numeric_sum``: ``series.numeric_sum``'s stop rule tested
  exactly at every term, on integer factors derived here; and
  ``exact_fdiv``, the exact division that ``series._fdiv`` reads from
  leading bits.
- ``power_sum_bernoulli``: B_{m,chi} mod p with one ``pow`` per b, the route
  that the multiplicative sieve of ``lfunctions`` replaced.
- ``reference_lll``: the textbook LLL in Fractions.
- ``taylor_ratios``: ``shifted_expansion`` against ``mp.taylor`` of the
  x-extended sum.

Run as a script, it holds every shipped series' expansion against the Taylor
oracle at 256 bits and prints the time of each:

    PYTHONPATH=src python tests/oracles.py
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from padic_rama.exactnum import kronecker
from padic_rama.lfunctions import L_nonpositive, QuadCharacter
from padic_rama.series import SeriesSpec

# ---------------------------------------------------------------------------
# Fraction terms


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Fraction(1)
    a = Fraction(a)
    for k in range(n):
        out *= a + k
    return out


def poly_at(spec: SeriesSpec, x: Fraction | int) -> Fraction:
    """P(x), by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(spec.poly):
        acc = acc * x + c
    return acc


def linear_at(spec: SeriesSpec, n: Fraction | int) -> Fraction:
    """alpha*n + beta, or 1 for a series without a linear denominator."""
    if spec.denom_linear is None:
        return Fraction(1)
    alpha, beta = spec.denom_linear
    return alpha * n + beta


def hyper_ratio(spec: SeriesSpec, n: int) -> Fraction:
    """Ratio of consecutive hypergeometric parts (without P and the linear
    denominator): sign * base * prod(a_i + n) / prod(b_j + n)."""
    r = spec.sign * spec.base
    for a in spec.upper:
        r *= a + n
    for b in spec.lower:
        r /= b + n
    return r


def term_exact(spec: SeriesSpec, n: int) -> Fraction:
    """The n-th term, evaluated from the product formula."""
    t = spec.multiplier * Fraction(spec.sign) ** n * spec.base**n
    for a in spec.upper:
        t *= pochhammer(a, n)
    for b in spec.lower:
        t /= pochhammer(b, n)
    return t * poly_at(spec, n) / linear_at(spec, n)


def zeta_nonpositive(s: int) -> Fraction:
    """zeta(s) = L(s, chi_1) for s <= 0:  zeta(1-k) = -B_k/k, zeta(0) = -1/2."""
    return L_nonpositive(QuadCharacter(1), s)


# ---------------------------------------------------------------------------
# numeric sums


def exact_fdiv(x: int, y: int) -> mpf:
    """``mp.fdiv(x, y)`` for integers x and y > 0 from the exact quotient:
    q = floor(|x| 2^k / y) with prec + 5 bits, and a sticky bit for a nonzero
    remainder, rounded once."""
    k = mp.prec + 5 - x.bit_length() + y.bit_length()
    q, r = divmod(abs(x) << k, y) if k >= 0 else divmod(abs(x), y << -k)
    man = 2 * q + (r != 0)
    return mp.make_mpf(from_man_exp(-man if x < 0 else man, -k - 1, mp.prec, round_nearest))


def integer_factors(spec: SeriesSpec):
    """Integer polynomials num, den, a, b and a start pair (H0, D0) with
    term n = H0/D0 * a(n)/b(n) * prod_{k<n} num(k)/den(k).

    The parameters share one denominator L, so a + n = (L a + L n) / L, and
    the L's cancel in the ratio because the two lists have equal length.
    P and alpha*n + beta are cleared by the lcm of their own denominators,
    which the start pair divides out again."""
    L = math.lcm(*(q.denominator for q in (*spec.upper, *spec.lower)))
    upper = [int(L * q) for q in spec.upper]
    lower = [int(L * q) for q in spec.lower]
    L_poly = math.lcm(*(c.denominator for c in spec.poly))
    poly = [int(L_poly * c) for c in spec.poly]
    alpha, beta = spec.denom_linear or (Fraction(0), Fraction(1))
    L_lin = math.lcm(alpha.denominator, beta.denominator)
    alpha, beta = int(L_lin * alpha), int(L_lin * beta)

    def num(n: int) -> int:
        return spec.sign * spec.base.numerator * math.prod(u + L * n for u in upper)

    def den(n: int) -> int:
        return spec.base.denominator * math.prod(w + L * n for w in lower)

    def a(n: int) -> int:
        return sum(c * n**i for i, c in enumerate(poly))

    def b(n: int) -> int:
        return alpha * n + beta

    m = spec.multiplier
    return num, den, a, b, (m.numerator * L_lin, m.denominator * L_poly)


def partial_sums(factors):
    """(N, D, T) for n = 0, 1, ...: N/D is the sum of terms 0..n and T/D
    is term n.  Adding term n: N <- N*b(n) + a(n)*H, D <- D*b(n); advancing
    the ratio: N, D <- N, D times den(n), H <- H*num(n)*b(n)."""
    num, den, a, b, (H, D) = factors
    N = 0
    for n in itertools.count():
        bn = b(n)
        T = a(n) * H
        N = N * bn + T
        D *= bn
        yield N, D, T
        dn = den(n)
        N *= dn
        D *= dn
        H *= num(n) * bn


def reference_numeric_sum(spec: SeriesSpec, precision_bits: int) -> tuple[mpf, mpf]:
    """(value, certified_bound), with the stop rule of
    ``padic_rama.series.numeric_sum`` tested exactly at every term.

    The library finds the same stop index with a float screen and a product
    tree on its own integer factors.  Both sides compute the same rationals
    (the partial sum, and |term n| / (1 - r)) and round each once, so they
    must return the same mpf pair."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    num, den, a, b, _ = factors = integer_factors(spec)
    sums = partial_sums(factors)
    N, D, _ = next(sums)  # N/D: terms 0..n-1
    for n, (N_next, D_next, T) in enumerate(sums, 1):  # T/D_next: term n
        a_prev = a(n - 1)
        rho = (Fraction(abs(a(n) * num(n - 1) * b(n - 1)),
                        abs(a_prev * den(n - 1) * b(n))) if a_prev else spec.base)
        r = max(spec.base, rho) * Fraction(n + 8, n)
        if r < 1 and (T or spec.vanishes):
            top = abs(T) * r.denominator
            bot = abs(D_next) * (r.denominator - r.numerator)
            if top << precision_bits < bot:
                with mp.workprec(precision_bits + 48):
                    total = mp.fdiv(N, D)
                    rounding = (n + 1) * mp.eps * (abs(total) + 1)
                    return total, mp.fdiv(top, bot) + rounding
        N, D = N_next, D_next


# ---------------------------------------------------------------------------
# Bernoulli digits


def power_sum_bernoulli(D: int, m: int, p: int) -> int:
    """B_{m,chi} mod p from sum_{a<=fp} chi(a) a^m = f p B_{m,chi} (mod p^2),
    split as a = b + p j, with a ``pow`` at every b < p: the route the
    multiplicative sieve of ``lfunctions._bernoulli_chi_mod_p`` replaced."""
    f, pp = abs(D), p * p
    chi = [kronecker(D, r or f) for r in range(f)]
    whole = sum(chi)
    weight = [sum(j * chi[p * j % f] for j in range(f))] * f
    s = 0
    for _ in range(f - 1):
        weight[(s + p) % f] = weight[s] - whole + f * chi[s]
        s = (s + p) % f
    total = sum((whole * b + m * p * weight[b % f]) * pow(b, m - 1, pp)
                for b in range(1, p))
    return total % pp // p * pow(f, -1, p) % p


# ---------------------------------------------------------------------------
# LLL

DELTA = Fraction(3, 4)


def gram_schmidt(b: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(mu, squared norms of b*) of the rows of b."""
    n = len(b)
    bstar: list[list[Fraction]] = []
    mu: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    norms: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in b[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            dot = sum(Fraction(b[i][t]) * bstar[j][t] for t in range(len(v)))
            mu[i][j] = dot / norms[j]
            v = [v[t] - mu[i][j] * bstar[j][t] for t in range(len(v))]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def reference_lll(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """The textbook LLL in Fractions.  It rebuilds the whole rational
    Gram-Schmidt basis after every size-reduction step and every swap, in the
    same step order as ``padic_rama.lattice`` (size-reduce row k against
    j = k-1 down to 0 with q = floor(mu + 1/2), then the Lovasz test with
    delta = 3/4), so the two must return the same rows."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _nearest_int(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt(b)
        if norms[k] >= (DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def is_lll_reduced(b: Sequence[Sequence[int]]) -> bool:
    """Both LLL conditions, exactly: |mu_kj| <= 1/2 and Lovasz with delta."""
    mu, norms = gram_schmidt(b)
    n = len(b)
    sized = all(abs(mu[k][j]) <= Fraction(1, 2) for k in range(n) for j in range(k))
    lovasz = all(norms[k] >= (DELTA - mu[k][k - 1] ** 2) * norms[k - 1]
                 for k in range(1, n))
    return sized and lovasz


def _nearest_int(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


# ---------------------------------------------------------------------------
# x-shift expansions

# every shipped series at the order of its claims file, and eq6 at the order 8
# of its benchmark golden
TAYLOR_ORDERS = {"eq2": 5, "eq6": 8, "eq9": 5, "gourevitch": 7, "eq15": 3}


def x_extended_sum(spec: SeriesSpec, x: mpf) -> mpf:
    """The series with every index n shifted to n + x, summed directly:
    mult * sum_n sign^n base^(n+x) prod (a)_(n+x) / prod (b)_(n+x)
    * P(n+x) / (alpha (n+x) + beta), with (a)_x = rf(a, x) and the term
    ratio stepped in mpf.  The term count is fixed in advance: base^n falls
    64 bits below the working precision, and for every shipped series the
    rest of a term shrinks with n."""
    def q(r):
        return mpf(r.numerator) / r.denominator

    upper, lower = [q(a) for a in spec.upper], [q(b) for b in spec.lower]
    poly = [q(c) for c in reversed(spec.poly)]
    alpha, beta = (q(c) for c in spec.denom_linear or (Fraction(0), Fraction(1)))
    h = q(spec.multiplier) * q(spec.base) ** x
    for a in upper:
        h *= mp.rf(a, x)
    for b in lower:
        h /= mp.rf(b, x)
    total = mp.zero
    for n in range(int((mp.prec + 64) / -math.log2(spec.base)) + 1):
        y = n + x
        total += h * mp.polyval(poly, y) / (alpha * y + beta)
        num, den = spec.sign * q(spec.base), mp.one
        for a in upper:
            num *= a + y
        for b in lower:
            den *= b + y
        h = h * num / den
    return total


def taylor_ratios(spec: SeriesSpec, K: int, bits: int) -> list[mpf]:
    """|c_k - t_k| / e for k = 0..K: c_k and the stated error bound e from
    ``shifted_expansion(spec, K, bits)``, and t_k from ``mp.taylor`` of the
    x-extended sum at twice the bits, which uses no digamma, Hurwitz zeta,
    ``TruncatedSeries`` or tail rule."""
    from padic_rama.expansion import shifted_expansion

    ts = shifted_expansion(spec, K, bits)
    with mp.workprec(2 * bits):
        oracle = mp.taylor(lambda x: x_extended_sum(spec, x), 0, K)
        return [abs(got - want) / ts.error_bound for got, want in zip(ts.coeffs, oracle)]


def main() -> int:
    """Every shipped series against the Taylor oracle at 256 bits: exit 1
    unless each coefficient lies within twice its stated error bound."""
    from padic_rama.cli import parse_series, resolve_input

    bits, failed = 256, False
    for name, K in TAYLOR_ORDERS.items():
        start = time.perf_counter()
        worst = max(taylor_ratios(parse_series(resolve_input(name)), K, bits))
        print(f"{name} order {K} at {bits} bits: largest |error| / bound "
              f"{mp.nstr(worst, 3)} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed = failed or worst > 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

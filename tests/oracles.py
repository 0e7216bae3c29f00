"""Independent routes that the tests hold the library against.

None of them imports a private name of ``padic_rama`` or reuses its cores:
each one starts again from the public series data, characters and mpmath.

- Fraction terms of a series: ``pochhammer`` and ``term_exact`` from the
  product formula, and ``hyper_ratio``, ``poly_at`` and ``linear_at`` for the
  term-by-term ratio update.
- ``reference_numeric_sum``: ``series.numeric_sum``'s stop rule tested
  exactly at every term, on integer factors derived here; and
  ``exact_fdiv``, the exact division that ``series._fdiv`` reads from
  leading bits.
- ``padic_truncated_sum``: one truncated sum modulo p^m from its terms'
  valuations and unit parts, on the integer factors above: a row check that
  scales to large p.
- ``power_sum_bernoulli``: B_{m,chi} mod p with one ``pow`` per b, the route
  that the multiplicative sieve of ``lfunctions`` replaced.
- ``reference_lll``: the textbook LLL in Fractions.
- ``taylor_ratios``: ``shifted_expansion`` against ``mp.taylor`` of the
  x-extended sum.
- ``reference_shifted_expansion``: ``shifted_expansion`` in mpf objects, one
  mpmath operator per rounding (``ReferenceSeries``), which the library's
  libmp kernel must match bit for bit.
- ``bernoulli_numbers``, ``generalized_bernoulli`` and ``L_nonpositive``:
  B_n, B_{m,chi} and L(s, chi_D) for s <= 0 in Fractions, the exact values
  behind the Kummer digits of ``lfunctions``; and ``zeta_nonpositive``, the
  same at D = 1.
- ``zeta_value``: zeta(k) from the Bernoulli closed form at even k and from
  Borwein's alternating series, summed in Fractions, at odd k, for the
  ``zeta`` constants.
- ``l_value_polylog``: L(k, chi_D) from polylogarithms at the roots of unity,
  for the ``l`` constants; and ``l_value_closed_form``, the Bernoulli closed
  form where chi_D(-1) = (-1)^k.

Run as a script, it holds every shipped series' expansion against the Taylor
oracle at 256 bits, and eq6 at order 8 and 1024 bits and eq15 at order 6 and
2048 bits against the mpf-object reference, and prints the time of each:

    PYTHONPATH=src python tests/oracles.py
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from padic_rama.errors import NegativeValuationSum
from padic_rama.exactnum import kronecker
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
# truncated sums modulo p^m


def padic_truncated_sum(spec: SeriesSpec, p: int, m: int) -> int:
    """The sum of terms n < p modulo p^m, in [0, p^m), for a prime p that
    divides no denominator of the series, by p-adic unit arithmetic on the
    integer factors of ``integer_factors``: term n is H0/D0 * a(n)/b(n) *
    prod_{k<n} num(k)/den(k).

    The first pass finds each nonzero term's valuation v_n and the least
    one, -e (e >= 0).  The second keeps each term's unit part modulo
    p^(m+e) and adds it times p^(v_n+e); that total divided by p^e is the
    sum.  Neither pass holds more than a prime power, so a row at p near
    10^4 takes a fraction of a second, where the exact Fraction sum takes
    about a minute.  Raises NegativeValuationSum when the sum is not
    p-integral."""
    num, den, a, b, (H0, D0) = integer_factors(spec)

    def split(x: int) -> tuple[int, int]:  # (v, u): x = p^v * u, p does not divide u
        v = 0
        while x % p == 0:
            x, v = x // p, v + 1
        return v, x

    if H0 == 0:
        return 0
    terms = []  # (n, v_n) for each nonzero term
    v_h = split(H0)[0] - split(D0)[0]
    for n in range(p):
        if a(n):
            terms.append((n, v_h + split(a(n))[0] - split(b(n))[0]))
        v_h += split(num(n))[0] - split(den(n))[0]
    e = max([0, *(-v for _, v in terms)])
    mod = p ** (m + e)
    h = split(H0)[1] * pow(split(D0)[1], -1, mod)  # unit part of the term without a/b
    total, at = 0, 0
    for n, v in terms:
        for k in range(at, n):
            h = h * split(num(k))[1] * pow(split(den(k))[1], -1, mod) % mod
        at = n
        total += pow(p, v + e, mod) * h * split(a(n))[1] * pow(split(b(n))[1], -1, mod)
    total %= mod
    if total % p**e:
        raise NegativeValuationSum(
            f"{spec.name} at p={p}: sum has valuation {split(total)[0] - e}")
    return total // p**e % p**m


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
# exact Bernoulli values


@cache
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n (B_1 = -1/2) from sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return tuple(B)


def generalized_bernoulli(D: int, m: int) -> Fraction:
    """B_{m,chi} of the character chi = (D|.) of conductor f = |D| (D = 1:
    B_m), as f^(m-1) sum_{a<=f} chi(a) B_m(a/f), with the Bernoulli
    polynomial B_m(x) = sum_j C(m, j) B_j x^(m-j)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    f, B = abs(D), bernoulli_numbers(m)
    total = Fraction(0)
    for a in range(1, f + 1):
        x = Fraction(a, f)
        total += kronecker(D, a) * sum(math.comb(m, j) * B[j] * x ** (m - j) for j in range(m + 1))
    return f ** (m - 1) * total


def L_nonpositive(D: int, s: int) -> Fraction:
    """L(s, chi_D) for s <= 0:  L(1-m, chi) = -B_{m,chi}/m."""
    if s > 0:
        raise ValueError("s must be <= 0")
    return -generalized_bernoulli(D, 1 - s) / (1 - s)


def zeta_nonpositive(s: int) -> Fraction:
    """zeta(s) for s <= 0, as L(s, chi_1):  zeta(1-k) = -B_k/k, zeta(0) = -1/2."""
    return L_nonpositive(1, s)


# ---------------------------------------------------------------------------
# zeta values


def zeta_value(k: int, bits: int) -> mpf:
    """zeta(k) for an integer k >= 2, rounded to ``bits``.  At even k, the
    closed form (-1)^(k/2+1) B_k (2 pi)^k / (2 k!) with B_k in Fractions.  At
    odd k, Borwein's alternating series ("An efficient algorithm for the
    Riemann zeta function", 2000), summed exactly in Fractions and rounded
    only at the end:

        zeta(k) = -1/(d_n (1 - 2^(1-k))) sum_{j<n} (-1)^j (d_j - d_n) / (j+1)^k,
        d_j = n sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!),

    whose error is below 3 / ((3 + sqrt 8)^n |1 - 2^(1-k)|) <= 6 (3 + sqrt 8)^-n,
    so n = (bits + 8) / log2(3 + sqrt 8) terms suffice."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k % 2 == 0:
        with mp.workprec(bits + 20):
            b = bernoulli_numbers(k)[k]
            value = (-1) ** (k // 2 + 1) * rational_mpf(b) * (2 * mp.pi) ** k \
                / (2 * math.factorial(k))
    else:
        n = math.ceil((bits + 8) / math.log2(3 + math.sqrt(8)))
        d, term = [], Fraction(0)
        for i in range(n + 1):
            term += Fraction(n * math.factorial(n + i - 1) * 4**i,
                             math.factorial(n - i) * math.factorial(2 * i))
            d.append(term)
        s = sum(Fraction((-1) ** j) * (d[j] - d[n]) / (j + 1) ** k for j in range(n))
        exact = -s / (d[n] * (1 - Fraction(1, 2 ** (k - 1))))
        with mp.workprec(bits + 20):
            value = rational_mpf(exact)
    with mp.workprec(bits):
        return +value


# ---------------------------------------------------------------------------
# quadratic L-values


def l_value_polylog(D: int, k: int) -> mpf:
    """L(k, chi_D) for a fundamental discriminant D != 1 at the working
    precision, as tau^-1 sum_{0<a<f} chi(a) Li_k(e^(2 pi i a/f)) with f = |D|
    and the Gauss sum tau = sqrt(f) for D > 0, i sqrt(f) for D < 0.  It holds
    at either parity of k, and mpmath sums Li_k on the unit circle from a
    series in log z (``polylog_unitcircle``), sharing nothing with the Hurwitz
    zeta and digamma values of ``constants``."""
    f = abs(D)
    with mp.workprec(mp.prec + 20):
        s = mp.fsum(kronecker(D, a) * mp.polylog(k, mp.expjpi(mpf(2 * a) / f))
                    for a in range(1, f) if kronecker(D, a))
        tau = mp.sqrt(f) if D > 0 else mp.mpc(0, mp.sqrt(f))
        value = mp.re(s / tau)
    return +value


def l_value_closed_form(D: int, k: int) -> mpf:
    """L(k, chi_D) for a fundamental discriminant D != 1 with
    chi_D(-1) = (-1)^k, at the working precision, from the Bernoulli closed
    form (Washington, GTM 83, ch. 4) with delta = 0 for D > 0 and 1 for D < 0:

        L(k, chi) = (-1)^(1 + (k - delta)/2) (sqrt(f)/2) (2 pi/f)^k B_{k,chi}/k!

    with B_{k,chi} exact from ``generalized_bernoulli``."""
    if (D > 0) != (k % 2 == 0):
        raise ValueError("the closed form needs chi_D(-1) = (-1)^k")
    f, delta = abs(D), 0 if D > 0 else 1
    with mp.workprec(mp.prec + 20):
        b = rational_mpf(generalized_bernoulli(D, k) / math.factorial(k))
        value = (-1) ** (1 + (k - delta) // 2) * mp.sqrt(f) / 2 * (2 * mp.pi / f) ** k * b
    return +value

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
    series ring or tail rule."""
    from padic_rama.expansion import shifted_expansion

    ts = shifted_expansion(spec, K, bits)
    with mp.workprec(2 * bits):
        oracle = mp.taylor(lambda x: x_extended_sum(spec, x), 0, K)
        return [abs(got - want) / ts.error_bound for got, want in zip(ts.coeffs, oracle)]


# ---------------------------------------------------------------------------
# the x-shift expansion in mpf objects


def rational_mpf(q: Fraction | int) -> mpf:
    """mpf(numerator) / denominator at the ambient working precision."""
    q = Fraction(q)
    return mpf(q.numerator) / q.denominator


class ReferenceSeries:
    """A truncated x-series in mpf objects, one mpmath operator per rounding:
    ``padic_rama.expansion`` performs the same roundings on raw libmp values,
    so the two must agree bit for bit."""

    def __init__(self, coeffs: Sequence[mpf], error_bound: mpf):
        self.coeffs, self.error_bound = tuple(coeffs), error_bound

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def norm1(self) -> mpf:
        return sum(abs(c) for c in self.coeffs)

    def __add__(self, other: "ReferenceSeries") -> "ReferenceSeries":
        return ReferenceSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.error_bound + other.error_bound,
        )

    def __mul__(self, other: "ReferenceSeries") -> "ReferenceSeries":
        K = self.order
        out = [mp.zero] * (K + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        na, nb = self.norm1(), other.norm1()
        err = (
            self.error_bound * (nb + other.error_bound)
            + other.error_bound * na
            + (K + 1) * mp.eps * na * nb
        )
        return ReferenceSeries(tuple(out), err)

    def scale(self, s: mpf) -> "ReferenceSeries":
        s = mpf(s)
        return ReferenceSeries(
            tuple(c * s for c in self.coeffs),
            self.error_bound * abs(s) + mp.eps * abs(s) * self.norm1(),
        )

    def recip(self) -> "ReferenceSeries":
        K = self.order
        out = [mp.zero] * (K + 1)
        out[0] = 1 / self.coeffs[0]
        for k in range(1, K + 1):
            s = mp.zero
            for j in range(1, k + 1):
                s += self.coeffs[j] * out[k - j]
            out[k] = -s * out[0]
        res = ReferenceSeries(tuple(out), mp.zero)
        nr = res.norm1()
        err = self.error_bound * nr * nr + (K + 1) * mp.eps * nr * (1 + nr)
        return ReferenceSeries(res.coeffs, err)

    def exp(self) -> "ReferenceSeries":
        K = self.order
        lead = mp.exp(self.coeffs[0])
        out = [mp.one] + [mp.zero] * K
        for k in range(1, K + 1):
            s = mp.zero
            for j in range(1, k + 1):
                s += j * self.coeffs[j] * out[k - j]
            out[k] = s / k
        res = ReferenceSeries(tuple(c * lead for c in out), mp.zero)
        ne = res.norm1()
        err = self.error_bound * ne * (1 + self.error_bound) + (K + 1) * mp.eps * ne
        return ReferenceSeries(res.coeffs, err)


def poly_shift(poly: Sequence[Fraction], n: int, K: int) -> list[Fraction]:
    """Coefficients of P(n + x) in x, truncated at degree K, exactly."""
    out = [Fraction(0)] * (K + 1)
    for d, c in enumerate(poly):
        if c == 0:
            continue
        for j in range(min(d, K) + 1):
            out[j] += c * math.comb(d, j) * Fraction(n) ** (d - j)
    return out


def add_per_parameter(G: list, spec: SeriesSpec, first: int, values) -> None:
    """G[first + i] += values(a)[i] for each upper parameter a, then
    G[first + i] -= values(b)[i] for each lower parameter b, in list order."""
    cache = {a: values(a) for a in dict.fromkeys((*spec.upper, *spec.lower))}
    for a in spec.upper:
        for k, v in enumerate(cache[a], first):
            G[k] += v
    for b in spec.lower:
        for k, v in enumerate(cache[b], first):
            G[k] -= v


def reference_shifted_expansion(spec: SeriesSpec, K: int, precision_bits: int) -> ReferenceSeries:
    """``padic_rama.expansion.shifted_expansion`` in mpf objects, one mpmath
    operator per rounding: the library performs the same roundings on raw
    libmp values, so every coefficient and the error bound must agree in
    their ``_mpf_``."""
    with mp.workprec(precision_bits + 64):
        target = mpf(2) ** (-precision_bits)
        base_m = rational_mpf(spec.base)
        logbase = mp.log(base_m)
        mult = rational_mpf(spec.multiplier)
        G = [mp.zero] * (K + 1)

        def base_case(a):  # the x^1..x^K coefficients of log Gamma(a + x)
            am = rational_mpf(a)
            return [mp.digamma(am)] + [(-1) ** k * mp.zeta(k, am) / k
                                       for k in range(2, K + 1)]

        def shift(a):  # the x^0..x^K coefficients of log(a + n + x)
            an = rational_mpf(a) + n
            return [mp.log(an)] + [(-1) ** (k + 1) / (k * an**k) for k in range(1, K + 1)]

        if K >= 1:
            add_per_parameter(G, spec, 1, base_case)
            G[1] += logbase

        total = ReferenceSeries((mp.zero,) * (K + 1), mp.zero)
        prev_norm = None
        n = 0
        while True:
            H = ReferenceSeries(tuple(G), mp.zero).exp()
            term = H * ReferenceSeries(
                [rational_mpf(c) for c in poly_shift(spec.poly, n, K)], mp.zero)
            if spec.denom_linear is not None:
                alpha, beta = spec.denom_linear
                lin = [rational_mpf(alpha * n + beta)] + (
                    [rational_mpf(alpha)] + [mp.zero] * (K - 1) if K >= 1 else []
                )
                term = term * ReferenceSeries(lin, mp.zero).recip()
            sgn = 1 if (spec.sign == 1 or n % 2 == 0) else -1
            total = total + term.scale(sgn * mult)

            norm = max(abs(c) for c in term.coeffs)
            rho = base_m if (prev_norm in (None, 0) or norm == 0) else norm / prev_norm
            r_star = max(base_m, rho) * (1 + mpf(8) / (n + 1))
            if r_star < 1 and (norm != 0 or spec.vanishes):
                tail = abs(mult) * norm * r_star / (1 - r_star)
                if tail < target:
                    rounding = (n + 1) * (K + 1) * mp.eps * (total.norm1() + 1)
                    bound = tail + rounding + total.error_bound
                    return ReferenceSeries(tuple(+c for c in total.coeffs), +bound)

            add_per_parameter(G, spec, 0, shift)
            G[0] += logbase
            prev_norm = norm
            n += 1


# the two largest expansions the bit-identity check runs as a script
BIT_IDENTITY_CASES = (("eq6", 8, 1024), ("eq15", 6, 2048))


def main() -> int:
    """Every shipped series against the Taylor oracle at 256 bits, and the
    largest two expansions against ``reference_shifted_expansion``: exit 1
    unless each coefficient lies within twice its stated error bound and the
    library and the reference agree bit for bit."""
    from padic_rama.cli import parse_series, resolve_input
    from padic_rama.expansion import shifted_expansion

    bits, failed = 256, False
    for name, K in TAYLOR_ORDERS.items():
        start = time.perf_counter()
        worst = max(taylor_ratios(parse_series(resolve_input(name)), K, bits))
        print(f"{name} order {K} at {bits} bits: largest |error| / bound "
              f"{mp.nstr(worst, 3)} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed = failed or worst > 2
    for name, K, bits in BIT_IDENTITY_CASES:
        start = time.perf_counter()
        spec = parse_series(resolve_input(name))
        got, want = shifted_expansion(spec, K, bits), reference_shifted_expansion(spec, K, bits)
        same = [c._mpf_ for c in got.coeffs] == [c._mpf_ for c in want.coeffs] \
            and got.error_bound._mpf_ == want.error_bound._mpf_
        print(f"{name} order {K} at {bits} bits: bit-identical to the mpf-object "
              f"reference: {same} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed = failed or not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference ``numeric_sum`` for the tests: the term-by-term loop, and the
exact division that ``series._fdiv`` reads from leading bits.

It steps the integer recurrence one term at a time (add term n:
N <- N*b(n) + a(n)*H, D <- D*b(n); advance the ratio: N, D <- N, D times
den(n), H <- H*num(n)*b(n)) and runs the exact tail test with big integers
at every term.  The library finds the same stop index with a float screen
and a product tree, so the two must return the same mpf pair.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from padic_rama.series import SeriesSpec, _integer_factors


def exact_fdiv(x: int, y: int) -> mpf:
    """``mp.fdiv(x, y)`` for integers x and y > 0 from the exact quotient:
    q = floor(|x| 2^k / y) with prec + 5 bits, and a sticky bit for a nonzero
    remainder, rounded once."""
    k = mp.prec + 5 - x.bit_length() + y.bit_length()
    q, r = divmod(abs(x) << k, y) if k >= 0 else divmod(abs(x), y << -k)
    man = 2 * q + (r != 0)
    return mp.make_mpf(from_man_exp(-man if x < 0 else man, -k - 1, mp.prec, round_nearest))


def partial_sums(factors):
    """(N, D, T) for n = 0, 1, ...: N/D is the sum of terms 0..n and T/D
    is term n."""
    num, den, a, b, c = factors
    N, D, H = 0, c.denominator, c.numerator
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
    ``padic_rama.series.numeric_sum`` tested exactly at every term."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    num, den, a, b, _ = factors = _integer_factors(spec)
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

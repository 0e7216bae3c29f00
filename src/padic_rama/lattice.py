"""Exact LLL reduction over the integers (Gram-Schmidt in Fractions).

Dimensions here are tiny (one row per basis constant plus one), so the
textbook algorithm with full-precision rational arithmetic is both simple
and fast enough; determinism matters more than asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

DELTA = Fraction(3, 4)


def _gram_schmidt(b: list[list[int]]) -> tuple[list[list[Fraction]], list[list[Fraction]], list[Fraction]]:
    """Orthogonalization data: (b*, mu, squared norms of b*)."""
    n = len(b)
    bstar: list[list[Fraction]] = []
    mu: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    norms: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in b[i]]
        for j in range(i):
            if norms[j] == 0:
                mu[i][j] = Fraction(0)
                continue
            dot = sum(Fraction(b[i][t]) * bstar[j][t] for t in range(len(v)))
            mu[i][j] = dot / norms[j]
            v = [v[t] - mu[i][j] * bstar[j][t] for t in range(len(v))]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return bstar, mu, norms


def lll_reduce(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL-reduced basis of the integer lattice spanned by the rows."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b
    _, mu, norms = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _nearest_int(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                _, mu, norms = _gram_schmidt(b)
        if norms[k] >= (DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            _, mu, norms = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def _nearest_int(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)

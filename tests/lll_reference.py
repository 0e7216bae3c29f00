"""Reference LLL for the tests: the textbook algorithm in Fractions.

It rebuilds the whole rational Gram-Schmidt basis after every size-reduction
step and every swap, in the same step order as ``padic_rama.lattice``
(size-reduce row k against j = k-1 down to 0 with q = floor(mu + 1/2), then
the Lovasz test with delta = 3/4), so the two must return the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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

"""Exact LLL reduction over the integers (integral LLL).

The rows must be linearly independent.  The reduction keeps only integer
Gram data, as in Cohen, *A Course in Computational Algebraic Number Theory*,
Algorithm 2.6.7 (de Weger's integral LLL): ``d[i]`` is the Gram determinant
of the first ``i`` rows (``d[0] = 1``) and ``lam[i][j] = d[j+1] * mu[i][j]``
for ``j < i``, where ``mu`` are the Gram-Schmidt coefficients.  Size
reduction and swaps update these in place, and every division in them is
exact, so no rational number is formed and nothing is recomputed.

Step order: row k is size-reduced against j = k-1 down to 0 with
q = floor(mu[k][j] + 1/2), then the Lovasz condition with delta = 3/4 is
tested.  The returned basis is the one the textbook rational algorithm
gives with that order.
"""

from __future__ import annotations

from typing import Sequence


def lll_reduce(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL-reduced basis of the integer lattice spanned by the rows.

    Raises ValueError when the rows are linearly dependent.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    d, lam = _gram_data(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for l in range(j):
                    lam[k][l] -= q * lam[j][l]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            k += 1
        else:
            _swap(b, d, lam, k)
            k = max(k - 1, 1)
    return b


def _gram_data(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(d, lam) of the rows of b; ValueError if the rows are dependent."""
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ValueError("lattice rows are linearly dependent: "
                                 f"row {i} is in the span of the rows above it")
            else:
                d[i + 1] = u
    return d, lam


def _swap(b: list[list[int]], d: list[int], lam: list[list[int]], k: int) -> None:
    """Exchange rows k-1 and k and update (d, lam) by exact division."""
    b[k - 1], b[k] = b[k], b[k - 1]
    for l in range(k - 1):
        lam[k - 1][l], lam[k][l] = lam[k][l], lam[k - 1][l]
    m = lam[k][k - 1]
    new_d = (d[k - 1] * d[k + 1] + m * m) // d[k]
    for i in range(k + 1, len(b)):
        t = lam[i][k]
        lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
        lam[i][k - 1] = (new_d * t + m * lam[i][k]) // d[k + 1]
    d[k] = new_d

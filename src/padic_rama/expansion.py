"""Archimedean side of the heuristic: expand a series shifted by a formal
offset x in powers of x at high precision, and recognize the coefficients as
rational multiples of library constants via integer-relation detection.

The per-term x-series are built incrementally.  Writing the term as
exp(G_n(x)) * P(n+x) / (alpha(n+x)+beta) with

    G_{n+1}(x) - G_n(x) = sum_i log(a_i+n+x) - sum_j log(b_j+n+x) + log z,
    log(a+n+x) = log(a+n) + sum_{k>=1} (-1)^{k+1} x^k / (k (a+n)^k),

only the n = 0 base case needs digamma / Hurwitz-zeta values.  Each later
term costs one log(a+n) and K powers (a+n)^k per distinct parameter a (the
lists repeat parameters, so this is 2 of 10 for eq2), K + 1 additions per
listed parameter, one truncated exponential and O(K^2) series products.
``verify_expansion`` returns an ``ExpansionReport`` of mpf values that
``cli`` renders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from mpmath import mp, mpf

from ._record import record
from .constants import ConstantTag, constant_value, to_mpf
from .errors import InsufficientPrecision
from .lattice import lll_reduce
from .series import SeriesSpec

_WORK_GUARD = 64


@record
class TruncatedSeries:
    """Polynomial of fixed order K with mpf coefficients and one uniform
    error bound; arithmetic is exact in the ring R[x]/(x^{K+1}) apart from
    rounding, with error propagation tracked at first order.
    """

    coeffs: tuple[mpf, ...]
    error_bound: mpf

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def norm1(self) -> mpf:
        return sum(abs(c) for c in self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._align(other)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.error_bound + other.error_bound,
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._align(other)
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
        return TruncatedSeries(tuple(out), err)

    def scale(self, s: mpf) -> "TruncatedSeries":
        s = mpf(s)
        return TruncatedSeries(
            tuple(c * s for c in self.coeffs),
            self.error_bound * abs(s) + mp.eps * abs(s) * self.norm1(),
        )

    def recip(self) -> "TruncatedSeries":
        """1/self; the constant term must be nonzero."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("reciprocal of a series with zero constant term")
        K = self.order
        out = [mp.zero] * (K + 1)
        out[0] = 1 / self.coeffs[0]
        for k in range(1, K + 1):
            s = mp.zero
            for j in range(1, k + 1):
                s += self.coeffs[j] * out[k - j]
            out[k] = -s * out[0]
        res = TruncatedSeries(tuple(out), mp.zero)
        nr = res.norm1()
        err = self.error_bound * nr * nr + (K + 1) * mp.eps * nr * (1 + nr)
        return TruncatedSeries(res.coeffs, err)

    def exp(self) -> "TruncatedSeries":
        """exp(self), splitting off the constant term."""
        K = self.order
        lead = mp.exp(self.coeffs[0])
        out = [mp.one] + [mp.zero] * K
        for k in range(1, K + 1):
            s = mp.zero
            for j in range(1, k + 1):
                s += j * self.coeffs[j] * out[k - j]
            out[k] = s / k
        res = TruncatedSeries(tuple(c * lead for c in out), mp.zero)
        ne = res.norm1()
        err = self.error_bound * ne * (1 + self.error_bound) + (K + 1) * mp.eps * ne
        return TruncatedSeries(res.coeffs, err)

    def _align(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("mixed truncation orders")

    @classmethod
    def constant(cls, value: mpf, K: int) -> "TruncatedSeries":
        return cls((mpf(value),) + (mp.zero,) * K, mp.zero)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[mpf]) -> "TruncatedSeries":
        return cls(tuple(mpf(c) for c in coeffs), mp.zero)


def _poly_shift(poly: Sequence[Fraction], n: int, K: int) -> list[Fraction]:
    """Coefficients of P(n + x) in x, truncated at degree K, exactly."""
    out = [Fraction(0)] * (K + 1)
    for d, c in enumerate(poly):
        if c == 0:
            continue
        for j in range(min(d, K) + 1):
            out[j] += c * comb(d, j) * Fraction(n) ** (d - j)
    return out


def _add_per_parameter(G: list, spec: SeriesSpec, first: int, values) -> None:
    """G[first + i] += values(a)[i] for each upper parameter a, then
    G[first + i] -= values(b)[i] for each lower parameter b, in list order;
    ``values`` runs once per distinct parameter, since the lists repeat
    parameters (eq2 has five 1/2 and five 1)."""
    cache = {a: values(a) for a in dict.fromkeys((*spec.upper, *spec.lower))}
    for a in spec.upper:
        for k, v in enumerate(cache[a], first):
            G[k] += v
    for b in spec.lower:
        for k, v in enumerate(cache[b], first):
            G[k] -= v


def shifted_expansion(spec: SeriesSpec, K: int, precision_bits: int) -> TruncatedSeries:
    """x-expansion through order K of the series with every index shifted by
    x (rising factorials continued through the gamma function, the geometric
    factor through base^(n+x), the sign kept outside).

    The term count is chosen by the numeric-sum tail rule applied to the
    coefficient-wise norms.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    with mp.workprec(precision_bits + _WORK_GUARD):
        target = mpf(2) ** (-precision_bits)
        base_m = to_mpf(spec.base)
        logbase = mp.log(base_m)
        mult = to_mpf(spec.multiplier)

        # G_0(x): digamma / Hurwitz-zeta data of the shifted rising factorials
        G = [mp.zero] * (K + 1)

        def base_case(a):  # the x^1..x^K coefficients of log Gamma(a + x)
            am = to_mpf(a)
            return [mp.digamma(am)] + [(-1) ** k * mp.zeta(k, am) / k
                                       for k in range(2, K + 1)]

        def shift(a):  # the x^0..x^K coefficients of log(a + n + x)
            an = to_mpf(a) + n
            return [mp.log(an)] + [(-1) ** (k + 1) / (k * an**k) for k in range(1, K + 1)]

        if K >= 1:
            _add_per_parameter(G, spec, 1, base_case)
            G[1] += logbase

        total = TruncatedSeries.constant(mp.zero, K)
        prev_norm = None
        n = 0
        while True:
            H = TruncatedSeries(tuple(G), mp.zero).exp()
            term = H * TruncatedSeries.from_coeffs(
                [to_mpf(c) for c in _poly_shift(spec.poly, n, K)]
            )
            if spec.denom_linear is not None:
                alpha, beta = spec.denom_linear
                lin = [to_mpf(alpha * n + beta)] + (
                    [to_mpf(alpha)] + [mp.zero] * (K - 1) if K >= 1 else []
                )
                term = term * TruncatedSeries.from_coeffs(lin).recip()
            sgn = 1 if (spec.sign == 1 or n % 2 == 0) else -1
            total = total + term.scale(sgn * mult)

            norm = max(abs(c) for c in term.coeffs)
            rho = base_m if (prev_norm in (None, 0) or norm == 0) else norm / prev_norm
            r_star = max(base_m, rho) * (1 + mpf(8) / (n + 1))
            # a zero term (a root of P at order 0) bounds nothing
            if r_star < 1 and (norm != 0 or spec.vanishes):
                tail = abs(mult) * norm * r_star / (1 - r_star)
                if tail < target:
                    rounding = (n + 1) * (K + 1) * mp.eps * (total.norm1() + 1)
                    bound = tail + rounding + total.error_bound
                    return TruncatedSeries(tuple(+c for c in total.coeffs), +bound)

            # advance G by one index shift
            _add_per_parameter(G, spec, 0, shift)
            G[0] += logbase
            prev_norm = norm
            n += 1


def recognize(
    c: mpf,
    basis: Sequence[ConstantTag],
    height_bound: int,
    precision_bits: int,
) -> Optional[tuple[int, list[int]]]:
    """Find (q, a) with q*c = sum a_i * value(basis_i), all heights bounded
    by height_bound, via LLL on the scaled integer-relation lattice; the
    relation is verified against a residual threshold before being returned.
    Returns None when no bounded relation exists.
    """
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    needed = 2 * (len(basis) + 1) * math.log2(max(height_bound, 2)) + 64
    if precision_bits < needed:
        raise InsufficientPrecision(
            f"precision {precision_bits} bits < required {math.ceil(needed)}"
        )
    values = [constant_value(tag, precision_bits) for tag in basis]
    if len({mp.nstr(v, 40) for v in values}) != len(values):
        raise ValueError("basis values must be pairwise distinct")
    with mp.workprec(precision_bits + _WORK_GUARD):
        threshold = mpf(2) ** (-(precision_bits // 2))
        if abs(c) < threshold:
            return 1, [0] * len(basis)
        xs = [mpf(c)] + [mpf(v) for v in values]
        scale = mpf(2) ** (precision_bits - 48)
        rows = []
        for i, x in enumerate(xs):
            row = [0] * len(xs) + [int(mp.nint(scale * x))]
            row[i] = 1
            rows.append(row)
        reduced = lll_reduce(rows)
        k = len(xs)
        for row in sorted(reduced, key=lambda r: sum(x * x for x in r)):
            m = row[:k]
            q, rest = m[0], m[1:]
            if q == 0:
                continue
            if max(abs(t) for t in m) > height_bound:
                continue
            resid = abs(sum(mi * xi for mi, xi in zip(m, xs)))
            if resid < threshold:
                a = [-t for t in rest]
                if q < 0:
                    q, a = -q, [-t for t in a]
                return q, a
    return None


@record
class ExpansionClaim:
    """Claimed coefficient at one order: coefficient * prod(constants)."""

    order: int
    coefficient: Fraction
    constants: tuple[ConstantTag, ...] = ()

    def value(self, precision_bits: int) -> mpf:
        v = to_mpf(self.coefficient)
        for tag in self.constants:
            v *= constant_value(tag, precision_bits)
        return v


@record
class CoefficientCheck:
    order: int
    claimed: bool
    computed: mpf
    target: mpf
    defect: mpf
    passed: bool


@record
class ExpansionReport:
    series: str
    order: int
    precision_bits: int
    tolerance: mpf
    error_bound: mpf
    checks: tuple[CoefficientCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_expansion(
    spec: SeriesSpec,
    claims: Sequence[ExpansionClaim],
    K: int,
    precision_bits: int,
) -> ExpansionReport:
    """Check every claimed coefficient against the computed expansion, and
    require the unclaimed orders (implicit zeros) to vanish within the same
    tolerance.  Failures are report entries, never exceptions.

    The tolerance follows from the precision alone: max(16 * the expansion's
    error bound, 2^-(precision_bits // 2)), so a claim is held to about half
    the working bits.  A tighter check asks for more bits.
    """
    if any(cl.order > K for cl in claims):
        raise ValueError("claim order exceeds expansion order")
    ts = shifted_expansion(spec, K, precision_bits)
    with mp.workprec(precision_bits + _WORK_GUARD):
        tol = max(16 * ts.error_bound, mpf(2) ** (-(precision_bits // 2)))
        by_order = {cl.order: cl for cl in claims}
        checks = []
        for k in range(K + 1):
            cl = by_order.get(k)
            target = cl.value(precision_bits) if cl is not None else mp.zero
            defect = abs(ts.coeffs[k] - target)
            checks.append(
                CoefficientCheck(
                    order=k,
                    claimed=cl is not None,
                    computed=+ts.coeffs[k],
                    target=+target,
                    defect=+defect,
                    passed=bool(defect <= tol),
                )
            )
    return ExpansionReport(
        series=spec.name,
        order=K,
        precision_bits=precision_bits,
        tolerance=+tol,
        error_bound=+ts.error_bound,
        checks=tuple(checks),
    )

"""Archimedean side of the heuristic: expand a series shifted by a formal
offset x in powers of x at high precision, and recognize the coefficients as
rational multiples of library constants via integer-relation detection.

The per-term x-series are built incrementally.  Writing the term as
exp(G_n(x)) * P(n+x) / (alpha(n+x)+beta) with

    G_{n+1}(x) - G_n(x) = sum_i log(a_i+n+x) - sum_j log(b_j+n+x) + log z,
    log(a+n+x) = log(a+n) + sum_{k>=1} (-1)^{k+1} x^k / (k (a+n)^k),

only the n = 0 base case needs digamma / Hurwitz-zeta values.  Each later
term steps raw ``mpmath.libmp`` values, no mpf object, rounding where mpf
arithmetic would: per distinct parameter a (2 of 10 for eq2) one log(a+n)
and K powers, integer products and reciprocals; K + 1 additions per listed
parameter; an exp, K products j*G_j and K(K+1)/2 products for exp(G_n); at
most (deg P + 1)(K + 1) by P(n+x); 2K for 1/(alpha(n+x)+beta) and
(K+1)(K+2)/2 by it; and four norms.  Products with an exact zero are skipped.
``verify_expansion`` returns an ``ExpansionReport`` of mpf values that
``cli`` renders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from typing import Optional, Sequence

from mpmath import mp, mpf
from mpmath.libmp import (MPZ_ONE, from_int, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div,
                          mpf_exp, mpf_gt, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pow_int, mpf_rdiv_int, mpf_sub, round_nearest)

from ._record import record
from .constants import ConstantTag, constant_value, to_mpf
from .errors import InsufficientPrecision
from .lattice import lll_reduce
from .series import SeriesSpec

_WORK_GUARD = 64
_N = round_nearest
_ONE = from_int(1)
_BY_VALUE = cmp_to_key(mpf_cmp)

# The ring R[x]/(x^{K+1}) on raw libmp values at precision p, rounding to
# nearest: each function performs the roundings of the matching mpf expression
# of ``ReferenceSeries`` in ``tests/oracles.py``, in its order, and must agree
# with it bit for bit.  Adding to or from an mpf zero rounds nothing more.


def _eps(factor: int, p: int) -> tuple:
    """factor * mp.eps."""
    return mpf_mul_int((0, MPZ_ONE, 1 - p, 1), factor, p, _N)


def _q(q: Fraction, p: int) -> tuple:
    """to_mpf(q): mpf(numerator) / denominator."""
    return mpf_div(from_int(q.numerator, p, _N), from_int(q.denominator), p, _N)


def _norm1(cs, p: int) -> tuple:
    """sum(abs(c) for c in cs)."""
    acc = fzero
    for c in cs:
        if c[1]:
            c = (0, c[1], c[2], c[3]) if c[3] <= p else mpf_abs(c, p, _N)
            acc = mpf_add(acc, c, p, _N) if acc[1] else c
    return acc


def _conv(u, v, k: int, p: int) -> tuple:
    """The sum of u[j] * v[k - j] over j = 1..k, from an mpf zero."""
    s = fzero
    for j in range(1, k + 1):
        x, y = u[j], v[k - j]
        if x[1] and y[1]:
            t = mpf_mul(x, y, p, _N)
            s = mpf_add(s, t, p, _N) if s[1] else t
    return s


def _add(a, b, ea, eb, p: int):
    return [mpf_add(x, y, p, _N) for x, y in zip(a, b)], mpf_add(ea, eb, p, _N)


def _mul(a, b, ea, eb, na, nb, p: int):
    """a * b and its error, from the norms na = |a|_1 and nb = |b|_1."""
    K = len(a) - 1
    out = [fzero] * (K + 1)
    for i, x in enumerate(a):
        if x[1]:
            for j, y in enumerate(b[:K + 1 - i], i):
                if y[1]:
                    t, s = mpf_mul(x, y, p, _N), out[j]
                    out[j] = mpf_add(s, t, p, _N) if s[1] else t
    err = mpf_add(mpf_mul(ea, mpf_add(nb, eb, p, _N), p, _N), mpf_mul(eb, na, p, _N), p, _N)
    return out, mpf_add(err, mpf_mul(mpf_mul(_eps(K + 1, p), na, p, _N), nb, p, _N), p, _N)


def _scale(a, ea, na, s, p: int):
    """s * a and its error, from the norm na = |a|_1."""
    m = mpf_abs(s, p, _N)
    err = mpf_add(mpf_mul(ea, m, p, _N), mpf_mul(mpf_mul(_eps(1, p), m, p, _N), na, p, _N), p, _N)
    return [mpf_mul(x, s, p, _N) for x in a], err


def _recip(a, ea, p: int):
    """1/a for a[0] != 0, its error and its norm."""
    out = [mpf_rdiv_int(1, a[0], p, _N)] + [fzero] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = mpf_mul(mpf_neg(_conv(a, out, k, p), p, _N), out[0], p, _N)
    n = _norm1(out, p)
    err = mpf_mul(mpf_mul(_eps(len(a), p), n, p, _N), mpf_add(n, _ONE, p, _N), p, _N)
    return out, mpf_add(mpf_mul(mpf_mul(ea, n, p, _N), n, p, _N), err, p, _N), n


def _exp(a, ea, p: int):
    """exp(a), splitting off the constant term, its error and its norm."""
    ja = [mpf_mul_int(c, j, p, _N) for j, c in enumerate(a)]  # j * a[j], once
    out = [_ONE] + [fzero] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = mpf_div(_conv(ja, out, k, p), from_int(k), p, _N)
    lead = mpf_exp(a[0], p, _N)
    out = [mpf_mul(c, lead, p, _N) for c in out]
    n = _norm1(out, p)
    err = mpf_mul(mpf_mul(ea, n, p, _N), mpf_add(ea, _ONE, p, _N), p, _N)
    return out, mpf_add(err, mpf_mul(_eps(len(a), p), n, p, _N), p, _N), n


@record
class TruncatedSeries:
    """The x-expansion that ``shifted_expansion`` returns: the mpf
    coefficients of x^0..x^K and one uniform error bound on them."""

    coeffs: tuple[mpf, ...]
    error_bound: mpf


def _poly_shift(poly: Sequence[Fraction], K: int):
    """n -> the coefficients of P(n + x) in x through x^K, exactly."""
    den = math.lcm(*(c.denominator for c in poly))
    ints = [(d, int(c * den)) for d, c in enumerate(poly) if c]
    return lambda n: [Fraction(sum(c * comb(d, j) * n ** (d - j) for d, c in ints if d >= j), den)
                      for j in range(K + 1)]


def _add_per_parameter(G: list, first: int, values: list, upper, lower, p: int) -> None:
    """G[first + i] += values[u][i] for each index u in ``upper``, then
    G[first + i] -= values[b][i] for each index b in ``lower``, in list order:
    ``values`` holds one list per distinct parameter, since the lists repeat
    parameters (eq2 has five 1/2 and five 1)."""
    for u in upper:
        for k, v in enumerate(values[u], first):
            G[k] = mpf_add(G[k], v, p, _N)
    for b in lower:
        for k, v in enumerate(values[b], first):
            G[k] = mpf_sub(G[k], v, p, _N)


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
    p = precision_bits + _WORK_GUARD
    with mp.workprec(p):
        target = mpf_pow_int(from_int(2), -precision_bits, p, _N)
        base_m = _q(spec.base, p)
        logbase = mpf_log(base_m, p, _N)
        mult = _q(spec.multiplier, p)
        signed = (mpf_mul_int(mult, 1, p, _N), mpf_mul_int(mult, -1, p, _N))
        abs_mult = mpf_abs(mult, p, _N)
        params = list(dict.fromkeys((*spec.upper, *spec.lower)))
        q = [_q(a, p) for a in params]
        upper, lower = ([params.index(a) for a in ab] for ab in (spec.upper, spec.lower))
        poly_at = _poly_shift(spec.poly, K)

        # G_0(x): digamma / Hurwitz-zeta data of the shifted rising factorials,
        # in mpf and with more bits than p: the first addition into G rounds them
        G = [fzero] * (K + 1)

        def base_case(a):  # the x^1..x^K coefficients of log Gamma(a + x)
            am = to_mpf(a)
            return [mp.digamma(am)._mpf_] + [((-1) ** k * mp.zeta(k, am) / k)._mpf_
                                             for k in range(2, K + 1)]

        def shift(i):  # the x^0..x^K coefficients of log(a + n + x), a = params[i]
            an = mpf_add(q[i], from_int(n), p, _N)
            return [mpf_log(an, p, _N)] + [
                mpf_rdiv_int((-1) ** (k + 1), mpf_mul_int(mpf_pow_int(an, k, p, _N), k, p, _N),
                             p, _N) for k in range(1, K + 1)]

        if K >= 1:
            _add_per_parameter(G, 1, [base_case(a) for a in params], upper, lower, p)
            G[1] = mpf_add(G[1], logbase, p, _N)

        total, total_err = [fzero] * (K + 1), fzero
        prev_norm = None
        n = 0
        while True:
            H, err, nh = _exp(G, fzero, p)
            P = [_q(c, p) for c in poly_at(n)]
            term, err = _mul(H, P, err, fzero, nh, _norm1(P, p), p)
            if spec.denom_linear is not None:
                alpha, beta = spec.denom_linear
                lin = ([_q(alpha * n + beta, p), _q(alpha, p)] + [fzero] * (K - 1))[:K + 1]
                R, err_r, nr = _recip(lin, fzero, p)
                term, err = _mul(term, R, err, err_r, _norm1(term, p), nr, p)
            s = signed[spec.sign == -1 and n % 2 == 1]
            scaled, err = _scale(term, err, _norm1(term, p), s, p)
            total, total_err = _add(total, scaled, total_err, err, p)

            norm = max(((0, *c[1:]) for c in term), key=_BY_VALUE)  # max(abs(c) ...)
            rho = (base_m if prev_norm in (None, fzero) or not norm[1]
                   else mpf_div(norm, prev_norm, p, _N))
            inflate = mpf_add(mpf_div(from_int(8), from_int(n + 1), p, _N), _ONE, p, _N)
            r_star = mpf_mul(rho if mpf_gt(rho, base_m) else base_m, inflate, p, _N)
            # a zero term (a root of P at order 0) bounds nothing
            if mpf_lt(r_star, _ONE) and (norm[1] or spec.vanishes):
                tail = mpf_div(mpf_mul(mpf_mul(abs_mult, norm, p, _N), r_star, p, _N),
                               mpf_sub(_ONE, r_star, p, _N), p, _N)
                if mpf_lt(tail, target):
                    rounding = mpf_mul(_eps((n + 1) * (K + 1), p),
                                       mpf_add(_norm1(total, p), _ONE, p, _N), p, _N)
                    bound = mpf_add(mpf_add(tail, rounding, p, _N), total_err, p, _N)
                    return TruncatedSeries(tuple(map(mp.make_mpf, total)), mp.make_mpf(bound))

            # advance G by one index shift
            _add_per_parameter(G, 0, [shift(i) for i in range(len(params))], upper, lower, p)
            G[0] = mpf_add(G[0], logbase, p, _N)
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

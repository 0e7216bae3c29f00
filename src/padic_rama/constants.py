"""High-precision evaluation of the archimedean constant library: powers of
1/pi, zeta values, quadratic Dirichlet L-values at positive integers, and
square roots.

mpmath supplies the arbitrary-precision substrate (pi, Hurwitz zeta,
digamma, sqrt); the quadratic L-values are assembled here from the
conductor-f Hurwitz decomposition L(k, chi) = f^-k sum_a chi(a) zeta(k, a/f),
with the k = 1 column handled through digamma since the Hurwitz poles cancel
against sum chi(a) = 0.  The functions that compute with mpmath import it
when called: the p-adic side, which uses only the tag classes, never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Union

from ._record import record
from .lfunctions import QuadCharacter

if TYPE_CHECKING:
    from mpmath import mpf

_GUARD_BITS = 32


@record
class One:
    """The constant 1 (rational coefficients with no transcendental part)."""


@record
class PiPower:
    """pi^(-exponent), exponent >= 1."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")


@record
class Zeta:
    """zeta(k) at an integer k >= 2."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")


@record
class Lquad:
    """L(k, chi_D) for a discriminant ``QuadCharacter`` accepts other than 1,
    and k >= 1."""

    disc: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        QuadCharacter(self.disc)  # validates the discriminant
        if self.disc == 1:
            raise ValueError("disc 1 is the trivial character: use zeta")


@record
class SqrtDisc:
    """sqrt(d) for an integer d >= 2."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("d must be >= 2")


ConstantTag = Union[One, PiPower, Zeta, Lquad, SqrtDisc]

ONE = One()


def to_mpf(q: Fraction | int) -> mpf:
    """Exact rational -> mpf at the ambient working precision."""
    from mpmath import mpf

    q = Fraction(q)
    return mpf(q.numerator) / q.denominator


@cache
def constant_value(tag: ConstantTag, precision_bits: int) -> mpf:
    """Value of a constant tag, accurate to ~2^-precision_bits, memoized per
    (tag, precision)."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    from mpmath import mp

    with mp.workprec(precision_bits + _GUARD_BITS):
        return +_evaluate(tag)


def _evaluate(tag: ConstantTag) -> mpf:
    from mpmath import mp

    if isinstance(tag, One):
        return mp.one
    if isinstance(tag, PiPower):
        return 1 / mp.pi**tag.exponent
    if isinstance(tag, Zeta):
        return mp.zeta(tag.k)
    if isinstance(tag, SqrtDisc):
        return mp.sqrt(tag.d)
    if isinstance(tag, Lquad):
        return _l_value(QuadCharacter(tag.disc), tag.k)
    raise TypeError(f"unknown constant tag {tag!r}")


def _l_value(chi: QuadCharacter, k: int) -> mpf:
    from mpmath import mp, mpf

    f = chi.conductor
    total = mp.zero
    for a in range(1, f + 1):
        c = chi(a)
        if c == 0:
            continue
        x = mpf(a) / f
        if k == 1:
            total -= c * mp.digamma(x)
        else:
            total += c * mp.zeta(k, x)
    if k == 1:
        return total / f
    return total / mpf(f) ** k

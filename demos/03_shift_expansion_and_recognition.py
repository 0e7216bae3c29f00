"""Shift a series by a formal offset x and read constants off the expansion.

Replacing every index n by n+x (rising factorials continued through the
gamma function) turns each series into a power series in x whose
coefficients are rational combinations of zeta values, quadratic L-values,
powers of 1/pi and square roots.  Integer-relation detection (mpmath's PSLQ)
recovers those rational multiples from nothing but the numerical
coefficients.
"""

from fractions import Fraction

from mpmath import mp

from padic_rama import recognize, shifted_expansion
from padic_rama.cli import parse_series, resolve_input
from padic_rama.constants import Lquad, PiPower, SqrtDisc, Zeta

BITS = 256

spec = parse_series(resolve_input("eq2"))
ts = shifted_expansion(spec, 5, BITS)
print(f"{spec.name}: x-shift expansion to order 5 "
      f"(coefficient error < {mp.nstr(ts.error_bound, 4)})")
for k, c in enumerate(ts.coeffs):
    print(f"  x^{k}: {mp.nstr(c, 35)}")

# Which constants are these?  Ask PSLQ.
probes = {
    0: [PiPower(2)],
    2: [Zeta(2)],     # wrong basis on purpose: the coefficient is rational
    4: [Zeta(2)],
    5: [Zeta(3)],
}
print("\nrecognition against small bases (height bound 10^6):")
for k, basis in probes.items():
    hit = recognize(ts.coeffs[k], basis, 10**6, BITS)
    if hit is None:
        print(f"  x^{k} vs {basis}: no bounded relation")
    else:
        q, a = hit
        terms = " + ".join(f"({ai}/{q})*{b}" for ai, b in zip(a, basis))
        print(f"  x^{k} vs {basis}: coefficient = {terms}")

# The same machinery on a series with a quadratic character behind it.
spec9 = parse_series(resolve_input("eq9")).scaled(Fraction(1, 128))
ts9 = shifted_expansion(spec9, 5, BITS)
for k, basis in [(2, [SqrtDisc(5)]), (4, [Lquad(5, 2)]), (5, [Lquad(5, 3)])]:
    hit = recognize(ts9.coeffs[k], basis, 10**6, BITS)
    print(f"  eq9/128 x^{k} vs {basis}: {hit}")

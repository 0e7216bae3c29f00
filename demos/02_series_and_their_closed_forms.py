"""Full sums against their closed forms at high precision.

numeric_sum sums the series exactly, in integers, from the recurrence that
also gives the truncated sums modulo p^m, and rounds once at the end.  It
picks the term count from a geometric tail bound, so the returned
(value, bound) pair is honest: tightening the precision only moves the value
within the previous bound.
"""

from mpmath import mp

from padic_rama import numeric_sum, rhs_value
from padic_rama.cli import parse_series, resolve_input

for name in ["eq2", "eq6", "eq9", "gourevitch", "eq15"]:
    spec = parse_series(resolve_input(name))
    value, bound = numeric_sum(spec, 128)
    target = rhs_value(spec, 128)
    with mp.workprec(192):
        diff = abs(value - target)
    rhs = spec.rhs
    pretty = f"{rhs.coefficient}"
    if rhs.sqrt_disc > 1:
        pretty += f"*sqrt({rhs.sqrt_disc})"
    if rhs.pi_exponent:
        pretty += f"/pi^{rhs.pi_exponent}"
    print(f"{name:10s} = {mp.nstr(value, 30)}")
    print(f"{'':10s}   claimed {pretty} = {mp.nstr(target, 30)}")
    print(f"{'':10s}   |difference| = {mp.nstr(diff, 4)}, tail bound {mp.nstr(bound, 4)}\n")

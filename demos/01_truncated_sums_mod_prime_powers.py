"""Truncated hypergeometric sums against prime-power templates.

Each shipped series comes with a template claiming what its first p terms
add up to modulo a power of p: a short combination of p-powers, Kronecker
symbols and one-digit zeta_p / L_p constants.  This script verifies every
pairing over a prime range and then shows what a failing template looks
like (the report records the exact p-adic depth at which it breaks).
"""

from dataclasses import replace
from fractions import Fraction

from padic_rama import primes_in_range, verify_congruence
from padic_rama.cli import parse_series, parse_template, resolve_input

PAIRINGS = [
    ("eq2", "eq5", 5, 199),
    ("eq6", "eq8", 5, 199),
    ("eq9", "eq11", 7, 199),
    ("gourevitch", "eq14", 5, 149),
    ("eq15", "eq16", 7, 199),
]

for sname, tname, lo, hi in PAIRINGS:
    spec = parse_series(resolve_input(sname))
    tpl = parse_template(resolve_input(tname))
    report = verify_congruence(spec, tpl, primes_in_range(lo, hi))  # drops inadmissible primes
    c, rows = report.counts, report.rows
    print(f"{sname:10s} vs {tname:5s}  mod p^{tpl.modulus_power}: "
          f"{c['pass']} pass / {c['fail']} fail over p = {rows[0].p}..{rows[-1].p}")

# Now sabotage one coefficient and watch the defect appear at its slot.
spec = parse_series(resolve_input("eq2"))
tpl = parse_template(resolve_input("eq5"))
bad = replace(tpl, terms=(tpl.terms[0],
                          replace(tpl.terms[1], coefficient=Fraction(-7, 3))))
report = verify_congruence(spec, bad, [11, 13, 17])
print("\nperturbing the p^5 coefficient of the first template:")
for row in report.rows:
    print(f"  p={row.p}: pass={row.passed}, defect valuation={row.defect_valuation}")
print("the defect sits exactly at p^5 -- the slot whose coefficient was changed")

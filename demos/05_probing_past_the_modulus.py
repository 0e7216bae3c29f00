"""Scanning for the next term beyond a verified modulus.

Given a template that already verifies, the scan subtracts it from the
truncated sums at a deeper modulus, finds the first nonzero digit, and asks
whether some candidate constant explains that digit with one small rational
coefficient across all primes.

Two honest limits show up.  Templates ending in a one-digit constant
(zeta_p / L_p) cannot be evaluated past their own modulus at all -- the
constant's next digit is unknowable -- and the scan says so.  And a
candidate list without the right constant simply reports no bounded
relation.
"""

from fractions import Fraction

from padic_rama import ExpansionTemplate, TemplateTerm, primes_in_range, scan_next_term
from padic_rama.cli import parse_series, parse_template, resolve_input
from padic_rama.congruence import ZetaP
from padic_rama.constants import ONE

# Start from the bare constant 7 (the mod-p digit of one series) and let the
# scan find where the next term sits and what multiplies it.
spec = parse_series(resolve_input("eq6"))
seed = ExpansionTemplate(terms=(TemplateTerm(0, ONE, Fraction(7)),), modulus_power=1)
report = scan_next_term(spec, seed, primes_in_range(5, 120), [ZetaP(3), ZetaP(5), ONE],
                        max_power=5)
print(f"seed template '7' for {spec.name}: outcome={report.outcome}, "
      f"first defect at p^{report.defect_exponent}")
for cand in report.candidates:
    value = cand.coefficient if cand.coefficient is not None else f"none ({cand.note})"
    print(f"  candidate {cand.constant}: {value}")
print("the zeta_p(3) slot carries -105/2, matching the shipped eq8 template\n")

# A template that ends in a one-digit constant caps its own probing depth.
spec2 = parse_series(resolve_input("eq2"))
tpl5 = parse_template(resolve_input("eq5"))
report = scan_next_term(spec2, tpl5, primes_in_range(5, 60), [ZetaP(5), ONE])
print(f"probing past eq5: outcome={report.outcome}")
print(f"  {report.note}")

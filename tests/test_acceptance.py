"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 3 is special: the stated congruence pins the one-digit L-constant
at slot p^3 modulo p^4, but the truncated sums carry a zero digit there for
every admissible prime; the term demonstrably lives at p^5 modulo p^6 (the
template-shape form, which passes below and whose fit recovers the stated
coefficients).  The literal criterion is therefore implemented faithfully
and marked strict-xfail rather than weakened.
"""

import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from mpmath import mp, mpf

from padic_rama import admissible_primes, congruence
from padic_rama.congruence import (
    ExpansionTemplate,
    Kron,
    TemplateTerm,
    ZetaP,
    fit_unknowns,
    template_rhs_mod,
    verify_congruence,
)
from padic_rama.constants import ONE, Lquad, Zeta, constant_value
from padic_rama.errors import BadPrime, PrecisionUnavailable
from padic_rama.exactnum import (
    ResidueClass,
    primes_in_range,
    rational_reconstruct,
    reduce_rational,
)
from padic_rama.expansion import recognize, verify_expansion
from padic_rama.lfunctions import bernoulli_all_mod_p
from padic_rama.series import (
    ClosedForm,
    SeriesSpec,
    numeric_sum,
    rhs_value,
    truncated_sum_exact,
    truncated_sum_mod,
)

from oracles import L_nonpositive, ReferenceSeries, bernoulli_numbers

F = Fraction

ZERO_SPEC = SeriesSpec(
    name="zero", upper=(F(1, 2),), lower=(F(1),), sign=1, base=F(1, 4),
    poly=(F(0),), denom_linear=None, multiplier=F(1), rhs=ClosedForm(F(0)),
)


def _report(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{label} failed {detail}"


def _congruence_criterion(label, series, templates, sname, tname, lo, hi,
                          budget_s=None):
    spec, tpl = series[sname], templates[tname]
    primes = admissible_primes(spec, tpl, primes_in_range(lo, hi))
    t0 = time.monotonic()
    report = verify_congruence(spec, tpl, primes)
    elapsed = time.monotonic() - t0
    ok = report.all_pass and report.counts["pass"] == len(primes)
    detail = f"{report.counts['pass']}/{len(primes)} primes in {elapsed:.1f}s"
    if budget_s is not None:
        ok = ok and elapsed < budget_s
    _report(label, ok, detail)


def test_criterion_1_mod_p6_congruence(series, templates):
    _congruence_criterion("criterion 1 (eq2 vs eq5, mod p^6, 5..199)",
                          series, templates, "eq2", "eq5", 5, 199, budget_s=60)


def test_criterion_2_mod_p4_congruence(series, templates):
    _congruence_criterion("criterion 2 (eq6 vs eq8, mod p^4, 5..199)",
                          series, templates, "eq6", "eq8", 5, 199)


@pytest.mark.xfail(
    strict=True,
    reason="stated pairing is empirically false: the truncated sums satisfy "
           "S = 29(5|p)p^2 (mod p^4) with a zero p^3 digit at every admissible "
           "prime, while (35/216)L_5(4-p) does not vanish mod p in general; "
           "the L-term lives at p^5 mod p^6 (see the template-shape check)",
)
def test_criterion_3_stated_congruence(series, templates):
    _congruence_criterion("criterion 3 (eq9 vs eq12 as stated, mod p^4)",
                          series, templates, "eq9", "eq12", 7, 199)


def test_criterion_3_template_shape_congruence(series, templates):
    _congruence_criterion(
        "criterion 3* (eq9 vs eq11 template shape, L-term at p^5 mod p^6)",
        series, templates, "eq9", "eq11", 7, 199)


def test_criterion_4_mod_p8_congruence(series, templates):
    # the one-digit constant at k=4 needs p >= 6, so p=5 is inadmissible;
    # the congruence is checked over every admissible prime in [5, 149]
    spec, tpl = series["gourevitch"], templates["eq14"]
    primes = admissible_primes(spec, tpl, primes_in_range(5, 149))
    assert primes[0] == 7 and primes[-1] == 149
    with pytest.raises(PrecisionUnavailable):
        template_rhs_mod(tpl, 5)
    report = verify_congruence(spec, tpl, primes)
    _report("criterion 4 (gourevitch vs eq14, mod p^8, admissible 5..149)",
            report.all_pass, f"{report.counts['pass']}/{len(primes)} primes")


def test_criterion_5_rescaled_congruence(series, templates):
    _congruence_criterion("criterion 5 (eq15 vs eq16, mod p^4, 7..199)",
                          series, templates, "eq15", "eq16", 7, 199)


def test_criterion_6_archimedean_expansions(series, claims):
    pairings = [("eq3-claims", "eq2"), ("eq7-claims", "eq6"),
                ("eq10-claims", "eq9"), ("eq13-claims", "gourevitch"),
                ("eq15x-claims", "eq15")]
    t0 = time.monotonic()
    worst = mp.zero
    for cname, sname in pairings:
        cf = claims[cname]
        report = verify_expansion(series[sname].scaled(cf.scale), cf.claims,
                                  cf.order, 256)
        assert report.all_pass, cname
        worst = max(worst, max(c.defect for c in report.checks))
    elapsed = time.monotonic() - t0
    _report("criterion 6 (five expansions at 256 bits, error < 1e-40)",
            bool(worst < mpf("1e-40")) and elapsed < 300,
            f"worst defect {mp.nstr(worst, 4)} in {elapsed:.1f}s")


def test_criterion_7_full_sum_identities(series):
    worst = mp.zero
    for spec in series.values():
        value, _ = numeric_sum(spec, 128)
        target = rhs_value(spec, 128)
        with mp.workprec(192):
            worst = max(worst, abs(value - target))
    _report("criterion 7 (five closed forms at 128 bits, error < 2^-120)",
            bool(worst < mpf(2) ** -120), f"worst {mp.nstr(worst, 4)}")


def test_criterion_8_discovery_round_trips(series, templates):
    cases = [
        ("eq2", "eq5-unknowns", 5, 97, (F(1), F(-7, 2))),
        ("eq6", "eq8-unknowns", 5, 199, (F(7), F(-105, 2))),
        ("eq9", "eq11-unknowns", 7, 199, (F(29), F(-35, 216))),
        ("gourevitch", "eq14-unknowns", 5, 149, (F(1), F(-6))),
        ("eq15", "eq16-unknowns", 7, 199, (F(280), F(280))),
    ]
    ok = True
    details = []
    for sname, tname, lo, hi, want in cases:
        spec, tpl = series[sname], templates[tname]
        primes = admissible_primes(spec, tpl, primes_in_range(lo, hi))
        res = fit_unknowns(spec, tpl, primes)
        good = res.coefficients == want and res.held_out_ok \
            and len(res.held_out_primes) > 0
        ok = ok and good
        details.append(f"{sname}:{','.join(map(str, res.coefficients))}")
    _report("criterion 8 (five coefficient fits with held-out verification)",
            ok, "; ".join(details))


def test_criterion_9_oracle_equivalence(series):
    checked = 0
    for spec in series.values():
        for p in primes_in_range(5, 31):
            try:
                got = truncated_sum_mod(spec, p, 8)
            except BadPrime:
                continue
            want = reduce_rational(truncated_sum_exact(spec, p), p, 8)
            for m in range(1, 9):
                assert got % p**m == want.residue(m), (spec.name, p, m)
            checked += 1
    _report("criterion 9 (mod path == reduced exact path, p <= 31, m <= 8)",
            checked >= 30, f"{checked} (series, prime) pairs")


def test_criterion_10_number_theory_kernel():
    classical = {
        0: F(1), 1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 6: F(1, 42),
        8: F(-1, 30), 10: F(5, 66), 12: F(-691, 2730), 14: F(7, 6),
        16: F(-3617, 510), 18: F(43867, 798), 20: F(-174611, 330),
    }
    B = bernoulli_numbers(98)
    ok = all(B[k] == v for k, v in classical.items())
    for p in primes_in_range(5, 101):
        table = bernoulli_all_mod_p(p)
        for k in range(p - 2):
            ok = ok and table[k] == B[k].numerator * pow(B[k].denominator, -1, p) % p
    for n in range(1, 31):
        denom = B[2 * n].denominator
        want = math.prod(
            q for q in primes_in_range(2, 2 * n + 1) if (2 * n) % (q - 1) == 0
        )
        ok = ok and denom == want
    ok = ok and L_nonpositive(-4, 0) == F(1, 2)
    for D in (5, -4, -23):
        for m in range(1, 13):
            zero = L_nonpositive(D, 1 - m) == 0
            ok = ok and zero == ((m % 2 == 1) if D > 0 else (m % 2 == 0))
    _report("criterion 10 (Bernoulli/L kernel: tables, denominators, zeros)", ok)


def test_criterion_11_property_suites():
    # rational reconstruction round trip at heights <= 10^6
    primes = [2003, 2011, 2017, 2027, 2029, 2039, 2053]
    M = math.prod(primes)
    assert M > 2 * (10**6) ** 2
    rng = random.Random(11)
    trips = 0
    for _ in range(100):
        a = rng.randrange(-(10**6), 10**6 + 1)
        b = rng.randrange(1, 10**6 + 1)
        q = F(a, b)
        if any(q.denominator % p == 0 for p in primes):
            continue
        r = q.numerator * pow(q.denominator, -1, M) % M
        assert rational_reconstruct(ResidueClass(r, M)) == q
        trips += 1
    assert trips >= 95

    # planted-coefficient fit recovery
    all_primes = primes_in_range(29, 199)
    constants = [ONE, Kron(5), Kron(-4)]
    fits = 0
    for _ in range(100):
        M_pow = rng.randrange(2, 7)
        exps = sorted(rng.sample(range(M_pow), rng.randrange(1, min(3, M_pow) + 1)))
        terms = tuple(
            TemplateTerm(e, rng.choice(constants),
                         F(rng.randrange(-10**4, 10**4 + 1), rng.randrange(1, 10**4)))
            for e in exps
        )
        if M_pow - exps[-1] == 1 and rng.random() < 0.5:
            terms = terms[:-1] + (TemplateTerm(exps[-1], ZetaP(3),
                                               terms[-1].coefficient),)
        planted = ExpansionTemplate(terms=terms, modulus_power=M_pow)
        ps = sorted(
            p for p in rng.sample(all_primes, 16)
            if all(t.coefficient.denominator % p != 0 for t in terms)
        )
        truth = {p: template_rhs_mod(planted, p) for p in ps}
        unknown = ExpansionTemplate(
            terms=tuple(TemplateTerm(t.exponent, t.constant, None) for t in terms),
            modulus_power=M_pow,
        )
        with mock.patch.object(congruence, "truncated_sums_mod",
                               lambda spec, primes, m: {p: truth[p] % p**m for p in primes}):
            res = fit_unknowns(ZERO_SPEC, unknown, ps)
        assert res.coefficients == tuple(t.coefficient for t in terms)
        fits += 1
    assert fits == 100

    # truncated-series ring laws, on the mpf-object ring that the libmp
    # kernel of ``expansion`` matches bit for bit
    with mp.workprec(160):
        for seed in range(10):
            r2 = random.Random(seed)
            A, B, C = (
                ReferenceSeries(
                    [mpf(r2.randrange(-9, 10)) / (1 + r2.randrange(4))
                     for _ in range(6)],
                    mp.zero,
                )
                for _ in range(3)
            )
            left, right = (A * B) * C, A * (B * C)
            tol = left.error_bound + right.error_bound + mpf(2) ** -120
            assert all(abs(a - b) <= tol for a, b in zip(left.coeffs, right.coeffs))

    # integer-relation detection hits and rejections at height 10^6
    with mp.workprec(320):
        c1 = 50 * constant_value(Zeta(2), 256)
        c2 = mpf(110875) / 32 * constant_value(Lquad(5, 2), 256)
        noise = +mp.pi
    assert recognize(c1, [Zeta(2)], 10**6, 256) == (1, [50])
    assert recognize(c2, [Lquad(5, 2)], 10**6, 256) == (32, [110875])
    assert recognize(noise, [Zeta(2)], 10**6, 256) is None
    _report("criterion 11 (reconstruction, planted fits, ring laws, recognition)",
            True, f"{trips} round trips, {fits} fits")

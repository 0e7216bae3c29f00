import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from padic_rama import admissible_primes, congruence, replace
from padic_rama.congruence import (
    ExpansionTemplate,
    Kron,
    LQp,
    TemplateTerm,
    ZetaP,
    constant_mod_p,
    constant_values,
    fit_unknowns,
    inadmissible,
    is_structural_zero,
    scan_next_term,
    template_rhs_mod,
    verify_congruence,
)
from padic_rama.constants import ONE
from padic_rama.errors import (
    BadPrime,
    InconsistentResidues,
    InvariantViolation,
    PrecisionUnavailable,
    ReconstructionFailed,
    UnknownCoefficient,
)
from padic_rama.exactnum import kronecker, primes_in_range
from padic_rama.series import ClosedForm, SeriesSpec
from padic_rama.cli import parse_template

from oracles import L_nonpositive, power_sum_digit

SEED_7 = Path(__file__).parent / "fixtures" / "seed-7.json"

F = Fraction


def tpl(terms, M, scale=F(1)):
    return ExpansionTemplate(
        terms=tuple(TemplateTerm(e, c, None if r is None else F(r)) for e, c, r in terms),
        modulus_power=M,
        scale=scale,
    )


ZERO_SPEC = SeriesSpec(
    name="zero",
    upper=(F(1, 2),),
    lower=(F(1),),
    sign=1,
    base=F(1, 4),
    poly=(F(0),),
    denom_linear=None,
    multiplier=F(1),
    rhs=ClosedForm(F(0)),
)


def fit_synthetic(t, primes, truth):
    """``fit_unknowns`` on ZERO_SPEC, with ``truth[p]`` standing in for the
    truncated sum at each prime it reads."""
    def sums(spec, ps, m):
        return {p: truth[p] % p**m for p in ps}

    with mock.patch.object(congruence, "truncated_sums_mod", sums):
        return fit_unknowns(ZERO_SPEC, t, primes)


class TestStructuralZeros:
    def test_parity_rules(self):
        assert is_structural_zero(ZetaP(2))
        assert not is_structural_zero(ZetaP(3))
        assert is_structural_zero(LQp(5, 2))
        assert not is_structural_zero(LQp(5, 3))
        assert is_structural_zero(LQp(-4, 1))
        assert is_structural_zero(LQp(-4, 3))
        assert not is_structural_zero(LQp(-4, 4))
        assert is_structural_zero(LQp(-23, 1))
        assert not is_structural_zero(LQp(-23, 2))
        assert not is_structural_zero(Kron(5))
        assert not is_structural_zero(ONE)


class TestTemplateInvariants:
    def test_strictly_increasing_exponents(self):
        with pytest.raises(InvariantViolation):
            tpl([(2, ONE, 1), (2, ONE, 2)], 4)

    def test_last_exponent_below_modulus(self):
        with pytest.raises(InvariantViolation):
            tpl([(4, ONE, 1)], 4)

    def test_one_digit_constants_need_last_slot(self):
        with pytest.raises(InvariantViolation):
            tpl([(2, ZetaP(3), 1)], 6)
        tpl([(5, ZetaP(3), 1)], 6)

    def test_scale_positive(self):
        with pytest.raises(InvariantViolation):
            tpl([(0, ONE, 1)], 2, scale=F(-1))


class TestTemplateRhsMod:
    def test_constant_template(self):
        t = tpl([(0, ONE, 7)], 4)
        for p in (5, 11):
            assert template_rhs_mod(t, p) == 7

    def test_eq5_at_7(self, templates):
        # p^2 - (7/2) zeta_p(3) p^5 with zeta_p(3) = zeta(-3) = 1 (mod 7)
        got = template_rhs_mod(templates["eq5"], 7)
        pw = 7**6
        want = (49 - 7 * pow(2, -1, pw) % pw * 7**5) % pw
        assert got == want

    def test_eq14_at_13_against_exact_oracle(self, templates):
        p = 13
        got = template_rhs_mod(templates["eq14"], p)
        L = L_nonpositive(-4, 5 - p)
        Lp = L.numerator * pow(L.denominator, -1, p) % p
        pw = p**8
        want = (kronecker(-4, p) * p**3 - 6 * Lp * p**7) % pw
        assert got == want

    def test_eq14_at_5_is_inadmissible(self, templates):
        # the one-digit constant needs p >= k+2 = 6
        with pytest.raises(PrecisionUnavailable):
            template_rhs_mod(templates["eq14"], 5)

    def test_unknowns_rejected(self, templates):
        with pytest.raises(UnknownCoefficient):
            template_rhs_mod(templates["eq5-unknowns"], 7)

    def test_linear_in_coefficients(self):
        rng = random.Random(23)
        constants = [ONE, Kron(5), Kron(-4)]
        for _ in range(25):
            M = rng.randrange(2, 6)
            exps = sorted(rng.sample(range(M), rng.randrange(1, min(3, M) + 1)))
            cs = [rng.choice(constants) for _ in exps]
            r1 = [F(rng.randrange(-99, 100), rng.choice([1, 2, 4])) for _ in exps]
            r2 = [F(rng.randrange(-99, 100), rng.choice([1, 2, 4])) for _ in exps]
            t1 = tpl(list(zip(exps, cs, r1)), M)
            t2 = tpl(list(zip(exps, cs, r2)), M)
            ts = tpl(list(zip(exps, cs, [a + b for a, b in zip(r1, r2)])), M)
            p = 7
            pw = p**M
            assert template_rhs_mod(ts, p) == (
                template_rhs_mod(t1, p) + template_rhs_mod(t2, p)
            ) % pw

    def test_kron_is_exact_at_full_width(self):
        # a -1 Kronecker value must act as -1 modulo p^M, not just modulo p
        t = tpl([(0, Kron(5), 1)], 4)
        p = 7  # (5|7) = -1
        assert template_rhs_mod(t, p) == 7**4 - 1


class TestVerifyCongruence:
    def test_eq2_eq5_small_range(self, series, templates):
        primes = primes_in_range(5, 50)
        report = verify_congruence(series["eq2"], templates["eq5"], primes)
        assert report.all_pass
        assert report.counts == {"pass": len(primes), "fail": 0, "skip": 0}

    def test_perturbed_coefficient_defect_valuation(self, series, templates):
        bad = replace(
            templates["eq5"],
            terms=(
                templates["eq5"].terms[0],
                replace(templates["eq5"].terms[1], coefficient=F(-7, 3)),
            ),
        )
        report = verify_congruence(series["eq2"], bad, primes_in_range(5, 50))
        assert not report.all_pass
        for row in report.rows:
            if row.p == 7:
                # the perturbation -7/2 -> -7/3 differs by 7/6, which has an
                # extra factor of 7: at p=7 the defect sinks past the modulus
                assert row.passed
                continue
            assert not row.passed
            assert row.defect_valuation == 5

    def test_perturbing_each_slot_drops_defect_to_its_exponent(self, series, templates):
        # the same statement at the leading slot: epsilon at p^2 shows up there
        bad = replace(
            templates["eq5"],
            terms=(
                replace(templates["eq5"].terms[0], coefficient=F(4, 3)),
                templates["eq5"].terms[1],
            ),
        )
        report = verify_congruence(series["eq2"], bad, primes_in_range(5, 50))
        for row in report.rows:
            if row.p == 3:
                continue
            assert not row.passed and row.defect_valuation == 2, row

    def test_zero_spec_zero_template(self):
        report = verify_congruence(ZERO_SPEC, tpl([], 4), [5, 7, 11])
        assert report.all_pass

    def test_inadmissible_prime_is_dropped(self, series, templates):
        report = verify_congruence(series["eq9"], templates["eq12"], [5, 7])
        assert [r.p for r in report.rows] == [7]
        assert "denominator" in inadmissible(series["eq9"], templates["eq12"], 5)

    def test_no_computed_row_is_no_pass(self, series, templates):
        with pytest.raises(InvariantViolation,
                           match="verification needs at least one, got 0"):
            verify_congruence(series["eq9"], templates["eq12"], [5])
        assert not congruence.CongruenceReport("eq9", 3, ()).all_pass

    def test_empty_prime_list_rejected(self, series, templates):
        with pytest.raises(InvariantViolation, match="primes"):
            verify_congruence(series["eq2"], templates["eq5"], [])

    def test_rows_sorted_by_prime(self, series, templates):
        report = verify_congruence(series["eq2"], templates["eq5"], [13, 5, 7])
        assert [r.p for r in report.rows] == [5, 7, 13]
        # a repeated prime is one row, as in every other prime-taking call
        report = verify_congruence(series["eq2"], templates["eq5"], [11, 11, 7])
        assert [r.p for r in report.rows] == [7, 11]
        assert report.counts == {"pass": 2, "fail": 0, "skip": 0}


class TestFitUnknowns:
    def test_eq5_recovery(self, series, templates):
        primes = admissible_primes(series["eq2"], templates["eq5-unknowns"],
                                   primes_in_range(5, 97))
        res = fit_unknowns(series["eq2"], templates["eq5-unknowns"], primes)
        assert res.coefficients == (F(1), F(-7, 2))
        assert res.held_out_ok

    def test_duality_on_disjoint_primes(self, series, templates):
        fit_primes = admissible_primes(series["eq6"], templates["eq8-unknowns"],
                                       primes_in_range(5, 97))
        res = fit_unknowns(series["eq6"], templates["eq8-unknowns"], fit_primes)
        others = admissible_primes(series["eq6"], res.template, primes_in_range(101, 181))
        assert set(others).isdisjoint(res.fit_primes)
        report = verify_congruence(series["eq6"], res.template, others)
        assert report.all_pass

    def test_planted_coefficients_random_templates(self):
        rng = random.Random(20260811)
        constants = [ONE, Kron(5), Kron(-4), Kron(-23)]
        all_primes = primes_in_range(29, 199)
        for trial in range(100):
            M = rng.randrange(2, 7)
            n_terms = rng.randrange(1, min(3, M) + 1)
            exps = sorted(rng.sample(range(M), n_terms))
            terms = [
                (e, rng.choice(constants),
                 F(rng.randrange(-10**4, 10**4 + 1), rng.randrange(1, 10**4)))
                for e in exps
            ]
            if rng.random() < 0.5 and M - exps[-1] == 1:
                terms[-1] = (exps[-1], ZetaP(3), terms[-1][2])
            planted = tpl(terms, M)
            primes = sorted(
                p for p in rng.sample(all_primes, 16)
                if all(t[2].denominator % p != 0 for t in terms)
            )
            truth = {
                p: template_rhs_mod(planted, p) for p in primes
            }
            unknown = replace(
                planted,
                terms=tuple(replace(t, coefficient=None) for t in planted.terms),
            )
            res = fit_synthetic(unknown, primes, truth)
            assert res.coefficients == tuple(t[2] for t in terms), (trial, terms)
            assert res.held_out_ok

    def test_structural_zero_unknown_rejected(self):
        t = tpl([(0, ONE, None), (3, ZetaP(2), None)], 4)
        with pytest.raises(InvariantViolation):
            fit_synthetic(t, [7, 11, 13], {p: 0 for p in (7, 11, 13)})

    def test_known_structural_zero_dropped(self):
        # a known parity-zero term contributes nothing and does not block
        t = tpl([(0, ONE, None), (3, ZetaP(2), F(5))], 4)
        truth = {p: 9 % p**4 for p in (7, 11, 13, 17)}
        res = fit_synthetic(t, [7, 11, 13, 17], truth)
        assert res.coefficients == (F(9),)

    def test_reconstruction_failed_with_too_few_primes(self):
        # 1203/7 mod 11*13 is the class 131; brute-check no |n|, d <= 8 fits.
        # the top prime is held out, so the fit stage sees only 11 and 13
        q = F(1203, 7)
        primes = [11, 13, 17]
        truth = {p: q.numerator * pow(q.denominator, -1, p) % p for p in primes}
        assert all(
            (131 * d - n) % 143 != 0
            for d in range(1, 9)
            for n in range(-8, 9)
        )
        t = tpl([(0, ONE, None)], 1)
        with pytest.raises(ReconstructionFailed):
            fit_synthetic(t, primes, truth)

    def test_inconsistent_residues(self):
        # residual valuation below the slot: no template of this shape fits
        t = tpl([(2, ONE, None)], 3)
        truth = {p: p for p in (7, 11, 13)}
        with pytest.raises(InconsistentResidues):
            fit_synthetic(t, [7, 11, 13], truth)

    def test_held_out_failure_reported_distinctly(self):
        t = tpl([(0, ONE, None)], 1)
        primes = [7, 11, 13, 17, 19]
        truth = {p: 7 % p for p in primes}
        truth[19] = 8  # corrupt the held-out prime
        res = fit_synthetic(t, primes, truth)
        assert res.coefficients == (F(7),)
        assert not res.held_out_ok

    def test_denominator_prime_dropped_and_refit(self):
        # 5/73 is recovered on the fit primes, but 73 itself is a (held-out)
        # range prime, so the fit restarts on the range without it
        planted = tpl([(0, ONE, F(5, 73)), (1, Kron(-4), F(-3))], 3)
        primes = primes_in_range(5, 73)
        truth = {p: template_rhs_mod(planted, p) for p in primes if p != 73}
        truth[73] = 0  # arbitrary: the sums are read at 73 too, before the refit drops it
        res = fit_synthetic(tpl([(0, ONE, None), (1, Kron(-4), None)], 3), primes, truth)
        assert res.coefficients == (F(5, 73), F(-3))
        assert res.fit_primes + res.held_out_primes == tuple(primes[:-1])
        assert res.held_out_ok

    def test_discriminant_prime_dropped_before_split(self):
        # kron:5 vanishes at 5, where the peeling step cannot subtract its term
        primes = primes_in_range(5, 23)
        truth = {p: (3 - 2 * kronecker(5, p) * p) % p**2 for p in primes}
        t = tpl([(0, ONE, None), (1, Kron(5), None)], 2)
        res = fit_synthetic(t, primes, truth)
        assert res.coefficients == (F(3), F(-2))
        assert res.fit_primes + res.held_out_primes == tuple(primes[1:])
        assert res.held_out_ok

    def test_nothing_to_fit(self, series, templates):
        with pytest.raises(InvariantViolation, match="template"):
            fit_unknowns(series["eq2"], templates["eq5"], [5, 7, 11])

    def test_one_prime_is_too_few(self, series, templates):
        with pytest.raises(InvariantViolation, match="primes"):
            fit_unknowns(series["eq9"], templates["eq11-unknowns"], [7])


class TestScanNextTerm:
    def test_recovers_next_zeta_coefficient(self, series):
        t = tpl([(0, ONE, 7)], 1)
        primes = admissible_primes(series["eq6"], t, primes_in_range(5, 120))
        report = scan_next_term(series["eq6"], t, primes, [ZetaP(3), ONE],
                                max_power=5)
        assert report.outcome == "found"
        assert report.defect_exponent == 3
        by_const = {c.constant: c for c in report.candidates}
        assert by_const[ZetaP(3)].coefficient == F(-105, 2)
        assert by_const[ONE].coefficient is None

    def test_zero_spec_zero_template(self):
        report = scan_next_term(ZERO_SPEC, tpl([], 2), [5, 7, 11], [ONE])
        assert report.outcome == "no_defect"
        assert all(c.coefficient == 0 for c in report.candidates)

    def test_one_digit_template_is_indeterminate(self, series, templates):
        report = scan_next_term(series["eq2"], templates["eq5"],
                                [7, 11, 13], [ZetaP(5), ONE])
        assert report.outcome == "indeterminate"
        assert "unknowable" in report.note

    def test_failing_template_rejected_without_a_digit_read(self, series):
        # eq6's sum is 7 mod p, so 8 fails at p^0; the structurally zero
        # candidate reads no digit, and the scan must still refuse the template
        t = tpl([(0, ONE, 8)], 1)
        primes = admissible_primes(series["eq6"], t, primes_in_range(5, 60))
        with pytest.raises(InconsistentResidues, match="p=5 .* valuation 0"):
            scan_next_term(series["eq6"], t, primes, [ZetaP(2)])

    def test_structural_zero_candidate_flagged(self, series):
        t = tpl([(0, ONE, 7)], 1)
        primes = admissible_primes(series["eq6"], t, primes_in_range(5, 60))
        report = scan_next_term(series["eq6"], t, primes, [ZetaP(2)], max_power=4)
        assert report.candidates[0].coefficient is None
        assert "structurally zero" in report.candidates[0].note


def _seen(values):
    """A ``constant_values`` table with each exception as its class and message."""
    return {p: (type(v), str(v)) if isinstance(v, Exception) else v
            for p, v in values.items()}


def _alone(constant, p):
    """``constant_mod_p`` at p, or the class and message of what it raises."""
    try:
        return constant_mod_p(constant, p)
    except (BadPrime, PrecisionUnavailable) as exc:
        return type(exc), str(exc)


class TestConstantModP:
    def test_exact_constants_signed(self):
        assert constant_mod_p(ONE, 7) == 1
        assert constant_mod_p(Kron(5), 7) == -1
        assert constant_mod_p(Kron(5), 11) == 1

    def test_shipped_digits_at_large_primes(self):
        # one pass over an unsorted list with repeats, conductor primes and
        # primes below the reach p >= k+2 agrees with each prime on its own
        # and with the power sum
        large = random.Random(2311).sample(primes_in_range(2000, 10000), 6)
        primes = [*large, 23, 3, 5, large[0], 2, 5, *large[3:]]
        for c in (ZetaP(3), LQp(5, 3), LQp(-4, 4), LQp(-23, 2)):
            table = _seen(constant_values(c, primes))
            assert set(table) == set(primes), c
            for p in primes:
                assert table[p] == _alone(c, p) == power_sum_digit(c.disc, c.k, p), (c, p)
            assert sum(isinstance(d, tuple) for d in table.values()) >= 2, c
        window = primes_in_range(9001, 9200)[:10]
        for c in (LQp(-995, 2), LQp(997, 3)):
            table = _seen(constant_values(c, window[::-1]))
            assert table == {p: power_sum_digit(c.disc, c.k, p) for p in window}, c


class TestAdmissibility:
    """``_judge`` is the one rule: verify, fit and scan drop the primes it
    rejects, ``inadmissible`` gives its reason at one prime, and
    ``admissible_primes`` is the range less the rejected primes."""

    def test_scale_prime_is_skipped_with_its_reason(self, series):
        # 7 * S == 0 (mod 7) holds at p = 7 whatever S is: no claim is checked
        t = tpl([(0, ONE, 0)], 1, scale=F(7))
        report = verify_congruence(series["eq2"], t, [7, 11])
        eleven, = report.rows
        assert eleven.p == 11 and eleven.passed
        assert inadmissible(series["eq2"], t, 7) == "p=7 divides the template scale 7"

    def test_fit_drops_a_series_denominator_prime(self, series, templates):
        primes = primes_in_range(7, 199)
        want = fit_unknowns(series["eq9"], templates["eq11-unknowns"], primes)
        got = fit_unknowns(series["eq9"], templates["eq11-unknowns"], [3] + primes)
        assert got == want
        assert inadmissible(series["eq9"], templates["eq11-unknowns"], 3) == (
            "p=3 divides a structural denominator of eq9")

    def test_fit_drops_a_prime_below_the_reach(self):
        planted = tpl([(0, ONE, F(3, 5)), (1, ZetaP(3), -2)], 2)
        primes = primes_in_range(7, 60)
        truth = {p: template_rhs_mod(planted, p) for p in primes}
        unknown = tpl([(0, ONE, None), (1, ZetaP(3), None)], 2)
        want = fit_synthetic(unknown, primes, truth)
        got = fit_synthetic(unknown, [3] + primes, {3: 0, **truth})
        assert got == want
        assert want.coefficients == (F(3, 5), F(-2))

    def test_scan_drops_a_series_denominator_prime(self, series):
        seed = parse_template(SEED_7)
        primes = primes_in_range(5, 60)
        cands = [ZetaP(3), ONE]
        want = scan_next_term(series["eq6"], seed, primes, cands, max_power=5)
        got = scan_next_term(series["eq6"], seed, [3] + primes, cands, max_power=5)
        assert got == want
        assert want.candidates[0].coefficient == F(-105, 2)

    def test_scan_drops_a_discriminant_prime(self, series):
        # eq6's sum is 7 - 105/2 zeta_p(3) p^3 modulo p^4, so its p^1 digit is 0
        t = tpl([(0, ONE, 7), (1, Kron(5), 0)], 3)
        primes = primes_in_range(7, 60)
        want = scan_next_term(series["eq6"], t, primes, [ZetaP(3)], max_power=5)
        got = scan_next_term(series["eq6"], t, [5] + primes, [ZetaP(3)], max_power=5)
        assert got == want
        assert want.defect_exponent == 3
        assert inadmissible(series["eq6"], t, 5) == "p=5 divides the discriminant 5"

    def test_scan_with_every_prime_dropped_reads_no_verdict(self, series):
        # 3 divides eq6's structural denominators and 5 the discriminant:
        # with no prime left there is no digit to read, so no outcome either
        t = tpl([(0, ONE, 7), (1, Kron(5), 0)], 3)
        for primes in ([], [3, 5]):
            with pytest.raises(InvariantViolation,
                               match="scanning needs at least one, got 0"):
                scan_next_term(series["eq6"], t, primes, [ZetaP(3)], max_power=5)

    def test_constant_reasons_are_the_evaluators(self):
        # no rule is stated twice: a constant's table holds what
        # constant_mod_p raises at p, its class and its words -- at 2 and 3
        # as well -- and each prime its own instance
        grid = [ONE, *(Kron(D) for D in (-23, -8, -4, -3, 5, 8, 12)),
                *(ZetaP(k) for k in range(2, 7))]
        for D in (-24, -23, -8, -4, -3, 5, 8, 12, 13):
            for k in range(1, 7):
                try:
                    grid.append(LQp(D, k))
                except PrecisionUnavailable:
                    pass  # L_p(1) of an even character has no digit anywhere
        assert len(grid) == 63
        primes = primes_in_range(2, 59)
        for c in grid:
            values = constant_values(c, primes)
            assert list(values) == primes
            table = _seen(values)
            for p in primes:
                assert table[p] == _alone(c, p), (c, p)
            raised = [v for v in values.values() if isinstance(v, Exception)]
            assert len({id(v) for v in raised}) == len(raised), c
        assert _seen(constant_values(LQp(-4, 3), [2])) == {
            2: (BadPrime, "p=2 divides the conductor 4")}
        assert _seen(constant_values(LQp(-3, 2), [3])) == {
            3: (BadPrime, "p=3 divides the conductor 3")}

    @pytest.mark.parametrize("tname", ["eq5", "eq8", "eq11", "eq12", "eq14", "eq16"])
    @pytest.mark.parametrize("sname", ["eq2", "eq6", "eq9", "gourevitch", "eq15"])
    def test_verify_computes_exactly_the_admissible_primes(self, series, templates,
                                                           sname, tname):
        spec, t = series[sname], templates[tname]
        primes = primes_in_range(2, 400)
        report = verify_congruence(spec, t, primes)
        admitted = admissible_primes(spec, t, primes)
        assert [r.p for r in report.rows] == admitted
        assert all(inadmissible(spec, t, p) for p in set(primes) - set(admitted))

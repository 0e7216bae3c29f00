import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from padic_rama import replace
from padic_rama import series as series_module
from padic_rama.errors import BadPrime, InvariantViolation, NegativeValuationSum
from padic_rama.exactnum import primes_in_range, reduce_rational, valuation
from padic_rama.expansion import shifted_expansion
from padic_rama.series import (
    ClosedForm,
    SeriesSpec,
    _den_valuation,
    _fdiv,
    _integer_factors,
    numeric_sum,
    rhs_value,
    truncated_sum_exact,
    truncated_sum_mod,
    truncated_sums_mod,
)

from oracles import (
    exact_fdiv,
    hyper_ratio,
    integer_factors,
    linear_at,
    padic_truncated_sum,
    partial_sums,
    pochhammer,
    poly_at,
    reference_numeric_sum,
    term_exact,
)

F = Fraction


def make_spec(**kw):
    defaults = dict(
        name="test",
        upper=(F(1, 2),),
        lower=(F(1),),
        sign=1,
        base=F(1, 4),
        poly=(F(1),),
        denom_linear=None,
        multiplier=F(1),
        rhs=ClosedForm(F(1)),
    )
    defaults.update(kw)
    return SeriesSpec(**defaults)


ZERO_POLY = dict(poly=(F(0),))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(1, 2), 0) == 1

    def test_half_cubed(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)  # (1/2)(3/2)(5/2)

    def test_factorial_case(self):
        for n in range(8):
            want = 1
            for k in range(1, n + 1):
                want *= k
            assert pochhammer(1, n) == want


class TestTermExact:
    def test_eq2_first_terms(self, series):
        eq2 = series["eq2"]
        assert term_exact(eq2, 0) == 1
        assert term_exact(eq2, 1) == F(-29, 128)

    def test_eq6_constant_term(self, series):
        assert term_exact(series["eq6"], 0) == 7

    def test_ratio_recurrence_matches_products(self, series):
        for name in ("eq2", "eq15"):
            spec = series[name]
            h = spec.multiplier
            for n in range(51):
                direct = term_exact(spec, n)
                incremental = h * poly_at(spec, n) / linear_at(spec, n)
                assert incremental == direct, (name, n)
                h *= hyper_ratio(spec, n)


class TestTruncatedSumExact:
    def test_matches_term_by_term_oracle(self, series):
        for spec in series.values():
            for p in (5, 7, 11, 13):
                direct = sum(term_exact(spec, n) for n in range(p))
                assert truncated_sum_exact(spec, p) == direct

    def test_zero_poly(self):
        assert truncated_sum_exact(make_spec(**ZERO_POLY), 11) == 0

    def test_eq2_p5_congruence_shape(self, series):
        # S_5 = 5^2 - (7/2) zeta(-1) 5^5 (mod 5^6)
        s = truncated_sum_exact(series["eq2"], 5)
        rhs = F(25) - F(7, 2) * F(-1, 12) * F(5) ** 5
        diff = s - rhs
        assert diff.denominator % 5 != 0
        assert diff.numerator % 5**6 == 0

    def test_eq6_p7_leading_digit(self, series):
        s = truncated_sum_exact(series["eq6"], 7)
        diff = s - 7
        assert diff.denominator % 7 != 0
        assert diff.numerator % 7**3 == 0


class TestTruncatedSumMod:
    def test_oracle_equivalence_all_fixtures(self, series):
        # the core cross-check: modular path == reduced exact path
        for spec in series.values():
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
                try:
                    got = truncated_sum_mod(spec, p, 8)
                except BadPrime:
                    continue
                want = reduce_rational(truncated_sum_exact(spec, p), p, 8)
                for m in range(1, 9):
                    assert got % p**m == want.residue(m), (spec.name, p, m)

    def test_eq15_transient_valuations_cancel(self, series):
        # at p=11, n=5 the 2n+1 factor and an upper parameter both carry p
        r = truncated_sum_mod(series["eq15"], 11, 4)
        want = reduce_rational(truncated_sum_exact(series["eq15"], 11), 11, 4)
        assert r == want.residue(4)

    def test_zero_poly_is_exact_zero(self):
        assert truncated_sum_mod(make_spec(**ZERO_POLY), 11, 4) == 0

    def test_bad_prime(self, series):
        with pytest.raises(BadPrime):
            truncated_sum_mod(series["eq2"], 2, 4)  # 2 divides base denominator
        with pytest.raises(BadPrime):
            truncated_sum_mod(series["eq9"], 5, 4)  # 5 divides 80^3

    def test_negative_valuation_sum(self):
        # sum of 1/(2n+1) over n < 5 has a bare 1/5 term
        spec = make_spec(upper=(F(1),), lower=(F(1),), denom_linear=(F(2), F(1)))
        with pytest.raises(NegativeValuationSum):
            truncated_sum_mod(spec, 5, 2)

    def test_a_wrong_exponent_is_caught(self, series, monkeypatch):
        # eq2's D carries no 7 after the terms n < 7; claiming one must fail
        monkeypatch.setattr(series_module, "_den_valuation", lambda factors, p: 1)
        with pytest.raises(RuntimeError, match="p=7: v_p"):
            truncated_sum_mod(series["eq2"], 7, 3)

    def test_guard_exhausted(self):
        # forty lower-parameter copies of 1/2: the n = 3 and n = 4 terms each
        # carry 5^-40, their leading digits cancel, and the sum has valuation -39
        spec = make_spec(upper=(F(1),) * 40, lower=(F(1, 2),) * 40)
        assert reduce_rational(truncated_sum_exact(spec, 5), 5, 1).v == -39
        with pytest.raises(NegativeValuationSum, match="valuation -39"):
            truncated_sum_mod(spec, 5, 1)

    @pytest.mark.parametrize("name", ["eq2", "eq15"])
    def test_far_window_matches_the_range_from_five(self, series, name):
        # the first product tree of the window spans n < 1009 in one piece
        spec = series[name]
        good = [p for p in primes_in_range(5, 1100) if not spec.inadmissible(p)]
        window = [p for p in good if p >= 1000]
        got = truncated_sums_mod(spec, window, 6)
        full = truncated_sums_mod(spec, good, 6)
        assert got == {p: full[p] for p in window}
        want = reduce_rational(truncated_sum_exact(spec, 1009), 1009, 6)
        assert got[1009] == want.residue(6)

    def test_batch_matches_single_primes(self, series):
        spec = series["eq15"]
        primes = [p for p in primes_in_range(5, 120) if not spec.inadmissible(p)]
        got = truncated_sums_mod(spec, primes[::-1] + primes[:3], 5)
        assert got == {p: truncated_sum_mod(spec, p, 5) for p in primes}
        assert truncated_sums_mod(spec, [], 5) == {}
        with pytest.raises(BadPrime, match="p=23"):
            truncated_sums_mod(spec, [29, 23], 5)


PARAMS = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda q: q > 0)
SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=12)
SMALL_PRIMES = primes_in_range(2, 200)
LINEAR = st.tuples(
    st.fractions(min_value=0, max_value=4, max_denominator=6),
    SMALL.filter(lambda q: q != 0),
).filter(lambda ab: not (ab[0] and (-ab[1] / ab[0]).denominator == 1
                         and -ab[1] / ab[0] >= 0))


@st.composite
def small_specs(draw):
    """Parameter lists drawn from pools of one to three values, so that
    repeated parameters are common."""
    k = draw(st.integers(0, 3))

    def parameters():
        pool = draw(st.lists(PARAMS, min_size=1, max_size=3))
        return tuple(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))

    poly = draw(st.lists(SMALL, min_size=1, max_size=3))
    if len(poly) > 1 and poly[-1] == 0:
        poly[-1] = F(1)
    denom = draw(st.none() | LINEAR)
    return make_spec(
        upper=parameters(),
        lower=parameters(),
        sign=draw(st.sampled_from([1, -1])),
        base=draw(st.fractions(min_value=0, max_value=1, max_denominator=40)
                  .filter(lambda q: 0 < q < 1)),
        poly=tuple(poly),
        denom_linear=denom,
        multiplier=draw(SMALL.filter(lambda q: q != 0)),
    )


@given(small_specs(),
       st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=4, unique=True),
       st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_batch_agrees_with_exact_route(spec, primes, m):
    """The one-pass recurrence against the exact Fraction sum reduced at
    each prime: same residues, and the same primes rejected as bad or as
    carrying a sum of negative valuation."""
    want = {}
    for p in primes:
        if spec.inadmissible(p):
            want[p] = BadPrime
            continue
        try:
            want[p] = reduce_rational(truncated_sum_exact(spec, p), p, m).residue(m)
        except NegativeValuationSum:
            want[p] = NegativeValuationSum
    for p in primes:
        if isinstance(want[p], type):
            with pytest.raises(want[p]):
                truncated_sum_mod(spec, p, m)
        else:
            assert truncated_sum_mod(spec, p, m) == want[p]
    good = [p for p in primes if want[p] is not BadPrime]
    if len(good) < len(primes):
        with pytest.raises(BadPrime, match=f"p={min(set(primes) - set(good))} "):
            truncated_sums_mod(spec, primes, m)
    negative = [p for p in good if want[p] is NegativeValuationSum]
    if negative:
        with pytest.raises(NegativeValuationSum, match=f"p={min(negative)}:"):
            truncated_sums_mod(spec, good, m)
    else:
        assert truncated_sums_mod(spec, good, m) == {p: want[p] for p in good}


@st.composite
def valuation_cases(draw):
    """(spec, p) with every denominator of the spec prime to p, so p is
    admissible: repeated parameters, and a linear denominator with alpha = 0,
    with p dividing alpha's numerator, or with a negative beta, any of them
    possibly with p dividing beta."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 101]))
    prime_to_p = st.sampled_from([d for d in range(1, 13) if d % p])

    def rational(lo, hi):
        d = draw(prime_to_p)
        return F(draw(st.integers(lo * d, hi * d)), d)

    k = draw(st.integers(0, 4))

    def parameters():  # k draws from a pool of one to three values in (0, 1]
        pool = [rational(0, 1) or F(1) for _ in range(draw(st.integers(1, 3)))]
        return tuple(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))

    d = draw(st.sampled_from([d for d in range(2, 41) if d % p]))
    kind = draw(st.sampled_from(["none", "alpha = 0", "p | alpha", "beta < 0", "any"]))
    denom = None
    if kind != "none":
        alpha = (F(0) if kind == "alpha = 0" else p * rational(1, 2) if kind == "p | alpha"
                 else rational(0, 4))
        beta = (rational(-6, 6) or F(-1)) * draw(st.sampled_from([1, p, p * p]))
        if kind == "beta < 0":
            beta = -abs(beta)
        if alpha and (-beta / alpha).denominator == 1 and -beta / alpha >= 0:
            beta -= alpha / (2 if p != 2 else 3)  # -beta/alpha moves off the integers
        denom = (alpha, beta)
    poly = [rational(-6, 6) for _ in range(draw(st.integers(1, 3)))]
    if len(poly) > 1 and poly[-1] == 0:
        poly[-1] = F(1)
    spec = make_spec(
        upper=parameters(), lower=parameters(), sign=draw(st.sampled_from([1, -1])),
        base=F(draw(st.integers(1, d - 1)), d), poly=tuple(poly), denom_linear=denom,
        multiplier=rational(-6, 6) or F(1),
    )
    assert not spec.inadmissible(p)
    return spec, p


@given(valuation_cases(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_exponent_read_is_the_valuation_of_the_exact_state(case, m):
    """The exponent that ``truncated_sums_mod`` reads at p is m + v, with v
    counted from the factor data: v must be v_p(D) of the exact state after
    the terms n < p, built here by the oracle's own recurrence.  The sum
    itself must match the exact route, and so must the row oracle's."""
    spec, p = case
    _, D, _ = next(itertools.islice(partial_sums(integer_factors(spec)), p - 1, None))
    assert _den_valuation(_integer_factors(spec), p) == valuation(D, p)
    try:
        want = reduce_rational(truncated_sum_exact(spec, p), p, m).residue(m)
    except NegativeValuationSum:
        for route in truncated_sum_mod, padic_truncated_sum:
            with pytest.raises(NegativeValuationSum):
                route(spec, p, m)
    else:
        assert truncated_sum_mod(spec, p, m) == padic_truncated_sum(spec, p, m) == want


@pytest.mark.parametrize("name, template", [
    ("eq2", "eq5"), ("eq6", "eq8"), ("eq9", "eq11"), ("gourevitch", "eq14"), ("eq15", "eq16"),
])
def test_rows_at_large_primes_match_the_padic_oracle(series, templates, name, template):
    """Two seeded primes in 2000..10000, where the modulus of the state is
    far below the exact state, read together against the oracle row by
    row."""
    spec, tpl = series[name], templates[template]
    spec = spec.scaled(tpl.scale)
    good = [p for p in primes_in_range(2000, 10000) if not spec.inadmissible(p)]
    primes = sorted(random.Random(f"rows-{name}").sample(good, 2))
    m = tpl.modulus_power
    got = truncated_sums_mod(spec, primes, m)
    assert got == {p: padic_truncated_sum(spec, p, m) for p in primes}


class TestNumericSum:
    def test_error_bound_honest(self, series):
        for spec in series.values():
            v128, b128 = numeric_sum(spec, 128)
            v256, _ = numeric_sum(spec, 256)
            with mp.workprec(300):
                assert abs(v128 - v256) < b128, spec.name

    @pytest.mark.parametrize("name, bits", [
        *((name, 512) for name in ["eq2", "eq6", "eq9", "gourevitch", "eq15"]),
        ("eq9", 8192),
    ])
    def test_value_is_a_partial_sum_rounded_once(self, series, name, bits):
        # one rounding at bits + 48 leaves the value within 2 ulps of the
        # exact partial sum nearest to it
        spec = series[name]
        value, _ = numeric_sum(spec, bits)
        man, exp = value.man_exp
        exact = F(man) * F(2) ** exp
        ulp = F(2) ** (abs(man).bit_length() + exp - (bits + 48))
        total, h, nearest = F(0), spec.multiplier, None
        for n in itertools.count():
            term = h * poly_at(spec, n) / linear_at(spec, n)
            total += term
            h *= hyper_ratio(spec, n)
            if nearest is None or abs(total - exact) < abs(nearest[1] - exact):
                nearest = n + 1, total
            if abs(term) < ulp / 1024:
                break
        terms, partial = nearest
        assert partial == truncated_sum_exact(spec, terms)
        assert abs(partial - exact) <= 2 * ulp

    def test_term_ratio_approaches_signed_base(self, series):
        spec = series["eq2"]
        n = 1000
        ratio = hyper_ratio(spec, n) * poly_at(spec, n + 1) / poly_at(spec, n)
        assert abs(ratio - spec.sign * spec.base) < F(1, n)

    def test_zero_poly(self):
        v, b = numeric_sum(make_spec(**ZERO_POLY), 128)
        assert v == 0


def same_as_reference(spec, bits):
    value, bound = numeric_sum(spec, bits)
    want_value, want_bound = reference_numeric_sum(spec, bits)
    return value._mpf_ == want_value._mpf_ and bound._mpf_ == want_bound._mpf_


@st.composite
def sum_specs(draw):
    """small_specs, some with a zero term (P times n - root, root >= 0),
    some vanishing, and some with a power-of-two base, where log2 of the
    term is an integer and the float screen sits on its edge."""
    spec = draw(small_specs())
    kind = draw(st.sampled_from(["plain", "zero term", "vanishing", "power of two"]))
    if kind == "zero term" and not spec.vanishes:
        root = draw(st.integers(0, 12))
        poly = (*spec.poly, F(0))
        poly = tuple(poly[i - 1] - root * poly[i] if i else -root * poly[0]
                     for i in range(len(poly)))
        spec = replace(spec, poly=poly)
    elif kind == "vanishing":
        spec = replace(spec, **draw(st.sampled_from([dict(multiplier=F(0)), ZERO_POLY])))
    elif kind == "power of two":
        spec = replace(spec, base=F(1, 2 ** draw(st.integers(1, 12))))
    return spec


class TestNumericSumAgainstReference:
    """The screened product-tree sum against the term-by-term loop that tests
    the stop rule exactly at every term: the same mpf value and bound."""

    @pytest.mark.parametrize("bits", [64, 128, 512, 4096])
    def test_shipped_series(self, series, bits):
        for spec in series.values():
            assert same_as_reference(spec, bits), spec.name

    def test_eq6_at_8192_bits(self, series):
        assert same_as_reference(series["eq6"], 8192)

    @given(sum_specs(), st.sampled_from([64, 65, 100, 128, 256]))
    @settings(max_examples=120, deadline=None)
    def test_drawn_specs(self, spec, bits):
        assert same_as_reference(spec, bits)

    @given(st.integers(-2**3000, 2**3000), st.integers(1, 2**3000),
           st.integers(53, 400))
    @settings(max_examples=200, deadline=None)
    def test_division_rounds_like_mpmath(self, x, y, prec):
        for y in (y, y << 200, y * 3**50):
            with mp.workprec(prec):
                assert _fdiv(x, y)._mpf_ == mp.fdiv(x, y)._mpf_

    @given(st.integers(-2**6000, 2**6000), st.integers(2**500, 2**3000),
           st.integers(53, 400))
    @settings(max_examples=200, deadline=None)
    def test_leading_bits_match_the_exact_quotient(self, x, y, prec):
        """y above 2^(prec + 69): the quotient is read from leading bits."""
        with mp.workprec(prec):
            assert _fdiv(x, y)._mpf_ == exact_fdiv(x, y)._mpf_

    @given(st.integers(1, 2**600), st.integers(2**500, 2**3000),
           st.integers(53, 400), st.integers(0, 300), st.sampled_from([-1, 1]),
           st.sampled_from(["exact", "halfway"]), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_exact_and_halfway_quotients(self, m, y, prec, shift, sign, kind, nudge):
        """x / y an integer, or halfway between two prec-bit numbers, give or
        take 1/y: the leading bits cannot decide these, so the exact route
        must be taken, with its sticky bit."""
        if kind == "halfway":
            m = (m % 2**(prec - 1) | 2**(prec - 1)) * 2 + 1  # prec + 1 bits, the last set
        x = sign * ((m * y << shift) + nudge)
        with mp.workprec(prec):
            assert _fdiv(x, y)._mpf_ == exact_fdiv(x, y)._mpf_
            assert _fdiv(x, y << shift)._mpf_ == exact_fdiv(x, y << shift)._mpf_


class TestRhsValue:
    def test_eight_over_pi_squared(self, series):
        v = rhs_value(series["eq2"], 128)
        assert mp.nstr(v, 18) == "0.810569469138702172"

    def test_plain_integer(self, series):
        assert rhs_value(series["eq6"], 128) == 8

    def test_sqrt23_over_pi(self, series):
        with mp.workprec(160):
            want = mp.sqrt(23) / mp.pi
            assert abs(rhs_value(series["eq15"], 128) - want) < mpf(2) ** -120


class TestSpecInvariants:
    def test_base_range(self):
        with pytest.raises(InvariantViolation):
            make_spec(base=F(5, 4))
        with pytest.raises(InvariantViolation):
            make_spec(base=F(-1, 4))

    def test_parameter_range(self):
        with pytest.raises(InvariantViolation):
            make_spec(upper=(F(3, 2),))
        with pytest.raises(InvariantViolation):
            make_spec(lower=(F(0),))

    def test_poly_leading_coefficient(self):
        with pytest.raises(InvariantViolation):
            make_spec(poly=(F(1), F(0)))
        make_spec(**ZERO_POLY)  # the single-coefficient zero polynomial is fine

    def test_linear_denominator_must_not_vanish(self):
        with pytest.raises(InvariantViolation):
            make_spec(denom_linear=(F(1), F(-2)))
        with pytest.raises(InvariantViolation):
            make_spec(denom_linear=(F(-1), F(1)))
        make_spec(denom_linear=(F(2), F(-1, 3)))

    def test_sign_domain(self):
        with pytest.raises(InvariantViolation):
            make_spec(sign=2)

    def test_parameter_lists_must_balance(self):
        with pytest.raises(InvariantViolation):
            make_spec(upper=(F(1, 2), F(1, 2)), lower=(F(1),))

    def test_scaled(self, series):
        eq15 = series["eq15"]
        assert eq15.scaled(F(529, 3)).multiplier == 1
        assert eq15.scaled(F(1)) is eq15


class TestZeroTerm:
    """A root of P makes one term exactly zero; the tail rule must not stop
    there (the sum below has term 5 = 0 and its tail starts at 2e-5)."""

    SPEC = make_spec(upper=(F(1, 2), F(1, 2)), lower=(F(1), F(1)),
                     base=F(1, 4), poly=(F(-5), F(1)))

    @staticmethod
    def check(value, bound):
        exact = truncated_sum_exact(TestZeroTerm.SPEC, 120)  # the rest is < 2^-230
        with mp.workprec(300):
            assert abs(value - mpf(exact.numerator) / exact.denominator) <= bound
            assert bound < mpf(2) ** -120

    def test_numeric_sum_passes_a_zero_term(self):
        self.check(*numeric_sum(self.SPEC, 128))

    def test_shifted_expansion_order_0_passes_a_zero_term(self):
        ts = shifted_expansion(self.SPEC, 0, 128)
        self.check(ts.coeffs[0], ts.error_bound)

import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from padic_rama.errors import BadPrime, InvariantViolation, PrecisionUnavailable
from padic_rama.exactnum import kronecker, primes_in_range
from padic_rama.lfunctions import (
    DISC_MAX,
    L_p_digits,
    L_p_mod_p,
    QuadCharacter,
    bernoulli_all_mod_p,
    parity_zero,
    zeta_p_mod_p,
)

from oracles import (
    L_nonpositive,
    bernoulli_numbers,
    generalized_bernoulli,
    power_sum_digit,
    zeta_nonpositive,
)

CHI5 = QuadCharacter(5)
CHI4 = QuadCharacter(-4)
CHI23 = QuadCharacter(-23)


def akiyama_tanigawa(n):
    """Independent oracle for B_0..B_n (convention B_1 = -1/2: the AT
    triangle natively yields B_1 = +1/2, so flip that entry)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


CLASSICAL_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


class TestBernoulliExact:
    """The oracles' exact B_k, which the checks below reduce modulo p."""

    def test_classical_table(self):
        B = bernoulli_numbers(20)
        for k, want in CLASSICAL_BERNOULLI.items():
            assert B[k] == want

    def test_odd_indices_vanish(self):
        B = bernoulli_numbers(25)
        for k in (3, 5, 7, 9, 25):
            assert B[k] == 0

    def test_against_akiyama_tanigawa(self):
        assert bernoulli_numbers(200) == tuple(akiyama_tanigawa(200))

    def test_von_staudt_clausen_denominators(self):
        B = bernoulli_numbers(60)
        for n in range(1, 31):
            denom = B[2 * n].denominator
            want = 1
            for q in primes_in_range(2, 2 * n + 1):
                if (2 * n) % (q - 1) == 0:
                    want *= q
            assert denom == want, f"B_{2 * n}"


class TestBernoulliModP:
    def test_p5_table(self):
        assert bernoulli_all_mod_p(5) == (1, 2, 1)

    def test_matches_exact_reductions(self):
        B = bernoulli_numbers(98)
        for p in primes_in_range(5, 101):
            table = bernoulli_all_mod_p(p)
            for k, b in enumerate(B[:p - 2]):
                want = b.numerator * pow(b.denominator, -1, p) % p
                assert table[k] == want, (p, k)

    def test_odd_entries_zero(self):
        table = bernoulli_all_mod_p(53)
        assert all(table[k] == 0 for k in range(3, 51, 2))

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_all_mod_p(3)


class TestZetaNonpositive:
    def test_values(self):
        assert zeta_nonpositive(0) == Fraction(-1, 2)
        assert zeta_nonpositive(-1) == Fraction(-1, 12)
        assert zeta_nonpositive(-3) == Fraction(1, 120)
        assert zeta_nonpositive(-2) == 0

    def test_positive_rejected(self):
        with pytest.raises(ValueError):
            zeta_nonpositive(1)


class TestQuadCharacter:
    def test_fundamental_validation(self):
        for D in (1, 5, -4, -23, 8, -8, 12, 13):
            QuadCharacter(D)
        for D in (3, -5, 4, 9, 25, -9):
            with pytest.raises(InvariantViolation):
                QuadCharacter(D)

    def test_discriminant_bound(self):
        for D in (997, -995, -996):  # the largest fundamental |D| within the bound
            QuadCharacter(D)
        for D in (1001, -1003, 10**30 + 5):
            with pytest.raises(InvariantViolation, match=r"must be within -1000\.\.1000"):
                QuadCharacter(D)

    def test_parity(self):
        assert CHI5.is_even
        assert not CHI4.is_even
        assert not CHI23.is_even

    def test_values_are_kronecker(self):
        assert [CHI4(a) for a in range(1, 5)] == [1, 0, -1, 0]


def genbern_gf_oracle(D, mmax):
    """Generating-function oracle: t * sum_a chi(a) e^{at} / (e^{ft} - 1)."""
    f = abs(D)
    t = sympy.symbols("t")
    num = sum(
        sympy.kronecker_symbol(D, a) * t * sympy.exp(a * t) for a in range(1, f + 1)
    )
    ser = sympy.series(num / (sympy.exp(f * t) - 1), t, 0, mmax + 1).removeO()
    poly = sympy.Poly(ser, t)
    return [
        Fraction(str(sympy.Rational(poly.coeff_monomial(t**m) * sympy.factorial(m))))
        for m in range(mmax + 1)
    ]


class TestGeneralizedBernoulli:
    def test_spec_values(self):
        assert generalized_bernoulli(-4, 1) == Fraction(-1, 2)
        assert generalized_bernoulli(1, 2) == Fraction(1, 6)
        assert generalized_bernoulli(5, 1) == 0

    def test_quadratic_field_zeta_cross_check(self):
        # zeta_{Q(sqrt5)}(-1) = zeta(-1) * L(-1, chi_5) = 1/30
        assert zeta_nonpositive(-1) * L_nonpositive(5, -1) == Fraction(1, 30)

    @pytest.mark.parametrize("D", [5, -4, -23])
    def test_against_generating_function(self, D):
        oracle = genbern_gf_oracle(D, 8)
        for m in range(1, 9):
            assert generalized_bernoulli(D, m) == oracle[m], (D, m)


class TestLNonpositive:
    def test_values(self):
        assert L_nonpositive(-4, 0) == Fraction(1, 2)
        assert L_nonpositive(1, -1) == Fraction(-1, 12)
        assert L_nonpositive(5, 0) == 0
        # Euler-number oracle: L(-n, chi_-4) = E_n / 2 with E_2 = -1
        assert L_nonpositive(-4, -2) == Fraction(-1, 2)

    @pytest.mark.parametrize("D", [5, -4, -23])
    def test_trivial_zero_pattern(self, D):
        for m in range(1, 13):
            value = L_nonpositive(D, 1 - m)
            if D > 0:
                expect_zero = m % 2 == 1  # odd m, including m = 1
            else:
                expect_zero = m % 2 == 0
            assert (value == 0) == expect_zero, (D, m)


class TestZetaPModP:
    def test_even_k_vanishes(self):
        for p in (5, 7, 11, 97):
            assert zeta_p_mod_p(2, p) == 0
        assert zeta_p_mod_p(4, 11) == 0

    def test_examples(self):
        assert zeta_p_mod_p(3, 7) == 1  # zeta(-3) = 1/120, 120 = 1 (mod 7)
        assert zeta_p_mod_p(3, 5) == 2  # zeta(-1) = -1/12 = 2 (mod 5)

    def test_kummer_consistency(self):
        # table route equals exact zeta(1+k-p) reduced mod p
        for k in range(2, 8):
            for p in primes_in_range(k + 2, 101):
                z = zeta_nonpositive(1 + k - p)
                want = z.numerator * pow(z.denominator, -1, p) % p
                assert zeta_p_mod_p(k, p) == want, (k, p)

    def test_out_of_range(self):
        with pytest.raises(PrecisionUnavailable):
            zeta_p_mod_p(5, 5)


class TestLPModP:
    def test_parity_vanishing_instances(self):
        for p in (7, 11, 13, 101):
            assert L_p_mod_p(CHI5, 2, p) == 0
            assert L_p_mod_p(CHI4, 1, p) == 0
            assert L_p_mod_p(CHI4, 3, p) == 0
            assert L_p_mod_p(CHI23, 1, p) == 0

    def test_chi4_value_at_7(self):
        # L_{-4}(5-7) = L(-2, chi_-4) = E_2/2 = -1/2 = 3 (mod 7)
        assert L_p_mod_p(CHI4, 4, 7) == 3

    @pytest.mark.parametrize("D,k", [(5, 3), (-4, 2), (-4, 4), (-23, 2)])
    def test_table_route_matches_exact(self, D, k):
        chi = QuadCharacter(D)
        for p in primes_in_range(k + 2, 101):
            if abs(D) % p == 0:
                continue
            L = L_nonpositive(D, 1 + k - p)
            want = L.numerator * pow(L.denominator, -1, p) % p
            assert L_p_mod_p(chi, k, p) == want, (D, k, p)

    def test_trivial_character_delegates(self):
        assert L_p_mod_p(QuadCharacter(1), 3, 7) == zeta_p_mod_p(3, 7)

    def test_zeta_p_is_L_p_of_trivial_character(self):
        # every k and p, even k below the reach p >= k+2 included
        chi1 = QuadCharacter(1)
        for k in range(2, 12):
            for p in primes_in_range(5, 60):
                try:
                    want = L_p_mod_p(chi1, k, p)
                except PrecisionUnavailable:
                    with pytest.raises(PrecisionUnavailable):
                        zeta_p_mod_p(k, p)
                    continue
                assert zeta_p_mod_p(k, p) == want, (k, p)
        assert zeta_p_mod_p(4, 5) == 0 and zeta_p_mod_p(10, 7) == 0

    def test_errors(self):
        with pytest.raises(BadPrime):
            L_p_mod_p(CHI23, 2, 23)
        with pytest.raises(BadPrime):  # 2 and 3 are conductor primes too
            L_p_mod_p(CHI4, 2, 2)
        with pytest.raises(BadPrime):
            L_p_mod_p(QuadCharacter(-3), 2, 3)
        with pytest.raises(PrecisionUnavailable):
            L_p_mod_p(CHI4, 4, 5)  # p >= k+2 required
        with pytest.raises(PrecisionUnavailable):
            L_p_mod_p(CHI5, 1, 11)  # even character at k=1 needs B_{p-1}


def table_digit(D, k, p):
    """-B_{m,chi}/m mod p with m = p-k, through the Bernoulli polynomials
    B_{m,chi} = f^(m-1) sum_{a<=f} chi(a) B_m(a/f) over the mod-p table: the
    route the power sum replaced, kept here as its oracle."""
    table = bernoulli_all_mod_p(p)
    m, f = p - k, abs(D)
    b = [table[j] if j <= p - 3 else 0 for j in range(m + 1)]  # B_{p-2} = 0
    x = [a * pow(f, -1, p) % p for a in range(f + 1)]
    total = sum(kronecker(D, a) * comb(m, j) * b[j] * pow(x[a], m - j, p)
                for a in range(1, f + 1) for j in range(m + 1))
    return -pow(f, m - 1, p) * total * pow(m, -1, p) % p


class TestDigitOracles:
    """The power-sum digits of zeta_p_mod_p / L_p_mod_p against the mod-p
    Bernoulli table at large p, and zeta_p against sympy at small p."""

    PRIMES = sorted(random.Random(1910).sample(primes_in_range(101, 700), 5))

    @pytest.mark.parametrize("D,k", [(1, 3), (1, 5), (5, 3), (-4, 2), (-4, 4), (-23, 2)])
    def test_power_sum_matches_table(self, D, k):
        for p in self.PRIMES:
            got = zeta_p_mod_p(k, p) if D == 1 else L_p_mod_p(QuadCharacter(D), k, p)
            assert got == table_digit(D, k, p), (D, k, p)

    @pytest.mark.parametrize("D,k", [(-995, 2), (997, 3)])
    def test_power_sum_matches_table_at_the_discriminant_bound(self, D, k):
        # the table costs |D| p powers, so these primes stay small
        assert abs(D) > 0.99 * DISC_MAX and not parity_zero(D, k)
        for p in (7, 11, 13, 53, 101):
            assert L_p_mod_p(QuadCharacter(D), k, p) == table_digit(D, k, p), (D, k, p)

    def test_zeta_matches_sympy(self):
        for k in (3, 5, 7, 9):
            for p in primes_in_range(k + 2, 60):
                m = p - k
                z = -sympy.bernoulli(m) / m
                want = int(z.p) * pow(int(z.q), -1, p) % p
                assert zeta_p_mod_p(k, p) == want, (k, p)


def _digit(D, k, p):
    """L_p_mod_p's digit at p, or the class and message of what it raises."""
    try:
        return L_p_mod_p(QuadCharacter(D), k, p)
    except (BadPrime, PrecisionUnavailable) as exc:
        return type(exc), str(exc)


def _digits(D, k, primes):
    """``L_p_digits`` over the primes in one pass, each exception as its
    class and message; no two primes share an exception instance."""
    digits = L_p_digits(QuadCharacter(D), k, primes)
    raised = [d for d in digits.values() if isinstance(d, Exception)]
    assert len({id(d) for d in raised}) == len(raised), (D, k)
    return {p: (type(d), str(d)) if isinstance(d, Exception) else d
            for p, d in digits.items()}


class TestSieveAgainstPowerSum:
    """The prefix-sum digits against the power sum with a ``pow`` at every b
    (``oracles.power_sum_digit``), one prime at a time (``L_p_mod_p``) and in
    one pass (``L_p_digits``): every digit, exception and message on the grid,
    at every k below p for small p, and in a far window (parity zeros
    included, where the power sum must cancel modulo p^2)."""

    GRID = [(1, k) for k in range(2, 12)] + [
        (D, k) for D in (-4, -3, 5, 8, -23, 12, 13, -8) for k in range(1, 10)]

    def test_digits_match_on_the_grid(self):
        primes = primes_in_range(5, 400)
        cases = [(D, k, p) for D, k in self.GRID for p in primes]
        want = [power_sum_digit(*case) for case in cases]
        assert len(cases) == 6232
        assert sum(isinstance(w, int) and w != 0 for w in want) > 1500
        assert sum(isinstance(w, tuple) for w in want) > 100
        batches = {(D, k): _digits(D, k, primes) for D, k in self.GRID}
        for (D, k, p), w in zip(cases, want):
            assert _digit(D, k, p) == w, (D, k, p)
            assert batches[D, k][p] == w, (D, k, p)

    @pytest.mark.parametrize("D", [1, -3, -4, 5, 8, -23, 997])
    def test_every_m_at_small_primes(self, D):
        # every m = p-k in 2..p-2, and the k past the reach, at p below 60
        primes = primes_in_range(5, 60)
        for k in range(1, 60):
            got = _digits(D, k, primes)
            for p in primes:
                assert got[p] == power_sum_digit(D, k, p), (D, k, p)

    @pytest.mark.parametrize("D,k", [(1, 3), (-4, 3), (5, 2), (997, 3)])
    def test_far_window(self, D, k):
        primes = primes_in_range(9001, 9200)[:10]
        assert len(primes) == 10 and primes[0] == 9001
        got = _digits(D, k, primes)
        for p in primes:
            want = power_sum_digit(D, k, p)
            assert isinstance(want, int) and (want == 0 or not parity_zero(D, k)), (D, k, p)
            assert got[p] == _digit(D, k, p) == want, (D, k, p)

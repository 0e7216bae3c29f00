import math
import random
from fractions import Fraction

import pytest

from padic_rama.errors import NegativeValuationSum, NonCoprimeModuli
from padic_rama.exactnum import (
    PadicResidue,
    ResidueClass,
    crt_combine,
    kronecker,
    primes_in_range,
    rational_reconstruct,
    reduce_rational,
    valuation,
)


class TestReduceRational:
    def test_zero(self):
        assert reduce_rational(Fraction(0), 7, 3).is_zero

    def test_no_digit_shape_rejected(self):
        with pytest.raises(ValueError):
            PadicResidue(p=5, v=2, u=0, m=0)

    def test_unit_with_inverse_denominator(self):
        # 3 * 17 = 51 = 2*25 + 1, so 1/3 = 17 (mod 25)
        r = reduce_rational(Fraction(1, 3), 5, 2)
        assert (r.v, r.u) == (0, 17)

    def test_positive_valuation(self):
        r = reduce_rational(Fraction(50, 7), 5, 2)
        assert r.v == 2
        # brute-force oracle: the unique u in [0, 25) with u*7 = 2 (mod 25)
        expect = next(u for u in range(25) if u * 7 % 25 == 2)
        assert r.u == expect

    def test_negative_valuation_representable(self):
        r = reduce_rational(Fraction(3, 50), 5, 2)
        assert r.v == -2
        with pytest.raises(NegativeValuationSum):
            r.residue(1)

    def test_brute_force_against_integer_arithmetic(self):
        # nu_p(q) >= 0: reduce agrees with num * den^-1 mod p^m
        for p in (2, 3, 5, 7, 11, 13):
            pm = p**4
            for num in range(-50, 51):
                for den in range(1, 51):
                    if den % p == 0:
                        continue
                    q = Fraction(num, den)
                    if q == 0:
                        continue
                    r = reduce_rational(q, p, 4)
                    want_full = q.numerator * pow(q.denominator, -1, pm) % pm
                    for m in range(1, 5):
                        assert r.residue(m) == want_full % p**m


class TestKronecker:
    def test_examples(self):
        assert kronecker(5, 11) == 1
        assert kronecker(-4, 7) == -1
        assert kronecker(-23, 23) == 0

    def test_against_legendre_brute_force(self):
        for p in primes_in_range(3, 199):
            squares = {x * x % p for x in range(1, p)}
            for D in (5, -4, -23):
                if D % p == 0:
                    continue
                want = 1 if D % p in squares else -1
                assert kronecker(D, p) == want, (D, p)

    def test_multiplicative_in_n(self):
        rng = random.Random(7)
        for _ in range(200):
            D = rng.choice([5, -4, -23, 13, -8, 12])
            a, b = rng.randrange(1, 60), rng.randrange(1, 60)
            assert kronecker(D, a * b) == kronecker(D, a) * kronecker(D, b)

    def test_n_one(self):
        assert kronecker(0, 1) == 1
        assert kronecker(-17, 1) == 1

    def test_even_n(self):
        # (D|2) factor: +1 for D = +-1 (mod 8), -1 for +-3, 0 for even D
        assert kronecker(17, 2) == 1
        assert kronecker(3, 2) == -1
        assert kronecker(2, 2) == 0
        assert kronecker(5, 6) == kronecker(5, 2) * kronecker(5, 3)


class TestCrt:
    def test_singleton(self):
        assert crt_combine([ResidueClass(2, 3)]) == ResidueClass(2, 3)

    def test_pair(self):
        assert crt_combine([ResidueClass(2, 3), ResidueClass(3, 5)]) == ResidueClass(8, 15)

    def test_constant_residue(self):
        assert crt_combine([ResidueClass(1, 4), ResidueClass(1, 9)]) == ResidueClass(1, 36)

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeModuli):
            crt_combine([ResidueClass(1, 6), ResidueClass(2, 4)])

    def test_against_scan(self):
        rng = random.Random(3)
        for _ in range(50):
            mods = rng.sample([3, 5, 7, 11, 13, 16, 9], 3)
            if math.gcd(mods[0], mods[1]) > 1 or math.gcd(mods[0], mods[2]) > 1 \
                    or math.gcd(mods[1], mods[2]) > 1:
                continue
            pairs = [ResidueClass(rng.randrange(m), m) for m in mods]
            got = crt_combine(pairs)
            want = next(
                x for x in range(math.prod(mods))
                if all(x % rc.modulus == rc.value for rc in pairs)
            )
            assert (got.value, got.modulus) == (want, math.prod(mods))


class TestRationalReconstruct:
    def test_example(self):
        assert rational_reconstruct(ResidueClass(17, 25)) == Fraction(1, 3)

    def test_zero(self):
        assert rational_reconstruct(ResidueClass(0, 1000)) == 0

    def test_round_trip_random(self):
        # product of the moduli must exceed twice the squared height bound
        primes = [10007, 10009, 10037, 10039, 10061]
        M = math.prod(primes)
        assert M > 2 * (1000**2) ** 2
        rng = random.Random(20260811)
        for _ in range(100):
            a = rng.randrange(-1000, 1001)
            b = rng.randrange(1, 1001)
            q = Fraction(a, b)
            if any(q.denominator % p == 0 for p in primes):
                continue
            r = q.numerator * pow(q.denominator, -1, M) % M
            assert rational_reconstruct(ResidueClass(r, M)) == q

    def test_absence_is_none(self):
        # no n/d with |n|, d <= 7 satisfies n = 8 d (mod 101): brute-check
        assert all(
            (8 * d - n) % 101 != 0
            for d in range(1, 8)
            for n in range(-7, 8)
        )
        assert rational_reconstruct(ResidueClass(8, 101)) is None


class TestValuation:
    def test_int_and_fraction(self):
        assert valuation(50, 5) == 2
        assert valuation(3, 5) - valuation(50, 5) == -2  # a rational's, from its parts
        with pytest.raises(ValueError):
            valuation(0, 5)


def test_primes_in_range():
    assert primes_in_range(5, 31) == [5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert primes_in_range(10, 4) == []

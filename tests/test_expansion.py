import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from padic_rama import expansion as expansion_module
from padic_rama.constants import Lquad, One, PiPower, SqrtDisc, Zeta, constant_value
from padic_rama.errors import InsufficientPrecision, InvariantViolation
from padic_rama.expansion import (
    ExpansionClaim,
    _add,
    _exp,
    _mul,
    _norm1,
    _recip,
    _scale,
    recognize,
    shifted_expansion,
    verify_expansion,
)
from padic_rama.lattice import lll_reduce
from padic_rama.series import ClosedForm, SeriesSpec, numeric_sum

from oracles import (
    TAYLOR_ORDERS,
    ReferenceSeries,
    gram_schmidt,
    is_lll_reduced,
    l_value_closed_form,
    l_value_polylog,
    reference_lll,
    reference_shifted_expansion,
    taylor_ratios,
    zeta_value,
)

F = Fraction


class TestLLL:
    def test_identity_fixed_point(self):
        assert lll_reduce([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_classic_example(self):
        # reduced basis of a well-known 3d lattice contains a shortest vector
        basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        red = lll_reduce(basis)
        norms = sorted(sum(x * x for x in row) for row in red)
        assert norms[0] == 1  # (0, 1, 0) is in the lattice

    def test_planted_relation(self):
        # rows (e_i | x_i) with 3*x0 - 7*x1 = -7: LLL surfaces (3, -7)
        x0, x1 = 7_000_000_000, 3_000_000_001
        red = lll_reduce([[1, 0, x0], [0, 1, x1]])
        assert [abs(t) for t in red[0]] == [3, 7, 7]

    def test_preserves_lattice(self):
        rng = random.Random(5)
        basis = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        det = _det3(basis)
        if det == 0:
            basis[0][0] += 1
            det = _det3(basis)
        red = lll_reduce(basis)
        assert abs(_det3(red)) == abs(det)

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="linearly dependent: row 1"):
            lll_reduce([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        with pytest.raises(ValueError, match="linearly dependent: row 0"):
            lll_reduce([[0, 0], [1, 0]])

    def test_lovasz_equality_does_not_swap(self):
        # |b1*|^2 = 3 = (3/4 - 0) * |b0*|^2: the condition holds with equality
        basis = [[2, 0, 0, 0], [0, 1, 1, 1]]
        assert lll_reduce(basis) == reference_lll(basis) == basis

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_small_entries(self, data):
        n = data.draw(st.integers(2, 6))
        width = data.draw(st.integers(n, n + 2))
        entry = st.integers(-20, 20)
        basis = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                   min_size=n, max_size=n))
        assume(all(gram_schmidt(basis)[1]))
        red = lll_reduce(basis)
        assert red == reference_lll(basis)
        assert is_lll_reduced(red)

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_reference_relation_rows(self, data):
        # the shape recognize builds: (e_i | x_i), x_i up to 512 bits
        n = data.draw(st.integers(2, 4))
        bits = data.draw(st.sampled_from((16, 64, 256, 512)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        xs = [rng.randrange(-(2**bits), 2**bits) for _ in range(n)]
        rows = [[int(i == j) for j in range(n)] + [x] for i, x in enumerate(xs)]
        red = lll_reduce(rows)
        assert red == reference_lll(rows)
        assert is_lll_reduced(red)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _random_series(rng, K, unit=False):
    coeffs = [mpf(rng.randrange(-50, 51)) / (1 + rng.randrange(9)) for _ in range(K + 1)]
    if unit:
        coeffs[0] = mpf(1 + rng.randrange(1, 9)) / (1 + rng.randrange(4))
    return ReferenceSeries(coeffs, mp.zero)


def _general_series(rng, K):
    """A series of order K at the working precision: full-width mantissas of
    either sign over a wide range of exponents, some exact zeros, a nonzero
    constant term, and a nonzero error bound."""
    def value():  # |value| < 2^4
        mantissa = rng.choice((1, -1)) * rng.getrandbits(mp.prec)
        return mp.ldexp(mpf(mantissa), rng.randint(-2 * mp.prec, 4 - mp.prec))

    coeffs = [mp.zero if rng.random() < 0.2 else value() for _ in range(K + 1)]
    coeffs[0] = mpf(rng.randint(1, 9)) + value()
    return ReferenceSeries(coeffs, abs(value()) * mpf(2) ** -100)


def _raw(ts):
    return [c._mpf_ for c in ts.coeffs], ts.error_bound._mpf_


class TestTruncatedSeriesRing:
    """The libmp kernel of ``expansion`` performs the roundings of
    ``oracles.ReferenceSeries``, operator for operator; the ring laws hold for
    the reference."""

    def test_kernel_matches_the_reference_bit_for_bit(self):
        rng = random.Random(19)
        with mp.workprec(160):
            p = mp.prec
            for case in range(1000):
                K = case % 8
                A, B = _general_series(rng, K), _general_series(rng, K)
                (a, ea), (b, eb) = _raw(A), _raw(B)
                na, nb = A.norm1()._mpf_, B.norm1()._mpf_
                s = _general_series(rng, 0).coeffs[0]
                assert _norm1(a, p) == na, case
                assert _add(a, b, ea, eb, p) == _raw(A + B), case
                assert _mul(a, b, ea, eb, na, nb, p) == _raw(A * B), case
                assert _scale(a, ea, na, s._mpf_, p) == _raw(A.scale(s)), case
                for got, want in [(_recip(a, ea, p), A.recip()), (_exp(a, ea, p), A.exp())]:
                    assert got == (*_raw(want), want.norm1()._mpf_), case

    def test_mul_associative(self):
        rng = random.Random(11)
        with mp.workprec(160):
            for _ in range(20):
                A, B, C = (_random_series(rng, 6) for _ in range(3))
                left = (A * B) * C
                right = A * (B * C)
                tol = left.error_bound + right.error_bound + mpf(2) ** -120
                assert all(
                    abs(a - b) <= tol for a, b in zip(left.coeffs, right.coeffs)
                )

    def test_recip_is_inverse(self):
        rng = random.Random(13)
        with mp.workprec(160):
            for _ in range(20):
                A = _random_series(rng, 6, unit=True)
                prod = A * A.recip()
                assert abs(prod.coeffs[0] - 1) <= prod.error_bound + mpf(2) ** -120
                assert all(
                    abs(c) <= prod.error_bound + mpf(2) ** -120
                    for c in prod.coeffs[1:]
                )

    def test_exp_of_negation(self):
        rng = random.Random(17)
        with mp.workprec(160):
            A = _random_series(rng, 5)
            B = ReferenceSeries([-c for c in A.coeffs], mp.zero)
            prod = A.exp() * B.exp()
            assert abs(prod.coeffs[0] - 1) < mpf(2) ** -100
            assert all(abs(c) < mpf(2) ** -100 for c in prod.coeffs[1:])


def _is_discriminant(D):
    try:
        Lquad(D, 1)
    except (ValueError, InvariantViolation):
        return False
    return True


class TestConstantValue:
    def test_zeta2_euler_identity(self):
        with mp.workprec(160):
            want = mp.pi**2 / 6
            assert abs(constant_value(Zeta(2), 128) - want) < mpf(2) ** -126

    def test_l_minus4_leibniz(self):
        with mp.workprec(160):
            want = mp.pi / 4
            assert abs(constant_value(Lquad(-4, 1), 128) - want) < mpf(2) ** -126

    def test_sqrt5_newton_fixed_point(self):
        with mp.workprec(160):
            v = constant_value(SqrtDisc(5), 128)
            assert abs(v * v - 5) < mpf(2) ** -120
            assert mp.nstr(v, 8) == "2.236068"

    def test_l_values_match_the_polylog_route(self, claims):
        # every shipped l claim, and a seeded grid of |D| <= 60 and k <= 8;
        # where chi_D(-1) = (-1)^k, the Bernoulli closed form is a second oracle
        shipped = {(t.disc, t.k) for cf in claims.values() for cl in cf.claims
                   for t in cl.constants if isinstance(t, Lquad)}
        assert len(shipped) == 7
        discs = [D for D in range(-60, 61) if _is_discriminant(D)]
        rng = random.Random(13)
        grid = {(rng.choice(discs), rng.randint(1, 8)) for _ in range(12)}
        closed = {(D, k) for D, k in shipped | grid if (D > 0) == (k % 2 == 0)}
        assert {(5, 2), (-4, 1), (-4, 3), (-23, 1)} <= closed and len(closed & grid) >= 4
        for D, k in sorted(shipped | grid):
            got = constant_value(Lquad(D, k), 512)
            with mp.workprec(512):
                wants = [l_value_polylog(D, k)]
                if (D, k) in closed:
                    wants.append(l_value_closed_form(D, k))
            with mp.workprec(600):
                for want in wants:
                    assert abs(got - want) <= abs(want) * mpf(2) ** -500, (D, k)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_zeta_values_match_the_oracle(self, k):
        # Bernoulli closed form at even k, Borwein's series at odd k, at 600 bits
        got, want = constant_value(Zeta(k), 512), zeta_value(k, 600)
        with mp.workprec(600):
            assert abs(got - want) <= want * mpf(2) ** -500

    def test_memo_returns_same_object(self):
        a = constant_value(Zeta(3), 128)
        b = constant_value(Zeta(3), 128)
        assert a is b

    def test_tag_validation(self):
        with pytest.raises(ValueError):
            PiPower(0)
        with pytest.raises(ValueError):
            Zeta(1)
        with pytest.raises(ValueError, match="trivial character: use zeta$"):
            Lquad(1, 2)
        with pytest.raises(ValueError):
            SqrtDisc(1)


class TestShiftedExpansion:
    def test_degree_zero_matches_numeric_sum(self, series):
        for spec in series.values():
            ts = shifted_expansion(spec, 0, 128)
            value, bound = numeric_sum(spec, 128)
            with mp.workprec(160):
                assert abs(ts.coeffs[0] - value) <= ts.error_bound + bound, spec.name

    def test_eq2_order5_known_constants(self, series):
        ts = shifted_expansion(series["eq2"], 5, 256)
        with mp.workprec(300):
            want = [
                8 / mp.pi**2,
                mp.zero,
                mpf(-4),
                mp.zero,
                50 * mp.zeta(2),
                -448 * mp.zeta(3),
            ]
            for got, target in zip(ts.coeffs, want):
                assert abs(got - target) < mpf(10) ** -40

    def test_derivative_cross_check(self, series):
        # c_1 against a central difference of the x-extended sum at 192 bits
        spec = series["eq2"]
        ts = shifted_expansion(spec, 1, 192)
        with mp.workprec(192 + 64):
            h = mpf(2) ** -64

            def extended(x):
                total = mp.zero
                n = 0
                while True:
                    t = mpf(1)
                    for a in spec.upper:
                        t *= mp.gamma(mpf(a.numerator) / a.denominator + n + x) / \
                            mp.gamma(mpf(a.numerator) / a.denominator)
                    for b in spec.lower:
                        t /= mp.gamma(mpf(b.numerator) / b.denominator + n + x) / \
                            mp.gamma(mpf(b.numerator) / b.denominator)
                    t *= (-1) ** n * mpf(4) ** (-(n + x))
                    t *= (20 * (n + x) ** 2 + 8 * (n + x) + 1)
                    total += t
                    if n > 5 and abs(t) < mpf(2) ** -230:
                        return total
                    n += 1

            fd = (extended(h) - extended(-h)) / (2 * h)
            assert abs(ts.coeffs[1] - fd) < mpf(2) ** -100

    @pytest.mark.parametrize("name, K", TAYLOR_ORDERS.items())
    def test_every_coefficient_matches_the_taylor_oracle(self, series, name, K):
        # an independent route at 128 bits (oracles.py runs it at 256): each
        # coefficient lies within twice the stated error bound
        ratios = taylor_ratios(series[name], K, 128)
        assert all(r <= 2 for r in ratios), (name, ratios)


def _spec(**kw):
    data = dict(name="t", upper=(F(1, 2),), lower=(F(1),), sign=1, base=F(1, 4),
                poly=(F(1),), denom_linear=None, multiplier=F(1), rhs=ClosedForm(F(1)))
    data.update(kw)
    return SeriesSpec(**data)


PARAMETERS = (F(1, 2), F(1), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6))


@st.composite
def small_specs(draw):
    """Small valid series: repeated parameters, either sign, zeros in P, a
    linear denominator or none, and multiplier 0 (every term vanishes) or not."""
    m = draw(st.integers(1, 3))
    params = st.lists(st.sampled_from(PARAMETERS), min_size=m, max_size=m)
    deg = draw(st.integers(0, 3))
    poly = [F(draw(st.integers(-3, 3))) for _ in range(deg)]
    poly.append(F(draw(st.integers(-3, 3).filter(bool))) if deg else F(draw(st.integers(-3, 3))))
    lin = draw(st.none() | st.tuples(st.sampled_from((F(0), F(1), F(2), F(1, 2))),
                                       st.sampled_from((F(1), F(1, 3), F(-1, 2), F(3), F(-5, 3)))))
    try:
        return _spec(upper=tuple(draw(params)), lower=tuple(draw(params)),
                     sign=draw(st.sampled_from((1, -1))),
                     base=draw(st.sampled_from((F(1, 4), F(1, 16), F(27, 64), F(1, 2)))),
                     poly=tuple(poly), denom_linear=lin,
                     multiplier=draw(st.sampled_from((F(1), F(0), F(-3, 2), F(5, 7)))))
    except InvariantViolation:
        assume(False)


class TestKernelMatchesReference:
    """The libmp kernel of ``shifted_expansion`` against the same route in mpf
    objects (``oracles.reference_shifted_expansion``): every coefficient and
    the error bound agree in their ``_mpf_``."""

    @pytest.mark.parametrize("K, bits", [(0, 128), (1, 192), (5, 512)])
    def test_shipped_series(self, series, K, bits):
        for spec in series.values():
            got = _raw(shifted_expansion(spec, K, bits))
            assert got == _raw(reference_shifted_expansion(spec, K, bits)), spec.name

    @pytest.mark.parametrize("spec", [
        _spec(multiplier=F(0)),
        _spec(poly=(F(0),)),
        _spec(sign=-1, poly=(F(1), F(0), F(-2)), multiplier=F(-3, 2)),
        _spec(upper=(F(1, 2),) * 3, lower=(F(1),) * 3, denom_linear=(F(0), F(-1, 3))),
        _spec(denom_linear=(F(2), F(-1)), poly=(F(0), F(1))),
        _spec(lower=(F(1, 2),), base=F(27, 64)),
    ], ids=["zero-multiplier", "zero-poly", "alternating", "constant-denominator",
            "root-at-order-0", "cancelling-parameters"])
    def test_edge_specs(self, spec):
        # digamma and zeta return more bits than the working precision, which
        # the first addition into G rounds: cancelling parameters show it
        for K, bits in [(0, 64), (1, 64), (3, 128)]:
            assert _raw(shifted_expansion(spec, K, bits)) == \
                _raw(reference_shifted_expansion(spec, K, bits))

    @given(small_specs(), st.integers(0, 4), st.sampled_from((64, 96, 160)))
    @settings(max_examples=60, deadline=None)
    def test_random_specs(self, spec, K, bits):
        assert _raw(shifted_expansion(spec, K, bits)) == \
            _raw(reference_shifted_expansion(spec, K, bits))


# the constants of the benchmark's recognition targets, in closed form
CLOSED_FORMS = {
    Zeta(2): lambda: mp.pi**2 / 6,
    Zeta(3): lambda: +mp.apery,
    PiPower(2): lambda: 1 / mp.pi**2,
    Lquad(5, 2): lambda: 4 * mp.pi**2 / (25 * mp.sqrt(5)),
    Lquad(-4, 1): lambda: mp.pi / 4,
}
NONZERO = [a for a in range(-30, 31) if a]


class TestRecognize:
    def test_fifty_zeta2(self):
        with mp.workprec(320):
            c = 50 * constant_value(Zeta(2), 256)
        assert recognize(c, [Zeta(2)], 10**6, 256) == (1, [50])

    def test_l5_with_denominator(self):
        with mp.workprec(320):
            c = mpf(110875) / 32 * constant_value(Lquad(5, 2), 256)
        assert recognize(c, [Lquad(5, 2)], 10**6, 256) == (32, [110875])

    def test_zero_input(self):
        assert recognize(mp.zero, [Zeta(2), Zeta(3)], 10**6, 256) == (1, [0, 0])

    def test_rejects_non_relation(self):
        with mp.workprec(320):
            pi = +mp.pi
        assert recognize(pi, [Zeta(2)], 10**6, 256) is None

    def test_scale_consistency(self):
        with mp.workprec(320):
            c = 50 * constant_value(Zeta(2), 256)
            c2 = 2 * c
        q1, a1 = recognize(c, [Zeta(2)], 10**6, 256)
        q2, a2 = recognize(c2, [Zeta(2)], 10**6, 256)
        assert (q2 * a1[0] * 2) == (q1 * a2[0])

    def test_multi_constant_relation(self):
        with mp.workprec(320):
            c = 3 * constant_value(Zeta(2), 256) - mpf(7) / 2 * constant_value(Zeta(3), 256)
        assert recognize(c, [Zeta(2), Zeta(3)], 10**6, 256) == (2, [6, -7])

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecision):
            recognize(mp.one, [Zeta(2), Zeta(3)], 10**6, 64)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_combinations_at_512_bits(self, seed):
        # targets of the benchmark's shape, built from closed forms in mpmath
        rng = random.Random(f"recognize-{seed}")
        basis = rng.sample(list(CLOSED_FORMS), rng.choice((3, 4)))
        q, a = rng.randint(1, 12), [rng.choice(NONZERO) for _ in basis]
        g = math.gcd(q, *a)
        q, a = q // g, [x // g for x in a]
        with mp.workprec(576):
            c = mp.fsum(x * CLOSED_FORMS[tag]() for x, tag in zip(a, basis)) / q
        assert recognize(c, basis, 10**6, 512) == (q, a)

    @pytest.mark.parametrize("bits", [160, 200])
    def test_target_rounded_to_the_precision_asked_for(self, bits):
        # c carries `bits` bits only, below what PSLQ's default tolerance at
        # bits + 64 asks of a relation
        with mp.workprec(bits):
            c = mpf(110875) / 32 * (mp.pi**2 / 6)
        assert recognize(c, [Zeta(2)], 10**6, bits) == (32, [110875])

    @pytest.mark.parametrize("basis", [[One(), SqrtDisc(4)], [Zeta(2), Zeta(2)]],
                             ids=["one-and-two", "repeated"])
    def test_dependent_basis_raises(self, basis):
        # a relation among the basis alone would make q = 0 possible, or one
        # of infinitely many relations for c the answer, such as (7, [1, 1])
        with mp.workprec(320):
            c = mpf(3) / 7
        with pytest.raises(ValueError, match="dependent over Q"):
            recognize(c, basis, 10**6, 256)

    def test_needs_no_lattice_reduction(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("recognize called lll_reduce")

        monkeypatch.setattr(expansion_module, "lll_reduce", refuse)
        with mp.workprec(320):
            c = 3 * constant_value(Zeta(2), 256) - mpf(7) / 2 * constant_value(Zeta(3), 256)
        assert recognize(c, [Zeta(2), Zeta(3)], 10**6, 256) == (2, [6, -7])


class TestVerifyExpansion:
    def test_eq3_claims_pass(self, series, claims):
        cf = claims["eq3-claims"]
        report = verify_expansion(series["eq2"], cf.claims, cf.order, 256)
        assert report.all_pass
        assert [c.claimed for c in report.checks] == [True, False, True, False, True, True]

    def test_perturbed_claim_fails_with_visible_defect(self, series):
        bad = (
            ExpansionClaim(0, F(8), (PiPower(2),)),
            ExpansionClaim(2, F(-4), ()),
            ExpansionClaim(4, F(51), (Zeta(2),)),  # 50 -> 51
            ExpansionClaim(5, F(-448), (Zeta(3),)),
        )
        report = verify_expansion(series["eq2"], bad, 5, 256)
        assert not report.all_pass
        failing = [c for c in report.checks if not c.passed]
        assert [c.order for c in failing] == [4]
        with mp.workprec(300):
            assert abs(failing[0].defect - mp.zeta(2)) < mpf(10) ** -30

    def test_claim_order_beyond_K_rejected(self, series):
        with pytest.raises(ValueError):
            verify_expansion(series["eq2"], (ExpansionClaim(9, F(1), ()),), 5, 128)

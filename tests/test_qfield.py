import decimal
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from torcode.qfield import (
    QuadExt,
    FieldMismatchError,
    as_integer_combination,
    dominant_eigenvalue,
    field_fundamental_unit,
    pell_fundamental_unit,
    squarefree_split,
    unit_group_of_order,
)

from helpers import brute_pell_minimal, decimal_value

ints = st.integers(min_value=-50, max_value=50)


def qx(p, q, s=1, D=5):
    return QuadExt(p, q, s, D)


class TestCanonicalization:
    def test_identity_representation(self):
        x = qx(1, 1, 2)
        assert (x.p, x.q, x.s, x.D) == (1, 1, 2, 5)

    def test_gcd_reduction(self):
        assert qx(2, 2, 4) == qx(1, 1, 2)

    def test_zero(self):
        z = QuadExt(0, 0, 7, 40)
        assert (z.p, z.q, z.s) == (0, 0, 1)

    def test_negative_denominator(self):
        assert QuadExt(1, 1, -2, 5) == QuadExt(-1, -1, 2, 5)

    def test_rejects_bad_field(self):
        with pytest.raises(ValueError):
            QuadExt(1, 0, 1, 9)
        with pytest.raises(ValueError):
            QuadExt(1, 0, 1, -5)
        with pytest.raises(ValueError):
            QuadExt(1, 0, 0, 5)


def _fields(x):
    return (x.p, x.q, x.s, x.D)


def _public(p, q, s, D):
    # the textbook formula, made canonical by the validating constructor
    return QuadExt(p, q, s, D)


elements = st.tuples(
    st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(-10**6, 10**6).filter(bool)
)


class TestResultsAreCanonical:
    """Arithmetic results come from a trusted constructor; each must equal the
    publicly constructed canonical element, field for field and in hash."""

    def _same(self, got, want):
        assert _fields(got) == _fields(want)
        assert hash(got) == hash(want)
        assert _fields(QuadExt(*_fields(got))) == _fields(got)

    @given(x=elements, y=elements, D=st.sampled_from([2, 5, 8, 12, 13, 45, 10**12 + 39]))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, x, y, D):
        (p1, q1, s1), (p2, q2, s2) = x, y
        a, b = QuadExt(p1, q1, s1, D), QuadExt(p2, q2, s2, D)
        (p1, q1, s1), (p2, q2, s2) = (a.p, a.q, a.s), (b.p, b.q, b.s)
        self._same(a + b, _public(p1 * s2 + p2 * s1, q1 * s2 + q2 * s1, s1 * s2, D))
        self._same(a - b, _public(p1 * s2 - p2 * s1, q1 * s2 - q2 * s1, s1 * s2, D))
        self._same(a * b, _public(p1 * p2 + q1 * q2 * D, p1 * q2 + q1 * p2, s1 * s2, D))
        self._same(-a, _public(-p1, -q1, s1, D))
        self._same(a.conj(), _public(p1, -q1, s1, D))
        self._same(a * a * a, a ** 3)
        if not a.is_zero:
            self._same(a.inverse(), _public(s1 * p1, -s1 * q1, p1 * p1 - q1 * q1 * D, D))
            self._same(b / a, b * a.inverse())
            self._same(a ** -2, a.inverse() * a.inverse())
        self._same(a ** 0, _public(1, 0, 1, D))

    @given(x=elements, k=st.integers(-10**20, 10**20), den=st.integers(1, 10**6), D=st.sampled_from([3, 5, 21]))
    @settings(max_examples=150, deadline=None)
    def test_mixed_with_rationals(self, x, k, den, D):
        a = QuadExt(*x, D)
        p, q, s = a.p, a.q, a.s
        self._same(a + k, _public(p + k * s, q, s, D))
        self._same(k + a, _public(p + k * s, q, s, D))
        self._same(a - k, _public(p - k * s, q, s, D))
        self._same(k - a, _public(k * s - p, -q, s, D))
        self._same(a * k, _public(p * k, q * k, s, D))
        self._same(k * a, _public(p * k, q * k, s, D))
        f = Fraction(k, den)
        n, d = f.numerator, f.denominator
        self._same(a + f, _public(p * d + n * s, q * d, s * d, D))
        self._same(f - a, _public(n * s - p * d, -q * d, s * d, D))
        self._same(a * f, _public(p * n, q * n, s * d, D))
        self._same(a.frac(), _public(p - a.floor() * s, q, s, D))

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 1, 4)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 0, 5)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 1, 0)
        with pytest.raises(ValueError):
            QuadExt.from_fraction(Fraction(1, 2), 49)


class TestArithmetic:
    def test_norm_golden(self):
        theta = qx(1, 1, 2)
        assert theta.norm() == -1

    def test_norm_2_plus_sqrt5(self):
        assert qx(2, 1).norm() == -1

    def test_trace_of_eigenvalue(self):
        for r, sigma in [(1, -1), (3, 1), (5, -1), (4, 1)]:
            lam = dominant_eigenvalue(r, sigma)
            assert lam.trace() == r
            assert lam.norm() == sigma

    def test_division(self):
        theta = qx(1, 1, 2)
        assert (theta * theta) / theta == theta
        with pytest.raises(ZeroDivisionError):
            theta / QuadExt.zero(5)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            qx(1, 1, 1, 5) + qx(1, 1, 1, 8)

    @given(p1=ints, q1=ints, p2=ints, q2=ints, s1=st.integers(1, 9), s2=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative_conj_morphism(self, p1, q1, p2, q2, s1, s2):
        x, y = QuadExt(p1, q1, s1, 13), QuadExt(p2, q2, s2, 13)
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().conj() == x

    @given(p=ints, q=ints, s=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_product_with_conjugate(self, p, q, s):
        x = QuadExt(p, q, s, 8)
        prod = x * x.conj()
        assert prod.is_rational and prod.as_fraction() == x.norm()


class TestComparison:
    def test_eigenvalue_vs_one(self):
        assert dominant_eigenvalue(1, -1) > 1

    def test_three_minus_sqrt5_positive(self):
        assert qx(3, -1, 2) > 0

    def test_theta_below_its_square(self):
        theta = qx(1, 1, 2)
        assert theta < theta * theta

    def test_total_order_matches_decimal(self):
        rng = random.Random(1812)
        vals = [QuadExt(rng.randrange(-40, 41), rng.randrange(-40, 41), rng.randrange(1, 7), 13) for _ in range(1000)]
        for x, y in zip(vals, vals[1:]):
            exact = (x < y, x == y, x > y)
            dx, dy = decimal_value(x), decimal_value(y)
            approx = (dx < dy, dx == dy, dx > dy)
            assert exact == approx


class TestFloor:
    def test_golden_floor(self):
        assert dominant_eigenvalue(1, -1).floor() == 1

    def test_floor_5_plus_sqrt21(self):
        # 4 <= (5+sqrt(21))/2 < 5 because 9 <= 21 < 25
        assert dominant_eigenvalue(5, 1).floor() == 4

    def test_floor_negative_theta(self):
        assert (-qx(1, 1, 2)).floor() == -2

    def test_floor_frac_consistency(self):
        rng = random.Random(99)
        for _ in range(300):
            x = QuadExt(rng.randrange(-30, 31), rng.randrange(-30, 31), rng.randrange(1, 6), 21)
            n = x.floor()
            assert QuadExt.from_fraction(n, 21) <= x < QuadExt.from_fraction(n + 1, 21)
            assert x.frac() == x - n
            assert 0 <= x.frac() < 1


class TestPell:
    def test_d5(self):
        assert pell_fundamental_unit(5) == qx(1, 1, 2)

    def test_d8(self):
        # x=2, y=1: 4 - 8 = -4, i.e. 1 + sqrt(2)
        assert pell_fundamental_unit(8) == QuadExt(2, 1, 2, 8)

    def test_d40(self):
        # x=6, y=1: 36 - 40 = -4, i.e. 3 + sqrt(10)
        assert pell_fundamental_unit(40) == QuadExt(6, 1, 2, 40)

    @pytest.mark.parametrize("D", [5, 8, 12, 13, 20, 21, 29, 32, 40])
    def test_unit_norm_and_minimality(self, D):
        u = pell_fundamental_unit(D)
        assert abs(u.norm()) == 1
        x, y = brute_pell_minimal(D)
        assert u == QuadExt(x, y, 2, D)

    def test_against_sympy_diop_dn(self):
        diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
        for D in range(2, 1500):
            if isqrt(D) ** 2 == D:
                continue
            sols = [(abs(x), abs(y)) for n in (4, -4) for x, y in diophantine.diop_DN(D, n) if y]
            x, y = min(sols, key=lambda s: (s[1], s[0]))
            assert pell_fundamental_unit(D) == QuadExt(x, y, 2, D), D

    def test_d151_long_period(self):
        # 1728148040 + 140634693*sqrt(151), far past any linear search in y
        u = pell_fundamental_unit(151)
        assert (u.p, u.q, u.s) == (1728148040, 140634693, 1)
        assert u.norm() == 1

    def test_squarefree_split(self):
        assert squarefree_split(20) == (2, 5)
        assert squarefree_split(32) == (4, 2)
        assert squarefree_split(845) == (13, 5)
        assert squarefree_split(21) == (1, 21)


class TestUnitGroup:
    def test_fibonacci(self):
        desc = unit_group_of_order(1, -1)
        assert desc.exponent_index == 1
        assert desc.order_generator == dominant_eigenvalue(1, -1)

    def test_exceptional_trace3(self):
        desc = unit_group_of_order(3, 1)
        assert desc.exponent_index == 1
        # generator is the square root of the eigenvalue
        assert desc.order_generator == QuadExt(1, 1, 2, 5)
        assert desc.order_generator ** 2 == dominant_eigenvalue(3, 1)

    def test_d20_index_three(self):
        desc = unit_group_of_order(4, -1)
        assert desc.exponent_index == 3
        assert desc.order_generator == dominant_eigenvalue(4, -1)  # 2 + sqrt(5)
        # theta and theta^2 are not in Z + lam*Z, theta^3 is
        assert as_integer_combination(desc.fundamental_unit, 4) is None
        assert as_integer_combination(desc.fundamental_unit ** 2, 4) is None
        assert as_integer_combination(desc.fundamental_unit ** 3, 4) is not None

    def test_lucas_trace_index_seven(self):
        # lam = (29 + sqrt(845))/2 = phi^7, with 845 = 13^2 * 5
        desc = unit_group_of_order(29, -1)
        assert desc.exponent_index == 7
        assert desc.order_generator == dominant_eigenvalue(29, -1)
        assert desc.fundamental_unit == QuadExt(13, 1, 26, 845)
        assert desc.fundamental_unit ** 7 == desc.order_generator

    def test_closed_form_is_least_order_power(self):
        # the generator is the least power of the field unit that lies in Z + lam*Z
        for sigma in (-1, 1):
            for r in range(1 if sigma < 0 else 3, 400):
                desc = unit_group_of_order(r, sigma)
                power = desc.fundamental_unit
                for _ in range(1, desc.exponent_index):
                    assert as_integer_combination(power, r) is None, (r, sigma)
                    power = power * desc.fundamental_unit
                assert power == desc.order_generator
                assert as_integer_combination(power, r) is not None

    @pytest.mark.parametrize("r,sigma", [(1, -1), (2, -1), (3, -1), (3, 1), (4, 1), (4, -1), (5, 1), (6, 1)])
    def test_generator_powers_stay_in_order(self, r, sigma):
        desc = unit_group_of_order(r, sigma)
        g = desc.order_generator
        assert abs(g.norm()) == 1
        power = g
        for _ in range(4):
            assert as_integer_combination(power, r) is not None
            power = power * g
        for j in range(1, desc.exponent_index):
            assert as_integer_combination(desc.fundamental_unit ** j, r) is None

    def test_field_unit_d20_is_golden(self):
        # fundamental unit of the maximal order of Q(sqrt(20)) is (1+sqrt(5))/2
        u = field_fundamental_unit(20)
        assert u == QuadExt(2, 1, 4, 20)
        assert decimal_value(u).quantize(decimal.Decimal("1.000000")) == decimal.Decimal("1.618034")


class TestPowersStayExact:
    def test_large_powers_no_overflow(self):
        lam = dominant_eigenvalue(1, -1)
        big = lam ** 64
        small = lam ** -64
        assert big * small == 1
        # Fibonacci/Lucas identity: lam^n = (L_n + F_n sqrt 5)/2
        fib = [0, 1]
        for _ in range(70):
            fib.append(fib[-1] + fib[-2])
        assert big == QuadExt(fib[63] + fib[65], fib[64], 2, 5)


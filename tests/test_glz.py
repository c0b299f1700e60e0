import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from torcode import glz
from torcode.binforms import BinForm, associated_form, integral_minimum
from torcode.intmat import smith_normal_form
from torcode.glz import (
    Mat2,
    companion,
    conjugator_to_companion,
    is_conjugate,
    is_hyperbolic,
    is_primitive,
    kernel_group,
    kernel_isomorphic_under_matrix,
    min_orbit_cover_bound,
    normalize_trace,
    orbit_span_full,
    orbit_span_full_lattice,
    require_hyperbolic,
)

from helpers import fraction_kernel_elements, random_hyperbolic, random_unimodular


class TestHyperbolicity:
    def test_fibonacci(self):
        assert is_hyperbolic(Mat2(1, 1, 1, 0))
        assert require_hyperbolic(Mat2(1, 1, 1, 0)) == (1, -1, 5)

    def test_trace3_det1(self):
        assert is_hyperbolic(Mat2(2, 1, 1, 1))
        assert require_hyperbolic(Mat2(2, 1, 1, 1)) == (3, 1, 5)

    def test_parabolic(self):
        assert not is_hyperbolic(Mat2(1, 1, 0, 1))

    def test_rotation_like(self):
        assert not is_hyperbolic(Mat2(0, -1, 1, 0))
        assert not is_hyperbolic(Mat2(1, 1, -1, 0))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            is_hyperbolic(Mat2(2, 0, 0, 1))


class TestNormalizeTrace:
    def test_negated(self):
        m, flipped = normalize_trace(Mat2(-1, -1, -1, 0))
        assert m == Mat2(1, 1, 1, 0) and flipped

    def test_untouched(self):
        m, flipped = normalize_trace(Mat2(1, 1, 1, 0))
        assert m == Mat2(1, 1, 1, 0) and not flipped

    def test_negated_trace_minus5(self):
        m, flipped = normalize_trace(Mat2(-3, -5, -1, -2))
        assert m == Mat2(3, 5, 1, 2) and flipped


class TestCompanion:
    def test_values(self):
        assert companion(1, -1) == Mat2(1, 1, 1, 0)
        assert companion(3, 1) == Mat2(3, 1, -1, 0)
        assert companion(5, 1) == Mat2(5, 1, -1, 0)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            companion(2, 1)
        with pytest.raises(ValueError):
            companion(0, -1)


class TestConjugatorToCompanion:
    def test_worked_example(self):
        b = conjugator_to_companion(Mat2(3, 5, 1, 2))
        assert b == Mat2(0, 1, 1, -3)
        # verify by exact multiplication on both sides
        assert b * Mat2(3, 5, 1, 2) == companion(5, 1) * b
        assert b * Mat2(3, 5, 1, 2) == Mat2(1, 2, 0, -1)

    def test_companion_fixed_point(self):
        assert conjugator_to_companion(Mat2(1, 1, 1, 0)) == Mat2.identity()

    def test_obstructed_matrix(self):
        assert conjugator_to_companion(Mat2(5, 3, 2, 1)) is None

    def test_random_conjugates(self):
        rng = random.Random(21)
        for _ in range(40):
            r, sigma = rng.choice([(1, -1), (2, -1), (3, -1), (3, 1), (4, 1)])
            c = companion(r, sigma)
            u = random_unimodular(rng)
            m = u * c * u.inverse_unimodular()
            if m.trace < 0:
                m = -m
            b = conjugator_to_companion(m)
            assert b is not None
            assert b * m == c * b


class TestIsConjugate:
    def test_conjugate_to_companion(self):
        b = is_conjugate(Mat2(3, 5, 1, 2), Mat2(5, 1, -1, 0))
        assert b is not None
        assert b * Mat2(3, 5, 1, 2) == Mat2(5, 1, -1, 0) * b

    def test_matrix_vs_inverse_via_improper_automorph(self):
        # 5x^2-xy-y^2 is fixed by the determinant -1 change (x, y) -> (x, -x-y),
        # which conjugates the matrix to its inverse; the witness verifies exactly.
        f = BinForm(5, -1, -1)
        w = Mat2(1, 0, -1, -1)
        assert f.apply(w) == f and w.det == -1
        b = is_conjugate(Mat2(3, 5, 1, 2), Mat2(2, -5, -1, 3))
        assert b is not None
        assert b * Mat2(3, 5, 1, 2) == Mat2(2, -5, -1, 3) * b

    def test_distinct_traces_not_conjugate(self):
        assert is_conjugate(Mat2(3, 5, 1, 2), Mat2(1, 1, 1, 0)) is None

    def test_d20_representatives_not_conjugate(self):
        assert is_conjugate(Mat2(3, 2, 2, 1), Mat2(4, 1, 1, 0)) is None

    def test_d32_representatives_not_conjugate(self):
        assert is_conjugate(Mat2(5, 2, 2, 1), companion(6, 1)) is None

    def test_random_round_trip(self):
        rng = random.Random(22)
        for _ in range(60):
            m = random_hyperbolic(rng)
            u = random_unimodular(rng)
            m2 = u * m * u.inverse_unimodular()
            b = is_conjugate(m, m2)
            assert b is not None
            assert b * m == m2 * b

    def test_conjugation_invariants(self):
        rng = random.Random(23)
        for _ in range(30):
            m = random_hyperbolic(rng)
            u = random_unimodular(rng)
            m2 = u * m * u.inverse_unimodular()
            if m2.trace < 0:
                m2 = -m2
            f1, f2 = associated_form(m), associated_form(m2)
            assert require_hyperbolic(m) == require_hyperbolic(m2)
            assert integral_minimum(f1) == integral_minimum(f2)
            assert (conjugator_to_companion(m) is None) == (conjugator_to_companion(m2) is None)


class TestLemma33:
    def test_exact_identity(self):
        rng = random.Random(24)
        for _ in range(200):
            m = random_hyperbolic(rng)
            f = associated_form(m)
            doubled = Mat2(2 * f.a, f.b, f.b, 2 * f.c)  # 2F stays integral
            lhs = m * doubled * m.transpose()
            rhs = doubled.scale(m.det)
            assert lhs == rhs


class TestIsPrimitive:
    def test_cube_of_fibonacci(self):
        primitive, root = is_primitive(Mat2(3, 2, 2, 1))
        assert not primitive
        assert root == (Mat2(1, 1, 1, 0), 3)

    def test_square_d32(self):
        primitive, root = is_primitive(Mat2(5, 2, 2, 1))
        assert not primitive
        assert root == (Mat2(2, 1, 1, 0), 2)

    def test_primitive_spectrum_in_golden_ring(self):
        primitive, root = is_primitive(Mat2(27, 11, 5, 2))
        assert primitive and root is None

    def test_root_verifies(self):
        rng = random.Random(25)
        for _ in range(20):
            m = random_hyperbolic(rng)
            primitive, root = is_primitive(m)
            if not primitive:
                k, n = root
                assert k ** n == m

    def test_powers_detected(self):
        rng = random.Random(26)
        for n in (2, 3):
            for _ in range(10):
                m = random_hyperbolic(rng, panel=[(1, -1), (2, -1), (3, -1)])
                power = m ** n
                primitive, root = is_primitive(power)
                assert not primitive
                k, got_n = root
                assert k ** got_n == power
                assert got_n % n == 0 or n % got_n == 0 or k ** got_n == power


    def test_companions_to_trace_1e9(self):
        rng = random.Random(28)
        for _ in range(60):
            c = companion(int(10 ** rng.uniform(1, 9)), rng.choice((-1, 1)))
            b = random_unimodular(rng)
            assert is_primitive(c) == (True, None)
            assert is_primitive(b * c * b.inverse_unimodular()) == (True, None)

    def test_conjugated_powers_to_trace_1e9(self):
        rng = random.Random(29)
        for n in range(2, 7):
            for _ in range(12):
                sigma = rng.choice((-1, 1))
                # trace of K^n is about t^n; keep it at most 10^9
                t = int(10 ** rng.uniform(0.5 if sigma > 0 else 0, 9 / n))
                b = random_unimodular(rng)
                m = b * companion(t, sigma) ** n * b.inverse_unimodular()
                assert 0 < m.trace <= 10**9
                primitive, root = is_primitive(m)
                assert not primitive
                k, e = root
                assert k ** e == m
                assert e % n == 0
                assert e == (2 * n if (t, sigma) == (3, 1) else n)

    def test_checks_hold_under_optimize(self):
        # the cross-checks are explicit raises, not asserts stripped by -O
        code = textwrap.dedent(
            """
            from torcode.glz import Mat2, is_primitive
            m = Mat2(3, 2, 2, 1)
            print(__debug__, is_primitive(m))
            Mat2.__pow__ = lambda self, n: Mat2.identity()
            try:
                is_primitive(m)
            except RuntimeError:
                print("refused")
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False (False, (Mat2(a=1, b=1, c=1, d=0), 3))", "refused"]


class TestOrbitSpan:
    def test_companion_basis_vector(self):
        for r, sigma in [(1, -1), (3, 1), (5, 1), (4, -1)]:
            assert orbit_span_full(companion(r, sigma), 1, 0)

    def test_fibonacci(self):
        assert orbit_span_full(Mat2(1, 1, 1, 0), 1, 0)

    def test_obstructed_matrix_never_full(self):
        m = Mat2(5, 3, 2, 1)
        for x in range(-50, 51):
            for y in range(-50, 51):
                if (x, y) != (0, 0):
                    assert not orbit_span_full(m, x, y)

    def test_agrees_with_lattice_oracle(self):
        rng = random.Random(27)
        for _ in range(200):
            m = random_hyperbolic(rng)
            x, y = rng.randrange(-30, 31), rng.randrange(-30, 31)
            if (x, y) == (0, 0):
                continue
            assert orbit_span_full(m, x, y) == orbit_span_full_lattice(m, x, y)


class TestOrbitCoverBound:
    def test_companion(self):
        out = min_orbit_cover_bound(companion(1, -1))
        assert out.bound == 1 and out.note is None

    def test_sharper_note(self):
        out = min_orbit_cover_bound(Mat2(5, 3, 2, 1))
        assert out.bound == 2
        assert out.note is not None and "3" in out.note

    def test_example_80_9(self):
        out = min_orbit_cover_bound(Mat2(80, 9, 9, 1))
        assert out.bound == 9
        assert out.note is None  # two distinct orbits exist


class TestKernelGroup:
    def test_unimodular_trivial(self):
        k = kernel_group(Mat2(1, 1, 1, 0))
        assert k.order == 1 and k.elements == ((Fraction(0), Fraction(0)),)

    def test_order5_kernel(self):
        k = kernel_group(Mat2(1, 2, 2, -1))
        want = {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 5), Fraction(2, 5)),
            (Fraction(2, 5), Fraction(4, 5)),
            (Fraction(3, 5), Fraction(1, 5)),
            (Fraction(4, 5), Fraction(3, 5)),
        }
        assert set(k.elements) == want

    def test_diagonal(self):
        k = kernel_group(Mat2(2, 0, 0, 1))
        assert set(k.elements) == {(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0))}

    def test_order_and_annihilation(self):
        rng = random.Random(28)
        for _ in range(50):
            b = Mat2(rng.randrange(-6, 7), rng.randrange(-6, 7), rng.randrange(-6, 7), rng.randrange(-6, 7))
            if b.det == 0:
                continue
            k = kernel_group(b)
            assert k.order == abs(b.det)
            for x, y in k.elements:
                bx, by = b.apply(x, y)
                assert bx.denominator == 1 and by.denominator == 1

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            kernel_group(Mat2(1, 1, 1, 1))

    def test_matches_fraction_oracle(self):
        rng = random.Random(61)
        cases = [Mat2(100, 0, 0, -100), Mat2(-6, 4, 9, 6), Mat2(10**4, 0, 0, 1), Mat2(0, -1, 10**4, 0)]
        while len(cases) < 60:
            scaled = len(cases) % 3 == 0  # B = k*B' has s1 > 1
            h = rng.choice((5, 12) if scaled else (5, 40, 120))
            b = Mat2(*(rng.randrange(-h, h + 1) for _ in range(4)))
            if scaled:
                c = rng.choice((-4, -2, 2, 3, 7))
                b = Mat2(c * b.a, c * b.b, c * b.c, c * b.d)
            if 0 < abs(b.det) <= 10**4:
                cases.append(b)
        assert any(c.det < 0 for c in cases) and any(c.det > 0 for c in cases)
        assert sum(smith_normal_form(c)[0].a > 1 for c in cases) >= 15
        for b in cases:
            k = kernel_group(b)
            want = fraction_kernel_elements(b)
            assert k.order == abs(b.det) == len(k.points)
            assert k.elements == want
            assert k.as_strings() == [f"{x},{y}" for x, y in want]

    def test_too_large_not_enumerated(self):
        for b in (Mat2(10**4 + 1, 0, 0, 1), Mat2(101, 0, 0, -101), Mat2(123, 45, 67, 110)):
            k = kernel_group(b)
            assert k.order == abs(b.det) > glz._ENUMERATION_LIMIT
            assert k.points is None and k.elements is None
            for call in (k.as_strings, k.element_set):
                with pytest.raises(ValueError, match="^kernel too large to enumerate$"):
                    call()

    def test_checks_hold_under_optimize(self):
        # the enumeration's checks are explicit raises, not asserts stripped by -O
        code = textwrap.dedent(
            """
            from torcode import glz
            from torcode.intmat import Mat2

            def refused(label, call):
                try:
                    call()
                except RuntimeError:
                    print(label, "refused")

            b = Mat2(1, 2, 2, -1)
            print(__debug__, glz.kernel_group(b).as_strings())
            s, u, v = glz.smith_normal_form(b)
            glz.smith_normal_form = lambda m: (Mat2(1, 0, 0, 4), u, v)
            refused("order", lambda: glz.kernel_group(b))
            glz.smith_normal_form = lambda m: (s, u, Mat2(v.a, 0, v.c, 0))
            refused("distinct", lambda: glz.kernel_group(b))
            glz.smith_normal_form = lambda m: (s, u, Mat2.identity())
            refused("annihilated", lambda: glz.kernel_group(b))
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False ['0,0', '1/5,2/5', '2/5,4/5', '3/5,1/5', '4/5,3/5']",
            "order refused",
            "distinct refused",
            "annihilated refused",
        ]


class TestKernelIsomorphy:
    def test_self(self):
        m = Mat2(1, 1, 1, 0)
        k = kernel_group(Mat2(1, 2, 2, -1))
        assert kernel_isomorphic_under_matrix(m, k, k)

    def test_translated_copy(self):
        m = Mat2(1, 1, 1, 0)
        k1 = kernel_group(Mat2(1, 2, 2, -1))
        # image of k1 under m is the kernel of B * M^{-1}
        k2 = kernel_group(Mat2(1, 2, 2, -1) * m.inverse_unimodular())
        assert kernel_isomorphic_under_matrix(m, k1, k2)

    def test_distinct_kernels_example(self):
        from torcode.coding import semiconjugacy_kernel

        m = Mat2(80, 9, 9, 1)
        k1 = semiconjugacy_kernel(m, 0, 1)
        k2 = semiconjugacy_kernel(m, 1, 0)
        assert k1.order == k2.order == 9
        assert not kernel_isomorphic_under_matrix(m, k1, k2)

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from torcode.betasym import make_word, normalize, u_word, word_add, zero_word
from torcode.binforms import associated_form
from torcode.coding import (
    CodingSpec,
    TorusPoint,
    decay_threshold,
    decode,
    enumerate_bac,
    enumerate_mac,
    fundamental_domain,
    homoclinic_class_image_check,
    homoclinic_decay_check,
    homoclinic_point,
    kernel_of_coding,
    make_spec,
    one_sided_expansion_spec,
    phi_eval,
    pi_polygon,
    pisot_member,
    semiconjugacy_kernel,
    torus_norm,
)
from torcode.glz import Mat2, companion, conjugator_to_companion
from torcode.qfield import QuadExt, as_integer_combination, dominant_eigenvalue

from helpers import random_hyperbolic, random_unimodular

FIB = Mat2(1, 1, 1, 0)


def fib_bac():
    return make_spec(FIB, -1, -1)


def random_word(rng, r, sigma):
    digits = [rng.randrange(0, 2 * r + 1) for _ in range(rng.randrange(1, 8))]
    return normalize(digits, rng.randrange(-4, 5), r, sigma)


class TestHomoclinicPoint:
    def test_fibonacci_bac_parameter(self):
        t = homoclinic_point(FIB, -1, -1)
        sq5 = QuadExt.sqrt_d(5)
        lam = dominant_eigenvalue(1, -1)
        assert t.xi == 1 / sq5
        assert t.eta == 1 / (lam * sq5)

    def test_fibonacci_expansion_parameter(self):
        t = homoclinic_point(FIB, 3, 1)
        lam = dominant_eigenvalue(1, -1)
        assert t.xi == QuadExt.one(5)
        assert t.eta == lam - 1
        assert (t.n, t.k) == (2, -1)

    def test_zero_parameter(self):
        t = homoclinic_point(FIB, 0, 0)
        assert t.xi.is_zero and t.eta.is_zero

    def test_eigenline_invariance(self):
        rng = random.Random(41)
        for _ in range(50):
            m = random_hyperbolic(rng)
            lam = dominant_eigenvalue(m.trace, m.det)
            p, q = rng.randrange(-9, 10), rng.randrange(-9, 10)
            t = homoclinic_point(m, p, q)
            assert m.a * t.xi + m.b * t.eta == lam * t.xi
            assert m.c * t.xi + m.d * t.eta == lam * t.eta


class TestMultiplicity:
    def test_fibonacci_expansion_is_5_to_1(self):
        assert make_spec(FIB, 3, 1).multiplicity == 5

    def test_fibonacci_bac(self):
        assert make_spec(FIB, -1, -1).multiplicity == 1

    def test_companion_one_plus_lambda(self):
        # planar xi = (1 + lam)/sqrt(D) has norm-multiplicity r + 2
        for r in (3, 4, 5, 6):
            c = companion(r, 1)
            spec = make_spec(c, -r - 1, -1)
            lam = dominant_eigenvalue(r, 1)
            assert spec.point.xi * QuadExt.sqrt_d(lam.D) == 1 + lam
            assert spec.multiplicity == r + 2

    def test_triple_agreement_random(self):
        rng = random.Random(42)
        for _ in range(10):
            m = random_hyperbolic(rng)
            f = associated_form(m)
            _, _, D = m.trace, m.det, m.trace * m.trace - 4 * m.det
            sq = QuadExt.sqrt_d(D)
            for _ in range(50):
                p, q = rng.randrange(-20, 21), rng.randrange(-20, 21)
                if (p, q) == (0, 0):
                    continue
                t = homoclinic_point(m, p, q)
                area = sq * abs(t.xi.conj() * t.eta - t.xi * t.eta.conj())
                assert area == QuadExt.from_fraction(abs(f(p, q)), D)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            make_spec(FIB, 0, 0)


class TestEnumerateBac:
    def test_fibonacci_family(self):
        specs = enumerate_bac(FIB, (-3, 3))
        lam = dominant_eigenvalue(1, -1)
        sq5 = QuadExt.sqrt_d(5)
        want = [s * lam ** k / sq5 for k in range(-3, 4) for s in (1, -1)]
        assert [s.point.xi for s in specs] == want
        assert all(s.multiplicity == 1 for s in specs)

    def test_exceptional_theta_family(self):
        c = companion(3, 1)
        specs = enumerate_bac(c, (-3, 3))
        theta = QuadExt(1, 1, 2, 5)
        sq5 = QuadExt.sqrt_d(5)
        want = [s * theta ** k / sq5 for k in range(-3, 4) for s in (1, -1)]
        assert [s.point.xi for s in specs] == want
        assert all(s.multiplicity == 1 for s in specs)

    def test_obstructed_matrix_empty(self):
        assert enumerate_bac(Mat2(5, 3, 2, 1)) == []

    def test_multiplicity_one_iff_unit(self):
        # in companion coordinates: multiplicity 1 <=> xi*sqrt(D) is a unit
        # of Z + lam*Z (up to sign)
        rng = random.Random(43)
        found = 0
        while found < 30:
            r, sigma = rng.choice([(1, -1), (2, -1), (3, 1), (4, 1), (5, 1), (4, -1)])
            c = companion(r, sigma)
            p, q = rng.randrange(-12, 13), rng.randrange(-12, 13)
            if (p, q) == (0, 0):
                continue
            spec = make_spec(c, p, q)
            x = spec.point.xi * QuadExt.sqrt_d(spec.point.xi.D)
            combo = as_integer_combination(x, r)
            assert combo is not None
            if spec.multiplicity == 1:
                assert abs(x.norm()) == 1
                found += 1
            else:
                assert abs(x.norm()) != 1

    def test_non_companion_members_transported_units(self):
        from torcode.coding import _companion_xi

        for spec in enumerate_bac(Mat2(3, 5, 1, 2), (-2, 2)):
            xi_c, _ = _companion_xi(spec)
            x = xi_c * QuadExt.sqrt_d(xi_c.D)
            assert abs(x.norm()) == 1


class TestEnumerateMac:
    def test_example_80_9(self):
        m_val, specs = enumerate_mac(Mat2(80, 9, 9, 1))
        assert m_val == 9
        assert len(specs) == 2
        kernels = [semiconjugacy_kernel(Mat2(80, 9, 9, 1), s.point.p, s.point.q) for s in specs]
        from torcode.glz import kernel_isomorphic_under_matrix

        assert not kernel_isomorphic_under_matrix(Mat2(80, 9, 9, 1), kernels[0], kernels[1])

    def test_counterexample3(self):
        m_val, specs = enumerate_mac(Mat2(27, 11, 5, 2))
        assert m_val == 5
        assert all(s.multiplicity == 5 for s in specs)

    def test_bac_case_agrees(self):
        for m in (FIB, companion(3, 1), Mat2(3, 5, 1, 2)):
            m_val, specs = enumerate_mac(m)
            assert m_val == 1
            bacs = enumerate_bac(m, (-6, 6))
            bac_points = {(s.point.p, s.point.q) for s in bacs}
            assert len(specs) == 1
            assert (specs[0].point.p, specs[0].point.q) in bac_points


class TestPhiEval:
    def test_zero_word(self):
        pt = phi_eval(fib_bac(), zero_word(1, -1))
        assert pt.x.is_zero and pt.y.is_zero

    def test_u0_is_spec_point(self):
        spec = fib_bac()
        pt = phi_eval(spec, u_word(0, 1, -1))
        assert pt.x == spec.point.xi.frac() and pt.y == spec.point.eta.frac()

    def test_shift_equivariance(self):
        rng = random.Random(44)
        for m in (FIB, companion(3, 1), companion(4, 1)):
            r, sigma = m.trace, m.det
            spec = make_spec(m, -r, -1)
            for _ in range(40):
                w = random_word(rng, r, sigma)
                shifted = make_word(w.kind, w.r, w.offset - 1, w.core)  # index shift
                lhs = phi_eval(spec, shifted)
                rhs_x = (m.a * phi_eval(spec, w).x + m.b * phi_eval(spec, w).y).frac()
                rhs_y = (m.c * phi_eval(spec, w).x + m.d * phi_eval(spec, w).y).frac()
                assert (lhs.x, lhs.y) == (rhs_x, rhs_y)

    def test_additivity(self):
        rng = random.Random(45)
        spec = fib_bac()
        for _ in range(100):
            w1, w2 = random_word(rng, 1, -1), random_word(rng, 1, -1)
            s = word_add(w1, w2)
            lhs = phi_eval(spec, s)
            p1, p2 = phi_eval(spec, w1), phi_eval(spec, w2)
            assert lhs.x == (p1.x + p2.x).frac() and lhs.y == (p1.y + p2.y).frac()

    def test_u_minus_one_is_image_of_point(self):
        spec = fib_bac()
        w = u_word(-1, 1, -1)
        pt = phi_eval(spec, w)
        tx = (FIB.a * spec.point.xi + FIB.b * spec.point.eta).frac()
        ty = (FIB.c * spec.point.xi + FIB.d * spec.point.eta).frac()
        assert (pt.x, pt.y) == (tx, ty)


class TestFundamentalDomain:
    def test_bac_area_one(self):
        assert fundamental_domain(fib_bac()).area == 1

    def test_expansion_area_five(self):
        assert fundamental_domain(make_spec(FIB, 3, 1)).area == 5

    def test_pi_area_sqrt_d(self):
        for r, sigma in [(1, -1), (2, -1), (3, 1), (5, 1), (4, -1)]:
            D = r * r - 4 * sigma
            assert pi_polygon(r, sigma).area == QuadExt.sqrt_d(D)

    def test_non_companion_transport(self):
        spec = enumerate_bac(Mat2(3, 5, 1, 2), (0, 0))[0]
        assert fundamental_domain(spec).area == 1

    def test_expansion_map_multiplicity_d(self):
        for r, sigma in [(1, -1), (2, -1), (3, 1), (5, 1), (4, -1)]:
            spec = one_sided_expansion_spec(r, sigma)
            D = r * r - 4 * sigma
            assert spec.multiplicity == D
            assert fundamental_domain(spec).area == D


class TestDecode:
    def test_zero(self):
        assert decode(fib_bac(), TorusPoint.from_fractions(0, 0, 5), 20) == zero_word(1, -1)

    def test_spec_point(self):
        spec = fib_bac()
        assert decode(spec, spec.point.toral, 20) == u_word(0, 1, -1)

    def test_kernel_point_exact_at_window(self):
        spec = fib_bac()
        lam = spec.lam
        target = TorusPoint.from_fractions(Fraction(1, 5), Fraction(2, 5), 5)
        w = decode(spec, target, 40)
        img = phi_eval(spec, w)
        bound = lam ** (-38)
        assert torus_norm(img.x - target.x) <= bound
        assert torus_norm(img.y - target.y) <= bound

    def test_round_trip_random(self):
        rng = random.Random(46)
        for spec in (fib_bac(), enumerate_bac(companion(3, 1), (0, 0))[0], enumerate_bac(Mat2(3, 5, 1, 2), (0, 0))[0]):
            lam = spec.lam
            D = spec.point.xi.D
            bound = lam ** (-30)
            for _ in range(15):
                t = TorusPoint.from_fractions(Fraction(rng.randrange(64), 64), Fraction(rng.randrange(64), 64), D)
                w = decode(spec, t, 32)
                img = phi_eval(spec, w)
                assert torus_norm(img.x - t.x) <= bound
                assert torus_norm(img.y - t.y) <= bound

    @staticmethod
    def _errors(spec, target, window):
        """Signed error of the decoded word's image in the matrix's own
        coordinates and in companion coordinates, plus the conjugator."""

        def centered(x):
            f = x.frac()
            return f if f <= Fraction(1, 2) else f - 1

        img = phi_eval(spec, decode(spec, target, window))
        ex, ey = centered(img.x - target.x), centered(img.y - target.y)
        b = conjugator_to_companion(spec.matrix)
        return (ex, ey), (b.a * ex + b.b * ey, b.c * ex + b.d * ey), b

    def test_window_bound_in_matrix_coordinates(self):
        # the window bound holds in companion coordinates; here B^-1 has
        # row sums 2 and 5, and y misses the plain bound by a factor 1.37
        spec = make_spec(Mat2(32, 11, -61, -21), 19, 10)
        target = TorusPoint.from_fractions(Fraction(12, 13), Fraction(1, 33), spec.lam.D)
        (ex, ey), (cx, cy), b = self._errors(spec, target, 303)
        b_inv = b.inverse_unimodular()
        assert b_inv == Mat2(1, -1, -2, 3)
        unit = spec.lam ** (2 - 303)
        assert abs(cx) <= unit and abs(cy) <= unit
        assert abs(ex) <= (abs(b_inv.a) + abs(b_inv.b)) * unit
        assert abs(ey) <= (abs(b_inv.c) + abs(b_inv.d)) * unit
        assert abs(ey) > unit

    def test_window_bound_on_conjugates(self):
        rng = random.Random(57)
        checked = 0
        while checked < 12:
            specs = enumerate_bac(random_hyperbolic(rng), (0, 0))
            if not specs:
                continue
            spec = specs[0]
            window = rng.randrange(8, 40)
            target = TorusPoint.from_fractions(Fraction(rng.randrange(97), 97), Fraction(rng.randrange(89), 89), spec.lam.D)
            (ex, ey), (cx, cy), b = self._errors(spec, target, window)
            b_inv = b.inverse_unimodular()
            unit = spec.lam ** (2 - window)
            assert abs(cx) <= unit and abs(cy) <= unit
            assert abs(ex) <= (abs(b_inv.a) + abs(b_inv.b)) * unit
            assert abs(ey) <= (abs(b_inv.c) + abs(b_inv.d)) * unit
            checked += 1

    def test_decode_rejects_non_bijective(self):
        with pytest.raises(ValueError):
            decode(make_spec(FIB, 3, 1), TorusPoint.from_fractions(0, 0, 5), 10)


class TestKernelOfCoding:
    def test_fibonacci_kernel(self):
        spec, bac = make_spec(FIB, 3, 1), fib_bac()
        ker = kernel_of_coding(spec, bac)
        want = {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 5), Fraction(2, 5)),
            (Fraction(3, 5), Fraction(1, 5)),
            (Fraction(4, 5), Fraction(3, 5)),
            (Fraction(2, 5), Fraction(4, 5)),
        }
        assert set(ker.elements) == want

    def test_comparison_matrix(self):
        # xi ratio sqrt(5) = 2*lam - 1 gives A = 2M - I
        spec, bac = make_spec(FIB, 3, 1), fib_bac()
        u = spec.point.xi / bac.point.xi
        assert as_integer_combination(u, 1) == (-1, 2)

    def test_matrix_cycles_kernel(self):
        cycle = [
            (Fraction(1, 5), Fraction(2, 5)),
            (Fraction(3, 5), Fraction(1, 5)),
            (Fraction(4, 5), Fraction(3, 5)),
            (Fraction(2, 5), Fraction(4, 5)),
        ]
        for i, (x, y) in enumerate(cycle):
            nx, ny = (FIB.a * x + FIB.b * y) % 1, (FIB.c * x + FIB.d * y) % 1
            assert (nx, ny) == cycle[(i + 1) % 4]

    def test_trivial_for_same_spec(self):
        bac = fib_bac()
        assert kernel_of_coding(bac, bac).order == 1


class TestPisot:
    def test_members(self):
        sq5 = QuadExt.sqrt_d(5)
        lam = dominant_eigenvalue(1, -1)
        assert pisot_member(1 / sq5)
        assert pisot_member(lam / sq5)
        assert not pisot_member(1 / (2 * sq5))

    def test_decay_sequence(self):
        sq5 = QuadExt.sqrt_d(5)
        x = 1 / sq5
        lam = dominant_eigenvalue(1, -1)
        seq = homoclinic_decay_check(x, 30, 1, -1)
        thr = decay_threshold(x, 1, -1)
        lam_bar = abs(lam.conj())
        for n in range(thr, 31):
            assert seq[n] == abs(x.conj()) * lam_bar ** n

    def test_shifted_member(self):
        sq5 = QuadExt.sqrt_d(5)
        lam = dominant_eigenvalue(1, -1)
        x = lam ** 3 / sq5
        base = homoclinic_decay_check(1 / sq5, 20, 1, -1)
        shifted = homoclinic_decay_check(x, 17, 1, -1)
        assert shifted == base[3:21]

    def test_zero(self):
        z = QuadExt.zero(5)
        assert all(d.is_zero for d in homoclinic_decay_check(z, 10, 1, -1))

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            homoclinic_decay_check(QuadExt(1, 0, 3, 5), 10, 1, -1)


class TestTailWordImages:
    """The image of a tail-tagged word is its effective value times the point:
    validated against exact partial sums of the defining series."""

    def _partial_point(self, spec, w, n):
        lam = spec.lam
        s = QuadExt.zero(lam.D)
        for i in range(-n, n + 1):
            d = w.digit(i)
            if d:
                s = s + d * lam ** (-i)
        return (s * spec.point.xi).frac(), (s * spec.point.eta).frac()

    def test_partial_sums_converge_to_phi(self):
        cases = [
            (FIB, make_word("markov", 1, 0, (0, 1), left_tail="alt_r0", check=False)),
            (FIB, make_word("markov", 1, 2, (), left_tail="alt_r0", right_tail="alt_r0")),
            (companion(2, -1), make_word("markov", 2, -1, (1, 0, 2), left_tail="alt_r0")),
            (companion(3, 1), make_word("sofic", 3, 1, (), left_tail="const_r2")),
            (companion(5, 1), make_word("sofic", 5, -2, (2, 0, 4), left_tail="const_r2", right_tail="const_r2")),
        ]
        for m, w in cases:
            r, sigma = m.trace, m.det
            spec = make_spec(m, -r, -1)
            target = phi_eval(spec, w)
            lam = spec.lam
            for n in (8, 16, 24):
                px, py = self._partial_point(spec, w, n)
                bound = lam ** (-(n - 6))
                assert torus_norm(px - target.x) <= bound
                assert torus_norm(py - target.y) <= bound

    def test_phi_respects_identifications(self):
        from torcode.betasym import canonicalize_identified, is_admissible

        spec = fib_bac()
        for k in (0, 1):
            for offset in (-1, 0, 2):
                w = make_word("markov", 1, offset, (k,) if k else (), right_tail="alt_r0", check=False)
                if not is_admissible(w):
                    continue
                pt, cpt = phi_eval(spec, w), phi_eval(spec, canonicalize_identified(w))
                assert (pt.x, pt.y) == (cpt.x, cpt.y)


class TestHomoclinicClassImage:
    def test_equal_words(self):
        bac = fib_bac()
        w = u_word(0, 1, -1)
        assert homoclinic_class_image_check(bac, w, w)

    def test_adic_related(self):
        from torcode.betasym import adic_step

        bac = fib_bac()
        w = u_word(0, 1, -1)
        assert homoclinic_class_image_check(bac, adic_step(w, 2), w)

    def test_random_pairs(self):
        rng = random.Random(47)
        bac = fib_bac()
        for _ in range(200):
            w1, w2 = random_word(rng, 1, -1), random_word(rng, 1, -1)
            assert homoclinic_class_image_check(bac, w1, w2)


class TestChecksUnderOptimize:
    def test_checks_hold_under_optimize(self):
        # the coding layer's cross-checks are explicit raises, not asserts stripped by -O
        code = textwrap.dedent(
            """
            import dataclasses
            from torcode import coding
            from torcode.glz import Mat2
            from torcode.qfield import QuadExt, dominant_eigenvalue

            def refused(label, call):
                try:
                    call()
                except RuntimeError:
                    print(label, "refused")

            m = Mat2(1, 1, 1, 0)
            lam = dominant_eigenvalue(1, -1)
            print(__debug__, coding.make_spec(m, -1, -1).multiplicity)
            three = QuadExt(3, 0, 1, 5)  # outside the ranges the extractions are fed
            refused("future", lambda: coding._extract_future(three, 1, lam, 4))
            refused("past", lambda: coding._extract_past_plus(three, 3, dominant_eigenvalue(3, 1), 4))
            real_form = coding.associated_form
            coding.associated_form = lambda mat: real_form(mat).scale(2)
            refused("area", lambda: coding.make_spec(m, -1, -1))
            coding.associated_form = real_form
            bac, spec, m80 = coding.enumerate_bac(m, (0, 0))[0], coding.make_spec(m, 3, 1), Mat2(80, 9, 9, 1)
            print(coding.kernel_of_coding(spec, bac).order, coding.enumerate_mac(m80)[0])
            real_kernel = coding.kernel_group
            coding.kernel_group = lambda mat: real_kernel(Mat2(2, 0, 0, 1))
            refused("kernel order", lambda: coding.kernel_of_coding(spec, bac))
            coding.kernel_group = real_kernel
            moved = dataclasses.replace(spec, point=dataclasses.replace(spec.point, eta=spec.point.eta + 1))
            refused("eta", lambda: coding.kernel_of_coding(moved, bac))
            real_spec = coding.make_spec
            coding.make_spec = lambda mat, p, q: dataclasses.replace(real_spec(mat, p, q), multiplicity=0)
            refused("mac multiplicity", lambda: coding.enumerate_mac(m80))
            coding.make_spec = real_spec
            Mat2.apply = lambda self, x, y: (0, 0)
            refused("eigenline", lambda: coding.homoclinic_point(m, -1, -1))
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False 1",
            "future refused",
            "past refused",
            "area refused",
            "5 9",
            "kernel order refused",
            "eta refused",
            "mac multiplicity refused",
            "eigenline refused",
        ]

"""GL(2,Z) layer: hyperbolicity, conjugacy with witnesses, primitivity,
companion matrices, orbit spans, and kernel groups on the torus."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional

from .binforms import associated_form, base_solutions_pm, improperly_equivalent_to_negative, integral_minimum, properly_equivalent, represent
from .intmat import Mat2, lattice_span_index, smith_normal_form
from .qfield import QuadExt, dominant_eigenvalue, hyperbolic_params_ok, pell_fundamental_unit, unit_exponent


def require_unimodular(m: Mat2) -> None:
    if not m.is_unimodular():
        raise ValueError(f"matrix {m} has determinant {m.det}, expected +-1")


def is_hyperbolic(m: Mat2) -> bool:
    require_unimodular(m)
    return hyperbolic_params_ok(m.trace, m.det)


def require_hyperbolic(m: Mat2) -> tuple[int, int, int]:
    """Return (r, sigma, D) or raise for a non-hyperbolic matrix."""
    if not is_hyperbolic(m):
        raise ValueError(f"matrix {m} is not hyperbolic")
    r, sigma = m.trace, m.det
    return r, sigma, r * r - 4 * sigma


def normalize_trace(m: Mat2) -> tuple[Mat2, bool]:
    """Flip the sign of a negative-trace hyperbolic matrix; report the flip."""
    require_hyperbolic(m)
    if m.trace < 0:
        return -m, True
    return m, False


def companion(r: int, sigma: int) -> Mat2:
    """The companion matrix [[r, 1], [-sigma, 0]] of x^2 - r*x + sigma."""
    if not hyperbolic_params_ok(r, sigma):
        raise ValueError(f"(r={r}, sigma={sigma}) is not hyperbolic")
    return Mat2(r, 1, -sigma, 0)


def conjugator_to_companion(m: Mat2) -> Optional[Mat2]:
    """B with B*M*B^{-1} = companion, from a unit value of the associated form.

    Returns None exactly when the associated form represents neither +1
    nor -1.  The witness row (x, y) is the canonical base solution and
    (z, t) = -det(M) * (x, y) * M^{-1}.
    """
    r, sigma, _ = require_hyperbolic(m)
    if r < 0:
        raise ValueError("normalize the trace first")
    if m == companion(r, sigma):
        return Mat2.identity()
    f = associated_form(m)
    for target in (1, -1):
        sols = represent(f, target)
        if not sols:
            continue
        x, y = sols[0]
        z, t = m.inverse_unimodular().row_apply(x, y)
        z, t = -sigma * z, -sigma * t
        b = Mat2(x, y, z, t)
        assert b.det == target
        c = companion(r, sigma)
        assert b * m == c * b
        return b
    return None


def is_conjugate(m1: Mat2, m2: Mat2) -> Optional[Mat2]:
    """A unimodular B with B*M1*B^{-1} = M2, or None.

    Decided through the associated forms: proper equivalence, or equivalence
    with -f2 through a determinant -1 change of variables.
    """
    require_hyperbolic(m1)
    require_hyperbolic(m2)
    if m1.trace != m2.trace or m1.det != m2.det:
        return None
    f1, f2 = associated_form(m1), associated_form(m2)
    t = properly_equivalent(f1, f2)
    if t is not None:
        b = t.transpose()
        if b * m1 == m2 * b:
            return b
        raise RuntimeError(f"proper equivalence witness failed to conjugate {m1} to {m2}")
    w = improperly_equivalent_to_negative(f1, f2)
    if w is not None:
        b = w.transpose()
        if b * m1 == m2 * b:
            return b
        raise RuntimeError(f"improper equivalence witness failed to conjugate {m1} to {m2}")
    return None


def is_primitive(m: Mat2) -> tuple[bool, Optional[tuple[Mat2, int]]]:
    """Whether no K in GL(2,Z) satisfies K^n = M with n >= 2.

    When non-primitive, returns a root K and the largest exponent n with
    K^n = M.  Every root commutes with M, so K = alpha*I + beta*M with
    eigenvalue a unit of M's commutant: the order of discriminant D/g^2,
    g the content of the associated form.  With eps the fundamental unit
    of that order, lam = eps^k, the roots are +-(the matrix of eps)^(k/n),
    and M is primitive exactly when k = 1.
    """
    r, sigma, D = require_hyperbolic(m)
    if r < 0:
        raise ValueError("normalize the trace first")
    lam = dominant_eigenvalue(r, sigma)
    g = associated_form(m).content
    u = pell_fundamental_unit(D // (g * g))
    eps = QuadExt(u.p * g, u.q, u.s * g, D)  # (x + y*sqrt(D/g^2))/s over sqrt(D)
    k = unit_exponent(eps, lam)
    if k == 1:
        return (True, None)
    beta = ((eps - eps.conj()) / QuadExt.sqrt_d(D)).as_fraction()
    alpha = (eps - beta * lam).as_fraction()
    entries = [alpha + beta * m.a, beta * m.b, beta * m.c, alpha + beta * m.d]
    if any(e.denominator != 1 for e in entries):
        raise RuntimeError(f"commutant unit {eps} of {m} gives a non-integral root")
    root = Mat2(*(int(e) for e in entries))
    if not root.is_unimodular() or root ** k != m:
        raise RuntimeError(f"root {root} does not give {m} at exponent {k}")
    return (False, (root, k))


def orbit_span_full(m: Mat2, x: int, y: int) -> bool:
    """Whether the lattice spanned by the M-orbit of (x, y) is all of Z^2."""
    require_hyperbolic(m)
    if (x, y) == (0, 0):
        raise ValueError("(x, y) must be nonzero")
    f = associated_form(m)
    return abs(f(y, -x)) == 1


def orbit_span_full_lattice(m: Mat2, x: int, y: int, n_range: int = 3) -> bool:
    """Oracle: explicitly span {M^n (x,y) : |n| <= n_range} and test the index."""
    require_hyperbolic(m)
    if (x, y) == (0, 0):
        raise ValueError("(x, y) must be nonzero")
    vecs = [(m ** n).apply(x, y) for n in range(-n_range, n_range + 1)]
    return lattice_span_index(vecs) == 1


@dataclass(frozen=True)
class OrbitCoverBound:
    """Lower bound on the number of orbit spans needed to cover Z^2."""

    bound: int
    note: Optional[str]


def min_orbit_cover_bound(m: Mat2) -> OrbitCoverBound:
    """integral minimum of the associated form, with a sharper single-orbit note."""
    require_hyperbolic(m)
    mm, _ = normalize_trace(m)
    f = associated_form(mm)
    bound = integral_minimum(f)
    note = None
    if bound >= 2:
        primitive, root = is_primitive(mm)
        step = mm if primitive else root[0]
        orbits = base_solutions_pm(f, bound, step=step)
        if len(orbits) == 1:
            note = (
                f"all minimal solutions lie in a single orbit; at least {bound + 1} "
                "orbit spans are required to cover the lattice"
            )
    return OrbitCoverBound(bound=bound, note=note)


@dataclass(frozen=True)
class KernelGroup:
    """Finite kernel of a torus endomorphism given by an integer matrix.

    Every element is (x, y)/denominator with integers 0 <= x, y < denominator;
    ``points`` holds those numerator pairs in sorted order, or None when the
    kernel is too large to enumerate.
    """

    order: int
    generators: tuple[tuple[Fraction, Fraction], ...]
    denominator: int
    points: Optional[tuple[tuple[int, int], ...]]

    @cached_property
    def elements(self) -> Optional[tuple[tuple[Fraction, Fraction], ...]]:
        """The elements as sorted pairs of fractions in [0, 1)."""
        if self.points is None:
            return None
        frac = [Fraction(x, self.denominator) for x in range(self.denominator)]
        return tuple((frac[x], frac[y]) for x, y in self.points)

    def element_set(self) -> frozenset[tuple[Fraction, Fraction]]:
        if self.elements is None:
            raise ValueError("kernel too large to enumerate")
        return frozenset(self.elements)

    def as_strings(self) -> list[str]:
        """Each element as "x,y" with both coordinates in lowest terms."""
        if self.points is None:
            raise ValueError("kernel too large to enumerate")
        s = self.denominator
        label = ["0"] + [f"{x // g}/{s // g}" for x in range(1, s) for g in (gcd(x, s),)]
        return [f"{label[x]},{label[y]}" for x, y in self.points]


_ENUMERATION_LIMIT = 10**4


def kernel_group(b: Mat2) -> KernelGroup:
    """Kernel of the induced torus endomorphism, as B^{-1}Z^2 / Z^2.

    With U*B*V = diag(s1, s2) the Smith form and k = s2/s1, the kernel is
    V*diag(1/s1, 1/s2)*Z^2 mod Z^2, so every element is (x, y)/s2 with the
    integer pair ((k*v.a*i + v.b*j) mod s2, (k*v.c*i + v.d*j) mod s2) for
    0 <= i < s1 and 0 <= j < s2.  Kernels of order up to the enumeration
    limit are enumerated, checked and sorted in these integers; sorting the
    pairs sorts the fractions.  Three checks raise RuntimeError: the order
    s1*s2 equals |det B|, the pairs are exactly that many distinct points,
    and B*(x, y) = 0 mod s2 for every one of them.
    """
    det = b.det
    if det == 0:
        raise ValueError(f"matrix {b} is singular")
    s, _, v = smith_normal_form(b)
    s1, s2 = s.a, s.d
    order = s1 * s2
    if order != abs(det):
        raise RuntimeError(f"Smith form diag({s1}, {s2}) of {b} has order {order}, not |det| = {abs(det)}")
    gens = []
    for col, si in (((v.a, v.c), s1), ((v.b, v.d), s2)):
        if si > 1:
            gens.append((Fraction(col[0], si) % 1, Fraction(col[1], si) % 1))
    points = None
    if order <= _ENUMERATION_LIMIT:
        k = s2 // s1
        pts = {((k * v.a * i + v.b * j) % s2, (k * v.c * i + v.d * j) % s2) for i in range(s1) for j in range(s2)}
        if len(pts) != order:
            raise RuntimeError(f"kernel of {b} enumerated {len(pts)} distinct points, expected {order}")
        if any((b.a * x + b.b * y) % s2 or (b.c * x + b.d * y) % s2 for x, y in pts):
            raise RuntimeError(f"an enumerated point of the kernel of {b} is not annihilated by it")
        points = tuple(sorted(pts))
    return KernelGroup(order=order, generators=tuple(gens), denominator=s2, points=points)


def kernel_isomorphic_under_matrix(m: Mat2, k1: KernelGroup, k2: KernelGroup, bound: int = 12) -> bool:
    """Whether some +-M^n maps the first kernel onto the second, elementwise mod Z^2."""
    require_unimodular(m)
    if k1.order != k2.order:
        return False
    e1, e2 = k1.element_set(), k2.element_set()
    for n in range(-bound, bound + 1):
        a = m ** n
        image = {(Fraction(a.a * x + a.b * y) % 1, Fraction(a.c * x + a.d * y) % 1) for x, y in e1}
        if image == e2:
            return True
        if {((-x) % 1, (-y) % 1) for x, y in image} == e2:
            return True
    return False

"""Arithmetic codings of hyperbolic torus automorphisms.

Homoclinic points and their integer parametrization, the coding map and its
multiplicity, enumeration of bijective and minimal codings through the unit
group, fundamental domains with exact areas, decoding of torus points into
admissible words, coding kernels, and the Pisot group membership test.

Parameter convention: a coding is selected by an integer pair (p, q); the
number of preimages is exactly |f(p, q)| where f is the form associated with
the matrix.  The planar coordinates of the selected homoclinic point are
xi = (-q + n*lam)/sqrt(D), eta = (p + k*lam)/sqrt(D) with
(n, k) = -det(M) * M * (-q, p)^T.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .betasym import (
    InadmissibleWordError,
    SymWord,
    compactum_for,
    eff_value,
    is_admissible,
    is_homoclinic_word,
    make_word,
    word_from_eff_value,
)
from .binforms import associated_form, base_solutions_pm, integral_minimum
from .glz import (
    KernelGroup,
    Mat2,
    companion,
    conjugator_to_companion,
    is_primitive,
    kernel_group,
    require_hyperbolic,
)
from .qfield import QuadExt, as_integer_combination, dominant_eigenvalue, order_generator


@dataclass(frozen=True)
class TorusPoint:
    """Point of the 2-torus with exact coordinates in [0, 1)."""

    x: QuadExt
    y: QuadExt

    def __post_init__(self) -> None:
        if not (0 <= self.x < 1 and 0 <= self.y < 1):
            raise ValueError("torus coordinates must lie in [0, 1)")

    @classmethod
    def from_fractions(cls, x, y, D: int) -> "TorusPoint":
        return cls(QuadExt.from_fraction(Fraction(x) % 1, D), QuadExt.from_fraction(Fraction(y) % 1, D))

    def to_dict(self) -> dict:
        return {"x": self.x.to_dict(), "y": self.y.to_dict()}

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class HomoclinicPoint:
    """Homoclinic point of a hyperbolic automorphism, with its parameters."""

    p: int
    q: int
    n: int
    k: int
    xi: QuadExt
    eta: QuadExt

    @property
    def toral(self) -> TorusPoint:
        return TorusPoint(self.xi.frac(), self.eta.frac())

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "n": self.n, "k": self.k, "xi": self.xi.to_dict(), "eta": self.eta.to_dict()}


def homoclinic_point(m: Mat2, p: int, q: int) -> HomoclinicPoint:
    """The homoclinic point selected by the integer pair (p, q)."""
    r, sigma, D = require_hyperbolic(m)
    if r < 0:
        raise ValueError("normalize the trace first")
    lam = dominant_eigenvalue(r, sigma)
    sq = QuadExt.sqrt_d(D)
    nv, kv = m.apply(-q, p)
    n, k = -sigma * nv, -sigma * kv
    xi = (QuadExt.from_fraction(-q, D) + n * lam) / sq
    eta = (QuadExt.from_fraction(p, D) + k * lam) / sq
    if m.a * xi + m.b * eta != lam * xi or m.c * xi + m.d * eta != lam * eta:
        raise RuntimeError(f"homoclinic point of {m} at ({p}, {q}) is off the unstable eigenline")
    return HomoclinicPoint(p=p, q=q, n=n, k=k, xi=xi, eta=eta)


@dataclass(frozen=True)
class CodingSpec:
    """One arithmetic coding: a matrix plus a homoclinic parameter pair."""

    matrix: Mat2
    point: HomoclinicPoint
    multiplicity: int

    @property
    def params(self) -> tuple[int, int, int]:
        return require_hyperbolic(self.matrix)

    @property
    def lam(self) -> QuadExt:
        r, sigma, _ = self.params
        return dominant_eigenvalue(r, sigma)

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_lists(),
            "p": self.point.p,
            "q": self.point.q,
            "K": self.multiplicity,
            "xi": self.point.xi.to_dict(),
            "eta": self.point.eta.to_dict(),
        }


def make_spec(m: Mat2, p: int, q: int) -> CodingSpec:
    """Build a coding spec; the multiplicity is |f(p, q)|, cross-checked
    against the exact determinant (area) formula."""
    if (p, q) == (0, 0):
        raise ValueError("the zero parameter selects the zero point, not a coding")
    point = homoclinic_point(m, p, q)
    f = associated_form(m)
    k = abs(f(p, q))
    _, _, D = require_hyperbolic(m)
    area = QuadExt.sqrt_d(D) * abs(point.xi.conj() * point.eta - point.xi * point.eta.conj())
    if area != k:
        raise RuntimeError(f"area {area} of the coding of {m} at ({p}, {q}) differs from |f(p, q)| = {k}")
    return CodingSpec(matrix=m, point=point, multiplicity=k)


# -- the coding map -----------------------------------------------------------


def phi_eval(spec: CodingSpec, w: SymWord) -> TorusPoint:
    """Exact evaluation of the coding series at w, modulo the integer lattice."""
    r, sigma, _ = spec.params
    comp = compactum_for(r, sigma)
    if (w.kind, w.r) != (comp.kind, comp.r):
        raise InadmissibleWordError(f"word of {w.kind}({w.r}) fed to a {comp.kind}({comp.r}) coding")
    if not is_admissible(w):
        raise InadmissibleWordError(f"word {w} is not admissible")
    return phi_eval_admissible(spec, w)


def phi_eval_admissible(spec: CodingSpec, w: SymWord) -> TorusPoint:
    """:func:`phi_eval` at a word of the coding's compactum that is already
    known to be admissible, such as the result of :func:`decode`."""
    v = eff_value(w)
    return TorusPoint((v * spec.point.xi).frac(), (v * spec.point.eta).frac())


# -- enumeration of codings ----------------------------------------------------


def _recover_params(m: Mat2, xi: QuadExt, eta: QuadExt) -> tuple[int, int]:
    """Invert the homoclinic parametrization for a point on the unstable line."""
    r, _, D = require_hyperbolic(m)
    sq = QuadExt.sqrt_d(D)
    cx = as_integer_combination(xi * sq, r)
    cy = as_integer_combination(eta * sq, r)
    if cx is None or cy is None:
        raise ValueError("point is not in the homoclinic lattice")
    q = -cx[0]
    p = cy[0]
    return p, q


def bac_family_info(m: Mat2):
    """(conjugator, generator, exceptional) for the family of bijective codings,
    or None when no bijective coding exists."""
    r, sigma, _ = require_hyperbolic(m)
    if r < 0:
        raise ValueError("normalize the trace first")
    b = conjugator_to_companion(m)
    if b is None:
        return None
    gen = order_generator(r, sigma)
    return b, gen, gen != dominant_eigenvalue(r, sigma)


def enumerate_bac(m: Mat2, k_range: tuple[int, int] = (-3, 3), info=None) -> list[CodingSpec]:
    """All bijective codings with parameter in the given power window.

    Empty exactly when the associated form represents neither +1 nor -1.
    The family is +-(generator^k) times a base point; the generator is the
    unit-group generator of the order (a square root of the eigenvalue in
    the exceptional discriminant-5 trace-3 case).  ``info`` is m's
    :func:`bac_family_info` when the caller already has it.
    """
    if info is None:
        info = bac_family_info(m)
    if info is None:
        return []
    b, gen, _ = info
    r, sigma, _ = require_hyperbolic(m)
    c = companion(r, sigma)
    base = homoclinic_point(c, -r, -1)  # planar xi = 1/sqrt(D)
    b_inv = b.inverse_unimodular()
    specs = []
    lo, hi = k_range
    for k in range(lo, hi + 1):
        for sign in (1, -1):
            xi_c = gen ** k * sign * base.xi
            eta_c = gen ** k * sign * base.eta
            xi = b_inv.a * xi_c + b_inv.b * eta_c
            eta = b_inv.c * xi_c + b_inv.d * eta_c
            p, q = _recover_params(m, xi, eta)
            spec = make_spec(m, p, q)
            assert spec.multiplicity == 1
            assert spec.point.xi == xi and spec.point.eta == eta
            specs.append(spec)
    return specs


def enumerate_mac(m: Mat2, primitivity=None) -> tuple[int, list[CodingSpec]]:
    """Minimal codings: (m, base specs), one spec per base-solution orbit.

    m is the integral minimum of the associated form; each returned spec has
    exactly m preimages.  Non-primitive matrices are walked with a root.
    ``primitivity`` is m's :func:`is_primitive` when the caller already has it.
    """
    r, sigma, _ = require_hyperbolic(m)
    if r < 0:
        raise ValueError("normalize the trace first")
    f = associated_form(m)
    mmin = integral_minimum(f)
    primitive, root = primitivity or is_primitive(m)
    step = m if primitive else root[0]
    bases = base_solutions_pm(f, mmin, step=step)
    specs = [make_spec(m, x, y) for (x, y) in bases]
    for s in specs:
        if s.multiplicity != mmin:
            raise RuntimeError(f"coding of {m} at ({s.point.p}, {s.point.q}) has multiplicity {s.multiplicity}, not {mmin}")
    return mmin, specs


def semiconjugacy_kernel(m: Mat2, p: int, q: int) -> KernelGroup:
    """Kernel of the endomorphism semiconjugating M to its companion matrix,
    built from a base solution row (p, q)."""
    _, sigma, _ = require_hyperbolic(m)
    z, t = m.inverse_unimodular().row_apply(p, q)
    b = Mat2(p, q, -sigma * z, -sigma * t)
    return kernel_group(b)


def kernel_of_coding(spec: CodingSpec, bac: CodingSpec) -> KernelGroup:
    """The finite subgroup collapsed by spec relative to a bijective coding.

    Solves spec point = (a*I + b*M) bac point exactly; the kernel of that
    integer matrix on the torus has order equal to the multiplicity.
    """
    if spec.matrix != bac.matrix:
        raise ValueError("codings belong to different matrices")
    if bac.multiplicity != 1:
        raise ValueError("reference coding must be bijective")
    r, _, _ = spec.params
    u = spec.point.xi / bac.point.xi
    combo = as_integer_combination(u, r)
    if combo is None:
        raise ValueError("spec point is not an integral multiple of the base point")
    a, b = combo
    mm = spec.matrix
    amat = Mat2(a + b * mm.a, b * mm.b, b * mm.c, a + b * mm.d)
    if u * bac.point.eta != spec.point.eta:
        raise RuntimeError(f"the multiplier {u} of xi does not carry the base point's eta to the coding's")
    ker = kernel_group(amat)
    if ker.order != spec.multiplicity:
        raise RuntimeError(f"kernel of {amat} has order {ker.order}, not the multiplicity {spec.multiplicity}")
    return ker


# -- fundamental domains --------------------------------------------------------


@dataclass(frozen=True)
class DomainPolygon:
    """Planar polygon with exact vertices and exact area."""

    vertices: tuple[tuple[QuadExt, QuadExt], ...]
    area: QuadExt

    def to_dict(self) -> dict:
        return {
            "vertices": [[v[0].to_dict(), v[1].to_dict()] for v in self.vertices],
            "area": self.area.to_dict(),
        }


def _shoelace(vertices: Sequence[tuple[QuadExt, QuadExt]]) -> QuadExt:
    D = vertices[0][0].D
    total = QuadExt.zero(D)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total = total + (x1 * y2 - x2 * y1)
    return abs(total) / 2


def _pi_vertices(r: int, sigma: int) -> list[tuple[QuadExt, QuadExt]]:
    lam = dominant_eigenvalue(r, sigma)
    D = lam.D
    zero, one = QuadExt.zero(D), QuadExt.one(D)
    inv = one / lam
    if sigma == -1:
        return [
            (zero, -one),
            (one, -one),
            (one, lam - 1),
            (inv, lam - 1),
            (inv, lam),
            (zero, lam),
        ]
    return [
        (zero, zero),
        (one, zero),
        (one, lam - 1),
        (one - inv, lam - 1),
        (one - inv, lam),
        (zero, lam),
    ]


def pi_polygon(r: int, sigma: int) -> DomainPolygon:
    """The digit-space hexagon; its exact area is sqrt(D)."""
    verts = _pi_vertices(r, sigma)
    area = _shoelace(verts)
    assert area == QuadExt.sqrt_d(verts[0][0].D)
    return DomainPolygon(tuple(verts), area)


def _b_matrix(xi: QuadExt, r: int, sigma: int) -> tuple[QuadExt, QuadExt, QuadExt, QuadExt]:
    """Linear map from digit space to the plane for a companion-coordinate point."""
    lam = dominant_eigenvalue(r, sigma)
    xibar = xi.conj()
    if sigma == -1:
        return (xi, -xibar, xi / lam, lam * xibar)
    return (xi, -xibar, -(xi / lam), lam * xibar)


def _companion_xi(spec: CodingSpec) -> tuple[QuadExt, Mat2]:
    """Transport the spec point to companion coordinates; returns (xi, B)."""
    r, sigma, _ = spec.params
    c = companion(r, sigma)
    if spec.matrix == c:
        return spec.point.xi, Mat2.identity()
    b = conjugator_to_companion(spec.matrix)
    if b is None:
        raise ValueError("matrix is not conjugate to its companion matrix")
    xi = b.a * spec.point.xi + b.b * spec.point.eta
    eta = b.c * spec.point.xi + b.d * spec.point.eta
    lam = dominant_eigenvalue(r, sigma)
    assert eta == -sigma * xi / lam
    return xi, b


def fundamental_domain(spec: CodingSpec) -> DomainPolygon:
    """Exact fundamental-domain polygon of the coding, in companion coordinates.

    The shoelace area equals |D * N(xi)|, which equals the multiplicity.
    """
    r, sigma, D = spec.params
    xi, _ = _companion_xi(spec)
    b11, b12, b21, b22 = _b_matrix(xi, r, sigma)
    verts = []
    for u, v in _pi_vertices(r, sigma):
        verts.append((b11 * u + b12 * v, b21 * u + b22 * v))
    area = _shoelace(verts)
    expected = abs(Fraction(D) * xi.norm())
    assert area == QuadExt.from_fraction(expected, D)
    assert area == QuadExt.from_fraction(spec.multiplicity, D)
    return DomainPolygon(tuple(verts), area)


# -- decoding -------------------------------------------------------------------


def _ceil_q(x: QuadExt) -> int:
    return -((-x).floor())


def _digit_window(z: QuadExt, inv: QuadExt, r: int) -> list[int]:
    """Candidate digits e with -lam*(z - e) back in [-1, lam), ascending;
    inv is 1/lam."""
    lo_b = z - inv
    lo = lo_b.floor() if lo_b.frac().is_zero else lo_b.floor() + 1
    hi_b = z + 1
    hi = hi_b.floor()
    if hi_b.frac().is_zero:
        hi -= 1
    return [e for e in range(max(lo, 0), min(hi, r) + 1)]


def _extract_past_minus(z: QuadExt, r: int, lam: QuadExt, window: int, future_first: int) -> list[int]:
    """Digits at indices 0, -1, ..., -window for the alternating iteration
    z <- -lam*(z - e); prefers the smaller feasible digit and backtracks on
    admissibility failure."""
    digits: list[int] = []
    stack: list[tuple[QuadExt, list[int]]] = []
    cur = z
    inv = lam.inverse()
    guard = 0
    while len(digits) <= window:
        if cur.is_zero:
            break  # all remaining digits zero
        cands = _digit_window(cur, inv, r)
        right = digits[-1] if digits else future_first
        cands = [e for e in cands if not (e == r and right >= 1)]
        while not cands:
            guard += 1
            if guard > 64 * (window + 2) or not stack:
                raise RuntimeError("decoding backtrack exhausted")
            cur, cands = stack.pop()
            digits.pop()
        e = cands[0]
        stack.append((cur, cands[1:]))
        digits.append(e)
        cur = -lam * (cur - e)
    return digits


def _extract_past_plus(z: QuadExt, r: int, lam: QuadExt, window: int) -> list[int]:
    """Digits at indices 0, -1, ..., -window for z <- lam*(z - floor(z))."""
    digits: list[int] = []
    cur = z
    while len(digits) <= window:
        if cur.is_zero:
            break
        e = cur.floor()
        if not 0 <= e <= r - 1:
            raise RuntimeError(f"past digit {e} outside 0..{r - 1}")
        # a forbidden factor would force the scaled remainder past lam
        if e == r - 1:
            i = len(digits) - 1
            while i >= 0 and digits[i] == r - 2:
                i -= 1
            if i >= 0 and digits[i] == r - 1:
                raise RuntimeError("forbidden factor in past extraction")
        digits.append(e)
        cur = lam * (cur - e)
    return digits


def _extract_future(z: QuadExt, digit_max: int, lam: QuadExt, window: int) -> list[int]:
    """Greedy digits at indices 1..window for a value in [0, 1)."""
    digits: list[int] = []
    cur = z
    for _ in range(window):
        if cur.is_zero:
            break
        scaled = lam * cur
        d = scaled.floor()
        if not 0 <= d <= digit_max:
            raise RuntimeError(f"future digit {d} outside 0..{digit_max}")
        digits.append(d)
        cur = scaled - d
    return digits


def decode(spec: CodingSpec, target: TorusPoint, window: int = 32) -> SymWord:
    """Invert the coding map at an exact torus point (bijective codings only).

    Returns an admissible word supported on [-window, window]; when the full
    expansion terminates inside the window the word is exact.  Otherwise the
    evaluation of the truncation differs from the target by less than
    lam^(2-window) in each companion coordinate, B*(x, y) for the conjugator
    B of :func:`conjugator_to_companion`.  In the matrix's own coordinates
    the bound on x (on y) is lam^(2-window) times the first (second) row sum
    of |B^-1|.
    """
    if spec.multiplicity != 1:
        raise ValueError("decoding needs a bijective coding")
    if window < 1:
        raise ValueError("window must be positive")
    r, sigma, D = spec.params
    lam = spec.lam
    comp = compactum_for(r, sigma)
    xi, b = _companion_xi(spec)
    tx = (b.a * target.x + b.b * target.y).frac()
    ty = (b.c * target.x + b.d * target.y).frac()

    b11, b12, b21, b22 = _b_matrix(xi, r, sigma)
    det = b11 * b22 - b12 * b21
    verts = [(b11 * u + b12 * v, b21 * u + b22 * v) for u, v in _pi_vertices(r, sigma)]
    minx = min(v[0] for v in verts)
    maxx = max(v[0] for v in verts)
    miny = min(v[1] for v in verts)
    maxy = max(v[1] for v in verts)

    one = QuadExt.one(D)
    inv = one / lam

    def membership(x1: QuadExt, x2: QuadExt) -> bool:
        if not (0 <= x1 < 1):
            return False
        if sigma == -1:
            if not (-1 <= x2 < lam):
                return False
            return not (x1 >= inv and x2 >= lam - 1)
        if not (0 <= x2 < lam):
            return False
        return not (x1 > 1 - inv and x2 > lam - 1)

    hits = []
    for k1 in range(_ceil_q(minx - tx), (maxx - tx).floor() + 1):
        for k2 in range(_ceil_q(miny - ty), (maxy - ty).floor() + 1):
            px, py = tx + k1, ty + k2
            x1 = (b22 * px - b12 * py) / det
            x2 = (-b21 * px + b11 * py) / det
            if membership(x1, x2):
                hits.append((k1, k2, x1, x2))
    if not hits:
        raise RuntimeError("no lattice translate of the target falls in the fundamental domain")
    hits.sort(key=lambda h: (h[0], h[1]))
    _, _, x1, x2 = hits[0]

    future = _extract_future(x1, comp.digit_max, lam, window)
    if sigma == -1:
        past = _extract_past_minus(x2, r, lam, window, future[0] if future else 0)
    else:
        past = _extract_past_plus(x2, r, lam, window)
    core = list(reversed(past)) + future
    offset = -(len(past) - 1) if past else 1
    word = make_word(comp.kind, r, offset, core)
    return word


# -- Pisot group and homoclinic checks -------------------------------------------


def torus_norm(x: QuadExt) -> QuadExt:
    """Exact distance from x to the nearest integer."""
    f = x.frac()
    g = 1 - f
    return f if f <= g else g


def pisot_member(x: QuadExt) -> bool:
    """Whether x belongs to the Pisot group (Z + lam*Z)/sqrt(D) of its field."""
    D = x.D
    if D % 4 not in (0, 1):
        raise ValueError("field discriminant must be 0 or 1 mod 4")
    r0 = D % 4
    return as_integer_combination(x * QuadExt.sqrt_d(D), r0) is not None


def decay_threshold(x: QuadExt, r: int, sigma: int) -> int:
    """Least n with |conj(x)| * |conj(lam)|^n <= 1/2."""
    lam = dominant_eigenvalue(r, sigma)
    bound = abs(x.conj())
    half = QuadExt.from_fraction(Fraction(1, 2), x.D)
    lam_bar = abs(lam.conj())
    n = 0
    while bound > half:
        bound = bound * lam_bar
        n += 1
        if n > 4096:
            raise RuntimeError("decay threshold out of range")
    return n


def homoclinic_decay_check(x: QuadExt, n_max: int, r: int, sigma: int) -> list[QuadExt]:
    """Exact distances ||x*lam^n|| for 0 <= n <= n_max, each verified against
    the conjugate-decay bound |conj(x)| * |conj(lam)|^n."""
    if not pisot_member(x):
        raise ValueError(f"{x} is not in the Pisot group")
    lam = dominant_eigenvalue(r, sigma)
    if lam.D != x.D:
        raise ValueError("value lives in a different field")
    out = []
    power = QuadExt.one(x.D)
    conj_bound = abs(x.conj())
    lam_bar = abs(lam.conj())
    for _ in range(n_max + 1):
        d = torus_norm(x * power)
        assert d <= conj_bound
        out.append(d)
        power = power * lam
        conj_bound = conj_bound * lam_bar
    return out


def homoclinic_class_image_check(bac: CodingSpec, w1: SymWord, w2: SymWord) -> bool:
    """Two words lie in one homoclinic class exactly when their images differ
    by a homoclinic torus point; both sides are computed independently."""
    if bac.multiplicity != 1:
        raise ValueError("reference coding must be bijective")
    r, sigma, _ = bac.params
    delta = eff_value(w1) - eff_value(w2)
    left = is_homoclinic_word(word_from_eff_value(delta, r, sigma))
    right = pisot_member(delta * bac.point.xi)
    return left == right


def one_sided_expansion_spec(r: int, sigma: int) -> CodingSpec:
    """The coding with planar point (-sigma, 1/lam): the naive two-sided
    digit expansion map for the companion matrix.  Its multiplicity is D."""
    c = companion(r, sigma)
    spec = make_spec(c, 2 - sigma * r * r, -sigma * r)
    lam = spec.lam
    assert spec.point.xi == QuadExt.from_fraction(-sigma, lam.D)
    assert spec.point.eta == 1 / lam
    return spec

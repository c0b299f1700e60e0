"""Indefinite integral binary quadratic forms.

Covers the form attached to a unimodular matrix, Gauss reduction cycles,
(proper) equivalence with witness transforms, representation of small
integers by the exact cycle method, automorphs, and integral minima.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

from .intmat import Mat2
from .qfield import QuadExt, dominant_eigenvalue, is_square


class UnsupportedRangeError(ValueError):
    """The target integer is too large for the exact cycle method."""


@dataclass(frozen=True)
class BinForm:
    """The form a*x^2 + b*x*y + c*y^2 with positive non-square discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        d = self.disc
        if d <= 0 or is_square(d):
            raise ValueError(f"form {self} must be indefinite with non-square discriminant, disc={d}")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __neg__(self) -> "BinForm":
        return BinForm(-self.a, -self.b, -self.c)

    def scale(self, k: int) -> "BinForm":
        return BinForm(k * self.a, k * self.b, k * self.c)

    def apply(self, t: Mat2) -> "BinForm":
        """The composed form f o t: (f o t)(x, y) = f(t11*x + t12*y, t21*x + t22*y)."""
        a = self(t.a, t.c)
        c = self(t.b, t.d)
        b = self(t.a + t.b, t.c + t.d) - a - c
        return BinForm(a, b, c)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "disc": self.disc}

    def __str__(self) -> str:
        return f"{self.a}x^2{self.b:+d}xy{self.c:+d}y^2"


def transform_to_dict(t: Mat2) -> dict:
    return {"m": t.to_lists(), "det": t.det}


def associated_form(m: Mat2) -> BinForm:
    """Form b*x^2 - (a-d)*x*y - c*y^2 attached to a hyperbolic unimodular matrix."""
    from .glz import require_hyperbolic  # local import to avoid a cycle

    require_hyperbolic(m)
    return BinForm(m.b, -(m.a - m.d), -m.c)


def theta_preimage(f: BinForm) -> tuple[Mat2, Mat2]:
    """The two unimodular matrices whose associated form is f.

    The first has positive trace; the second is -det(M) * M^{-1}.  The
    discriminant must be r^2 - 4*sigma for a hyperbolic pair (r, sigma);
    when both determinant signs are admissible (disc 5) the determinant
    -1 preimage is returned.
    """
    d = f.disc
    candidates = []
    for sigma in (-1, 1):
        rr = d + 4 * sigma
        if rr > 0 and is_square(rr):
            r = isqrt(rr)
            if sigma == 1 and r < 3:
                continue
            if sigma == -1 and r == 0:
                continue
            alpha, beta, gamma = f.a, f.b, f.c
            a1 = (r - beta) // 2
            m1 = Mat2(a1, alpha, -gamma, a1 + beta)
            m2 = Mat2(-m1.d, m1.b, m1.c, -m1.a)
            assert m1.det == sigma and associated_form(m1) == f
            assert associated_form(m2) == f
            candidates.append((r, sigma, (m1, m2)))
    if not candidates:
        raise ValueError(f"discriminant {d} is not r^2-4*sigma for a hyperbolic pair")
    # discriminant 5 admits both determinant signs; prefer the pair whose
    # companion form is f itself, falling back to determinant -1
    for r, sigma, pair in candidates:
        if f == BinForm(1, -r, sigma):
            return pair
    return candidates[0][2]


# -- Gauss reduction ---------------------------------------------------------


def is_reduced(f: BinForm) -> bool:
    """0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b, exactly."""
    d = f.disc
    b = f.b
    if b <= 0 or b * b >= d:
        return False
    ta = 2 * abs(f.a)
    if (ta + b) ** 2 <= d:
        return False
    if ta > b and (ta - b) ** 2 >= d:
        return False
    return True


def _rho(f: BinForm) -> tuple[BinForm, Mat2]:
    """Right-neighbor step: returns (f o T, T) with T = [[0,-1],[1,s]]."""
    d = f.disc
    sq = isqrt(d)
    c = f.c
    ac = abs(c)
    if c * c > d:
        # normalization window (-|c|, |c|]
        b1 = (-f.b) % (2 * ac)
        if b1 > ac:
            b1 -= 2 * ac
    else:
        # window (sqrt(d) - 2|c|, sqrt(d))
        b1 = 2 * ac * ((f.b + sq) // (2 * ac)) - f.b
    s, rem = divmod(b1 + f.b, 2 * c)
    assert rem == 0
    c1, rem = divmod(b1 * b1 - d, 4 * c)
    assert rem == 0
    t = Mat2(0, -1, 1, s)
    g = BinForm(c, b1, c1)
    assert f.apply(t) == g
    return g, t


def reduce_form(f: BinForm) -> tuple[BinForm, Mat2]:
    """Reduced representative g and transform T with g = f o T."""
    t = Mat2.identity()
    g = f
    for _ in range(10_000):
        if is_reduced(g):
            return g, t
        g, step = _rho(g)
        t = t * step
    raise RuntimeError(f"reduction of {f} did not terminate")


@dataclass(frozen=True)
class ReductionCycle:
    """The full period of reduced forms, with the step transform chain.

    transforms[i] maps forms[i] to forms[(i+1) % n]; the chain closes.
    """

    forms: tuple[BinForm, ...]
    transforms: tuple[Mat2, ...]

    def __len__(self) -> int:
        return len(self.forms)


def _cycle_with_maps(f: BinForm) -> list[tuple[BinForm, Mat2]]:
    """All reduced forms in f's cycle, each with T such that f o T = member."""
    g, t = reduce_form(f)
    out = [(g, t)]
    cur, cur_t = g, t
    for _ in range(100_000):
        nxt, step = _rho(cur)
        if nxt == g:
            return out
        cur, cur_t = nxt, cur_t * step
        out.append((cur, cur_t))
    raise RuntimeError(f"cycle of {f} did not close")


def cycle(f: BinForm) -> ReductionCycle:
    members = [g for g, _ in _cycle_with_maps(f)]
    n = len(members)
    steps = []
    for i, g in enumerate(members):
        nxt, step = _rho(g)
        assert nxt == members[(i + 1) % n]  # the chain closes
        steps.append(step)
    return ReductionCycle(tuple(members), tuple(steps))


def properly_equivalent(f1: BinForm, f2: BinForm) -> Optional[Mat2]:
    """A determinant +1 transform T with f2 = f1 o T, or None."""
    if f1.disc != f2.disc:
        return None
    if f1 == f2:
        return Mat2.identity()
    g2, s2 = reduce_form(f2)
    for g1, t1 in _cycle_with_maps(f1):
        if g1 == g2:
            w = t1 * s2.inverse_unimodular()
            assert w.det == 1 and f1.apply(w) == f2
            return w
    return None


def equivalent(f1: BinForm, f2: BinForm) -> Optional[Mat2]:
    """A determinant +-1 transform T with f2 = f1 o T, or None."""
    w = properly_equivalent(f1, f2)
    if w is not None:
        return w
    j = Mat2(1, 0, 0, -1)
    w = properly_equivalent(f1, f2.apply(j))
    if w is not None:
        out = w * j
        assert out.det == -1 and f1.apply(out) == f2
        return out
    return None


def improperly_equivalent_to_negative(f1: BinForm, f2: BinForm) -> Optional[Mat2]:
    """A determinant -1 transform W with f1 o W = -f2, or None."""
    j = Mat2(1, 0, 0, -1)
    w = properly_equivalent(f1, (-f2).apply(j))
    if w is None:
        return None
    out = w * j
    assert out.det == -1 and f1.apply(out) == -f2
    return out


# -- minima and representations ---------------------------------------------


def integral_minimum(f: BinForm) -> int:
    """min |f(x, y)| over nonzero integer pairs, via the reduction cycle."""
    return min(abs(g.a) for g, _ in _cycle_with_maps(f))


def integral_minimum_brute(f: BinForm, bound: int = 200) -> int:
    """Brute-force oracle for the integral minimum over |x|, |y| <= bound."""
    best = None
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y <= 0:
                continue
            v = abs(f(x, y))
            if v and (best is None or v < best):
                best = v
    if best is None:
        raise ValueError("no nonzero value found; bound too small")
    return best


def _norm_key(v: tuple[int, int]) -> tuple[int, int, int]:
    x, y = v
    return (abs(x) + abs(y), x, y)


def _sign_normalize(v: tuple[int, int]) -> tuple[int, int]:
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def orbit_canonical(v: tuple[int, int], step: Mat2) -> tuple[int, int]:
    """Canonical representative of {+-v * step^n} (row action).

    Walks in both directions to the minimum of |x|+|y| (the coordinate growth
    is eventually exponential both ways), probing past local plateaus, then
    breaks ties by sign normalization and lexicographic order.
    """
    inv = step.inverse_unimodular()
    seen = {v}
    candidates = [v]
    for gen in (step, inv):
        cur = v
        rising = 0
        best = _norm_key(_sign_normalize(v))[0]
        for _ in range(512):
            cur = gen.row_apply(*cur)
            candidates.append(cur)
            n = abs(cur[0]) + abs(cur[1])
            if n < best:
                best = n
                rising = 0
            else:
                rising += 1
                if rising >= 6:
                    break
    norm = [_sign_normalize(c) for c in candidates]
    return min(norm, key=_norm_key)


def _value_preserving_step(f: BinForm) -> Mat2:
    """Row-action generator of the value-preserving automorph group of f."""
    m = theta_preimage(f)[0]
    return m if m.det == 1 else m * m


def represent(f: BinForm, m: int) -> list[tuple[int, int]]:
    """Base solutions of f(x, y) = m, one per orbit of the automorph group.

    Exact cycle method; requires 4*m^2 < disc so that every represented value
    of this size appears as a leading coefficient along the cycle.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    disc = f.disc
    if 4 * m * m >= disc:
        raise UnsupportedRangeError(f"|m|={abs(m)} is too large for disc {disc} (need 4m^2 < disc)")
    step = _value_preserving_step(f)
    found: list[tuple[int, int]] = []
    g = 1
    while g * g <= abs(m):
        if m % (g * g) == 0:
            mp = m // (g * g)
            mod = 4 * abs(mp)
            for n in range(0, 2 * abs(mp)):
                if (n * n - disc) % mod != 0:
                    continue
                ell = (n * n - disc) // (4 * mp)
                h = BinForm(mp, n, ell)
                w = properly_equivalent(f, h)
                if w is not None:
                    found.append((g * w.a, g * w.c))
        g += 1
    canon = sorted({orbit_canonical(v, step) for v in found}, key=_norm_key)
    for x, y in canon:
        assert f(x, y) == m
    return canon


def base_solutions_pm(f: BinForm, m: int, step: Optional[Mat2] = None) -> list[tuple[int, int]]:
    """Base solutions of f(x, y) = +-m modulo the full group +-(M^T)^n.

    `step` overrides the walk matrix (used for non-primitive matrices, where
    the commutant is generated by a root of the matrix).
    """
    if step is None:
        step = theta_preimage(f)[0]
    sols = represent(f, m) + represent(f, -m)
    canon = sorted({orbit_canonical(v, step) for v in sols}, key=_norm_key)
    return canon


# -- automorphs ---------------------------------------------------------------


@dataclass(frozen=True)
class AutomorphGenerator:
    """Generator of the proper automorphs of a primitive form (mod +-1).

    `exceptional` marks the discriminant-5 class, whose automorph group is
    generated by a half power not synthesized here.
    """

    transform: Mat2
    exceptional: bool


def automorph_generator(f: BinForm) -> AutomorphGenerator:
    if f.content != 1:
        raise ValueError(f"form {f} is not primitive (content {f.content})")
    m = theta_preimage(f)[0]
    t = m.transpose() if m.det == 1 else m.transpose() * m.transpose()
    assert f.apply(t) == f and t.det == 1
    exceptional = f.disc == 5 and equivalent(f, BinForm(1, -3, 1)) is not None
    return AutomorphGenerator(transform=t, exceptional=exceptional)


def power_form_factor(r: int, sigma: int, n: int) -> int:
    """q_n with (form of M^n) = q_n * (form of M): exactly (lam^n - conj^n)/sqrt(D)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = dominant_eigenvalue(r, sigma)
    num = lam ** n - lam.conj() ** n
    q = num / QuadExt.sqrt_d(lam.D)
    val = q.as_fraction()
    assert val.denominator == 1
    qn = int(val)
    # cross-check against the companion matrix power, componentwise
    from .glz import companion

    c = companion(r, sigma)
    assert associated_form(c ** n) == associated_form(c).scale(qn)
    return qn


def cassels_exempt(f: BinForm) -> bool:
    """Whether f is equivalent to l*(x^2-x*y-y^2) or l*(x^2-2y^2)."""
    ell = f.content
    d = f.disc
    if d == 5 * ell * ell and equivalent(f, BinForm(ell, -ell, -ell)) is not None:
        return True
    if d == 8 * ell * ell and equivalent(f, BinForm(ell, 0, -2 * ell)) is not None:
        return True
    return False

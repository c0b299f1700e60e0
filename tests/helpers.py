"""Shared test utilities: random unimodular matrices and independent oracles."""
from __future__ import annotations

import decimal
import random
from fractions import Fraction

from torcode.intmat import Mat2, smith_normal_form
from torcode.glz import companion
from torcode.qfield import QuadExt, dominant_eigenvalue

HYPERBOLIC_PANEL = [(1, -1), (2, -1), (3, -1), (3, 1), (4, 1), (5, -1), (5, 1), (6, -1)]


def random_unimodular(rng: random.Random, steps: int = 4, height: int | None = None) -> Mat2:
    """Random product of elementary matrices (optionally capped entry height)."""
    while True:
        m = Mat2.identity()
        for _ in range(rng.randrange(1, steps + 1)):
            kind = rng.randrange(4)
            k = rng.randrange(-3, 4)
            if kind == 0:
                m = m * Mat2(1, k, 0, 1)
            elif kind == 1:
                m = m * Mat2(1, 0, k, 1)
            elif kind == 2:
                m = m * Mat2(0, 1, 1, 0)
            else:
                m = m * Mat2(1, 0, 0, -1)
        if height is None or max(abs(v) for v in (m.a, m.b, m.c, m.d)) <= height:
            return m


def random_hyperbolic(rng: random.Random, panel=None) -> Mat2:
    """Random positive-trace hyperbolic matrix: a conjugated companion matrix."""
    r, sigma = rng.choice(panel or HYPERBOLIC_PANEL)
    b = random_unimodular(rng)
    m = b * companion(r, sigma) * b.inverse_unimodular()
    return m if m.trace > 0 else -m


def decimal_value(x, prec: int = 60) -> decimal.Decimal:
    """High-precision decimal image of a QuadExt, an independent comparison route."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        root = decimal.Decimal(x.D).sqrt()
        return (decimal.Decimal(x.p) + decimal.Decimal(x.q) * root) / decimal.Decimal(x.s)


def brute_pell_minimal(D: int, bound: int = 10**5):
    """Independent minimal Pell solution search for x^2 - D y^2 = +-4."""
    from math import isqrt

    for y in range(1, bound):
        for rhs in (D * y * y - 4, D * y * y + 4):
            if rhs >= 0:
                x = isqrt(rhs)
                if x * x == rhs:
                    return x, y
    raise AssertionError(f"no Pell solution for {D}")


# -- word values by one power of lam per digit ---------------------------------
# A slow differential oracle for value, eff_value and normalize, which
# evaluate by Horner on integer pairs in Z[lam].


def power_sum(digits, offset: int, lam):
    """sum_i digits[i] * lam^(-(offset + i)), one fresh power per nonzero digit."""
    total = QuadExt.zero(lam.D)
    for i, d in enumerate(digits):
        if d:
            total = total + d * lam ** (-(offset + i))
    return total


def power_sum_value(w):
    """Series value of a word with a zero left tail; tails summed as geometric series."""
    lam = dominant_eigenvalue(w.r, w.sigma)
    j = w.offset + len(w.core)
    total = power_sum(w.core, w.offset, lam)
    if w.right_tail == "alt_r0":
        if w.kind != "markov":
            raise ValueError("no series value")
        # r*lam^-j * (1 + lam^-2 + ...) = r*lam^(2-j) / (lam^2 - 1)
        total = total + w.r * lam ** (2 - j) / (lam * lam - 1)
    elif w.right_tail == "const_r2":
        # (r-2)*lam^-j * (1 + lam^-1 + ...) = (r-2)*lam^(1-j) / (lam - 1)
        total = total + (w.r - 2) * lam ** (1 - j) / (lam - 1)
    return total


def power_sum_eff_value(w):
    """Effective value: the series value plus the left tail's effective term."""
    lam = dominant_eigenvalue(w.r, w.sigma)
    total = power_sum_value(w)
    if w.left_tail == "alt_r0":
        if w.kind != "markov":
            raise ValueError("no effective value")
        total = total - lam ** (1 - w.offset)
    elif w.left_tail == "const_r2":
        total = total - (lam - (w.r - 1)) * lam ** (1 - w.offset)
    return total


# -- kernels by Fraction arithmetic ---------------------------------------------
# A slow differential oracle for glz.kernel_group, which enumerates, checks and
# sorts integer pairs over the common denominator s2.


def fraction_kernel_elements(b: Mat2) -> tuple[tuple[Fraction, Fraction], ...]:
    """Sorted elements of B^{-1}Z^2 / Z^2 as Fraction pairs in [0, 1), each
    built as V*(i/s1, j/s2) mod 1 from the Smith form U*B*V = diag(s1, s2)."""
    s, _, v = smith_normal_form(b)
    s1, s2 = s.a, s.d
    elems = set()
    for i in range(s1):
        for j in range(s2):
            x = Fraction(v.a * i, s1) + Fraction(v.b * j, s2)
            y = Fraction(v.c * i, s1) + Fraction(v.d * j, s2)
            elems.add((x % 1, y % 1))
    assert len(elems) == abs(b.det)
    for x, y in elems:
        bx, by = b.apply(x, y)
        assert bx.denominator == 1 and by.denominator == 1
    return tuple(sorted(elems))

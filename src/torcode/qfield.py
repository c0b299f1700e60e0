"""Exact arithmetic in real quadratic fields Q(sqrt(D)) and their orders.

Elements are kept canonical as (p + q*sqrt(D))/s with gcd(p, q, s) = 1 and
s >= 1; D is a fixed positive non-square per element and never changes
silently.  Comparisons, floors and unit searches are decided by integer
arithmetic only, so every operation in the package stays exact.
"""
from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional


class FieldMismatchError(ValueError):
    """Two operands live in different quadratic fields."""


class SearchBoundExceeded(RuntimeError):
    """A bounded search (the trial division of squarefree_split) ran out."""


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _check_field(D: int) -> None:
    if D <= 0 or is_square(D):
        raise ValueError(f"D must be a positive non-square integer, got {D}")


def _floor_q_sqrt(q: int, D: int) -> int:
    # floor(q * sqrt(D)); q*q*D is never a perfect square for q != 0
    if q == 0:
        return 0
    root = isqrt(q * q * D)
    return root if q > 0 else -root - 1


def _lowest_terms(p: int, q: int, s: int) -> tuple[int, int, int]:
    # s > 0 and gcd(p, q, s) = 1
    if s < 0:
        p, q, s = -p, -q, -s
    g = gcd(p, q, s)
    if g > 1:
        p, q, s = p // g, q // g, s // g
    return p, q, s


@dataclass(frozen=True)
class QuadExt:
    """Element (p + q*sqrt(D))/s of the real quadratic field Q(sqrt(D))."""

    p: int
    q: int
    s: int
    D: int

    def __post_init__(self) -> None:
        _check_field(self.D)
        if self.s == 0:
            raise ValueError("denominator s must be nonzero")
        p, q, s = _lowest_terms(self.p, self.q, self.s)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)

    @classmethod
    def _make(cls, p: int, q: int, s: int, D: int) -> "QuadExt":
        """Trusted constructor for arithmetic results: D was validated when
        the operands were built and s != 0, so only the sign and the common
        factor are normalised."""
        p, q, s = _lowest_terms(p, q, s)
        x = object.__new__(cls)
        object.__setattr__(x, "p", p)
        object.__setattr__(x, "q", q)
        object.__setattr__(x, "s", s)
        object.__setattr__(x, "D", D)
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, D: int) -> "QuadExt":
        return cls(0, 0, 1, D)

    @classmethod
    def one(cls, D: int) -> "QuadExt":
        return cls(1, 0, 1, D)

    @classmethod
    def sqrt_d(cls, D: int) -> "QuadExt":
        return cls(0, 1, 1, D)

    @classmethod
    def from_fraction(cls, value, D: int) -> "QuadExt":
        fr = Fraction(value)
        return cls(fr.numerator, 0, fr.denominator, D)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.D != self.D:
                raise FieldMismatchError(f"sqrt({self.D}) vs sqrt({other.D})")
            return other
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            return QuadExt._make(fr.numerator, 0, fr.denominator, self.D)
        raise TypeError(f"cannot combine QuadExt with {type(other).__name__}")

    def __add__(self, other) -> "QuadExt":
        if isinstance(other, int):
            return QuadExt._make(self.p + other * self.s, self.q, self.s, self.D)
        o = self._coerce(other)
        return QuadExt._make(self.p * o.s + o.p * self.s, self.q * o.s + o.q * self.s, self.s * o.s, self.D)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadExt":
        if isinstance(other, int):
            return QuadExt._make(self.p - other * self.s, self.q, self.s, self.D)
        o = self._coerce(other)
        return QuadExt._make(self.p * o.s - o.p * self.s, self.q * o.s - o.q * self.s, self.s * o.s, self.D)

    def __rsub__(self, other) -> "QuadExt":
        return -(self - other)

    def __neg__(self) -> "QuadExt":
        return QuadExt._make(-self.p, -self.q, self.s, self.D)

    def __mul__(self, other) -> "QuadExt":
        if isinstance(other, int):
            return QuadExt._make(self.p * other, self.q * other, self.s, self.D)
        o = self._coerce(other)
        p = self.p * o.p + self.q * o.q * self.D
        q = self.p * o.q + self.q * o.p
        return QuadExt._make(p, q, self.s * o.s, self.D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if self.is_zero:
            raise ZeroDivisionError("division by zero QuadExt")
        # 1/x = s * (p - q*sqrt(D)) / (p^2 - q^2 D)
        denom = self.p * self.p - self.q * self.q * self.D
        return QuadExt._make(self.s * self.p, -self.s * self.q, denom, self.D)

    def __truediv__(self, other) -> "QuadExt":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "QuadExt":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = QuadExt._make(1, 0, 1, self.D)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExt):
            return (self.p, self.q, self.s, self.D) == (other.p, other.q, other.s, other.D)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and Fraction(self.p, self.s) == Fraction(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(Fraction(self.p, self.s))
        return hash((self.p, self.q, self.s, self.D))

    def conj(self) -> "QuadExt":
        """Galois conjugate: sqrt(D) -> -sqrt(D)."""
        return QuadExt._make(self.p, -self.q, self.s, self.D)

    def norm(self) -> Fraction:
        return Fraction(self.p * self.p - self.q * self.q * self.D, self.s * self.s)

    def trace(self) -> Fraction:
        return Fraction(2 * self.p, self.s)

    # -- order and integrality --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.s)

    def sign(self) -> int:
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        t = p * p - q * q * self.D
        if p > 0:  # q < 0
            return (t > 0) - (t < 0)
        return (t < 0) - (t > 0)  # p < 0, q > 0

    def _cmp(self, other) -> int:
        return (self - self._coerce(other)).sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        # floor(t/s) == floor(floor(t)/s) for integer s >= 1
        return (self.p + _floor_q_sqrt(self.q, self.D)) // self.s

    def frac(self) -> "QuadExt":
        return self - self.floor()

    # -- presentation ------------------------------------------------------

    def approx(self, digits: int = 15) -> str:
        """Decimal approximation with the given number of significant digits."""
        with decimal.localcontext() as ctx:
            ctx.prec = digits + 25
            root = decimal.Decimal(self.D).sqrt()
            val = (decimal.Decimal(self.p) + decimal.Decimal(self.q) * root) / decimal.Decimal(self.s)
            with decimal.localcontext() as out:
                out.prec = digits
                return str(+val)

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "s": self.s, "D": self.D, "approx": self.approx()}

    def __str__(self) -> str:
        if self.q == 0:
            return f"{self.p}/{self.s}" if self.s != 1 else str(self.p)
        body = f"{self.p}{self.q:+d}*sqrt({self.D})"
        return f"({body})/{self.s}" if self.s != 1 else f"({body})"


# -- eigenvalues and orders -------------------------------------------------


def hyperbolic_params_ok(r: int, sigma: int) -> bool:
    if sigma == -1:
        return r != 0
    if sigma == 1:
        return abs(r) >= 3
    return False


def dominant_eigenvalue(r: int, sigma: int) -> QuadExt:
    """Largest root of x^2 - r*x + sigma for a hyperbolic trace/determinant pair."""
    if not hyperbolic_params_ok(r, sigma) or r <= 0:
        raise ValueError(f"(r={r}, sigma={sigma}) is not hyperbolic with positive trace")
    D = r * r - 4 * sigma
    return QuadExt(r, 1, 2, D)


def as_integer_combination(x: QuadExt, r: int) -> Optional[tuple[int, int]]:
    """Write x = m + n*lam with lam = (r + sqrt(D))/2, integers m, n; None if not in Z + lam*Z."""
    if (2 * x.q) % x.s != 0 or (2 * x.p) % x.s != 0:
        return None
    n = (2 * x.q) // x.s
    t = (2 * x.p) // x.s - n * r
    if t % 2 != 0:
        return None
    return (t // 2, n)


def pell_fundamental_unit(D: int) -> QuadExt:
    """Smallest solution (x + y*sqrt(D))/2 > 1 of x^2 - D*y^2 = +-4 (minimal y > 0).

    These are the units of the order of discriminant Delta, where Delta = D
    for D = 0, 1 (mod 4) and Delta = 4*D otherwise.  The continued fraction
    of theta = (sqrt(Delta) - delta)/2, delta = Delta mod 2, is expanded
    through its complete quotients (P + sqrt(Delta))/Q; the convergent
    p/q before a quotient with Q = 2 gives the unit p - q*conj(theta) of
    norm +-1, and every unit u > 1 arises so: with q = y, |theta - p/q| =
    1/(q*u) < 1/(2*q^2), so p/q is a convergent by Legendre's theorem (the
    one exception, (1 + sqrt(5))/2, is the convergent 0/1).  Convergent
    denominators grow, so the first hit has the least y, and it comes
    within one period (Lenstra, "Solving the Pell equation", Notices AMS
    49, 2002).
    """
    _check_field(D)
    delta = D if D % 4 in (0, 1) else 4 * D
    d = delta % 2
    root = isqrt(delta)
    P, Q = -d, 2
    p, p_prev, q, q_prev = 1, 0, 0, 1  # convergents p_(n-1), p_(n-2), q_(n-1), q_(n-2)
    while True:
        # floor((P + sqrt(Delta))/Q): every complete quotient after theta is
        # reduced, so Q stays positive
        a = (P + root) // Q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        P = a * Q - P
        Q = (delta - P * P) // Q
        if Q == 2:
            break
    x, y = 2 * p + d * q, q
    if x * x - delta * y * y not in (4, -4):
        raise RuntimeError(f"continued fraction of sqrt({delta}) gave a convergent of norm other than +-1")
    if delta != D:  # sqrt(Delta) = 2*sqrt(D)
        y *= 2
    return QuadExt(x, y, 2, D)


def squarefree_split(D: int, bound: int = 10**6) -> tuple[int, int]:
    """Return (f, d0) with D = f^2 * d0 and d0 squarefree."""
    f, n, i = 1, D, 2
    while i * i <= n:
        if i > bound:
            raise SearchBoundExceeded(f"squarefree split of {D} exceeds trial bound")
        while n % (i * i) == 0:
            n //= i * i
            f *= i
        i += 1
    return f, n


def field_fundamental_unit(D: int, bound: int = 10**6) -> QuadExt:
    """Fundamental unit of the maximal order of Q(sqrt(D)), expressed over sqrt(D).

    Needs the square part of D, found by trial division up to ``bound``."""
    _check_field(D)
    f, d0 = squarefree_split(D, bound)
    delta0 = d0 if d0 % 4 == 1 else 4 * d0
    c = 1 if d0 % 4 == 1 else 2
    u = pell_fundamental_unit(delta0)
    # u = (x + y*sqrt(delta0))/2, sqrt(delta0) = c*sqrt(d0) = (c/f)*sqrt(D)
    x, y = u.p, u.q  # canonical s == 2 or s == 1
    if u.s == 1:
        x, y = 2 * x, 2 * y
    return QuadExt(x * f, y * c, 2 * f, D)


def unit_exponent(eps: QuadExt, target: QuadExt) -> int:
    """The k >= 1 with eps^k = target, for units eps, target > 1.

    Every unit > 1 of a real quadratic order is at least (1 + sqrt(5))/2,
    so this takes at most log(target)/log(phi) multiplications.
    """
    power, k = eps, 1
    while power < target:
        power, k = power * eps, k + 1
    if power != target:
        raise RuntimeError(f"{target} is not a power of the unit {eps}")
    return k


def order_generator(r: int, sigma: int) -> QuadExt:
    """Generator (mod +-1) of the units of Z + lam*Z for lam = (r + sqrt(D))/2.

    A unit (x + y*sqrt(D))/2 > 1 of least y > 0 is fundamental.  lam has
    y = 1, and the only other y = 1 unit, of x^2 = D - 4 = r^2 - 8*sigma,
    is smaller only when sigma = +1 and r^2 - 8 is a square: r = 3, where
    the generator is (1 + sqrt(5))/2 with square lam.
    """
    lam = dominant_eigenvalue(r, sigma)
    return QuadExt(1, 1, 2, 5) if (r, sigma) == (3, 1) else lam


@dataclass(frozen=True)
class UnitGroupDesc:
    """Units of the order Z + lam*Z inside the unit group of the maximal order."""

    fundamental_unit: QuadExt
    order_generator: QuadExt
    exponent_index: int


def unit_group_of_order(r: int, sigma: int) -> UnitGroupDesc:
    """Generator (mod +-1) of the units of Z + lam*Z, with its exponent over
    the fundamental unit of the maximal order (which needs D's square part)."""
    gen = order_generator(r, sigma)
    eps = field_fundamental_unit(gen.D)
    return UnitGroupDesc(fundamental_unit=eps, order_generator=gen, exponent_index=unit_exponent(eps, gen))

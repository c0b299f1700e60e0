"""Independent number theory for checking torcode's outputs.

Nothing here imports torcode.  The checks compare the program's answers
with these computations or with properties the mathematics requires:

* ``ZLam`` -- exact arithmetic in the order Z[lam], lam = (r + sqrt(D))/2
  the dominant root of x^2 - r*x + sigma, on plain integer pairs;
* ``QS`` -- elements (A + B*sqrt(D))/den of Q(sqrt(D)) with an exact sign,
  floor and fractional part;
* ``reduced_cycle`` / ``cycle_minimum`` -- Gauss reduction of indefinite
  binary quadratic forms and the minimum of |f| over the cycle;
* ``admissible`` -- the local digit rules of the Markov (sigma = -1) and
  sofic (sigma = +1) compacta, and ``lex_admissible``, the Parry
  (lexicographic) condition they are compiled from;
* ``word_value`` -- the exact series value of a finite word in Z[lam].
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


class CheckError(AssertionError):
    """An output of the program disagrees with an oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# -- matrices ---------------------------------------------------------------

Mat = tuple[int, int, int, int]  # row-major (a, b, c, d)


def mat_mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_pow(x: Mat, n: int) -> Mat:
    out: Mat = (1, 0, 0, 1)
    for _ in range(n):
        out = mat_mul(out, x)
    return out


def mat_det(x: Mat) -> int:
    return x[0] * x[3] - x[1] * x[2]


def mat_inv(x: Mat) -> Mat:
    """Inverse of a determinant +-1 integer matrix."""
    a, b, c, d = x
    s = mat_det(x)
    require(s in (1, -1), f"matrix {x} is not unimodular")
    return (s * d, -s * b, -s * c, s * a)


def companion(r: int, sigma: int) -> Mat:
    return (r, 1, -sigma, 0)


def form_of(m: Mat) -> tuple[int, int, int]:
    """Coefficients (b, -(a - d), -c) of the form attached to M."""
    a, b, c, d = m
    return (b, d - a, -c)


def form_value(f: tuple[int, int, int], x: int, y: int) -> int:
    return f[0] * x * x + f[1] * x * y + f[2] * y * y


# -- Z[lam] -----------------------------------------------------------------


@dataclass(frozen=True)
class ZLam:
    """The element m + n*lam of Z[lam], lam^2 = r*lam - sigma."""

    m: int
    n: int
    r: int
    sigma: int

    def __add__(self, other: "ZLam") -> "ZLam":
        return ZLam(self.m + other.m, self.n + other.n, self.r, self.sigma)

    def __mul__(self, other: "ZLam") -> "ZLam":
        bd = self.n * other.n
        return ZLam(
            self.m * other.m - self.sigma * bd,
            self.m * other.n + self.n * other.m + self.r * bd,
            self.r,
            self.sigma,
        )

    def over_lam(self) -> "ZLam":
        # lam * (r - lam) = sigma, so 1/lam = sigma * (r - lam)
        s = self.sigma
        return ZLam(s * self.r * self.m + self.n, -s * self.m, self.r, self.sigma)

    def to_qs(self) -> "QS":
        D = self.r * self.r - 4 * self.sigma
        return QS(2 * self.m + self.n * self.r, self.n, 2, D)


def lam_power(r: int, sigma: int, e: int) -> ZLam:
    """lam^e for any integer e (lam is a unit of Z[lam])."""
    out = ZLam(1, 0, r, sigma)
    base = ZLam(0, 1, r, sigma) if e >= 0 else ZLam(sigma * r, -sigma, r, sigma)
    e = abs(e)
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


# -- Q(sqrt(D)) -------------------------------------------------------------


class QS:
    """(A + B*sqrt(D))/den, kept with den > 0 and gcd(A, B, den) = 1."""

    __slots__ = ("A", "B", "den", "D")

    def __init__(self, A: int, B: int, den: int, D: int) -> None:
        require(den != 0, "zero denominator")
        if den < 0:
            A, B, den = -A, -B, -den
        g = gcd(gcd(A, B), den)
        self.A, self.B, self.den, self.D = A // g, B // g, den // g, D

    @classmethod
    def rational(cls, x: Fraction, D: int) -> "QS":
        return cls(x.numerator, 0, x.denominator, D)

    def key(self) -> tuple[int, int, int, int]:
        return (self.A, self.B, self.den, self.D)

    def __eq__(self, other) -> bool:
        return isinstance(other, QS) and self.key() == other.key()

    def __add__(self, o: "QS") -> "QS":
        return QS(self.A * o.den + o.A * self.den, self.B * o.den + o.B * self.den, self.den * o.den, self.D)

    def __neg__(self) -> "QS":
        return QS(-self.A, -self.B, self.den, self.D)

    def __sub__(self, o: "QS") -> "QS":
        return self + (-o)

    def __mul__(self, o: "QS") -> "QS":
        return QS(self.A * o.A + self.B * o.B * self.D, self.A * o.B + self.B * o.A, self.den * o.den, self.D)

    def div_sqrt_d(self) -> "QS":
        # (A + B*sqrt(D)) / sqrt(D) = (B*D + A*sqrt(D)) / D
        return QS(self.B * self.D, self.A, self.den * self.D, self.D)

    def sign(self) -> int:
        A, B = self.A, self.B
        sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        # opposite signs: compare A^2 with B^2 * D
        t = A * A - B * B * self.D
        return sa if t > 0 else -sa

    def floor(self) -> int:
        # B*sqrt(D) is irrational unless B == 0
        if self.B >= 0:
            root = isqrt(self.B * self.B * self.D)
        else:
            root = -isqrt(self.B * self.B * self.D) - 1
        return (self.A + root) // self.den

    def frac(self) -> "QS":
        return self - QS(self.floor(), 0, 1, self.D)

    def is_zero(self) -> bool:
        return self.A == 0 and self.B == 0


def qs_from_dict(data: dict) -> QS:
    return QS(data["p"], data["q"], data["s"], data["D"])


def torus_distance(x: QS) -> QS:
    """Distance from x to the nearest integer."""
    f = x.frac()
    g = QS(1, 0, 1, x.D) - f
    return f if (g - f).sign() >= 0 else g


# -- binary quadratic forms --------------------------------------------------

Form = tuple[int, int, int]


def disc(f: Form) -> int:
    return f[1] * f[1] - 4 * f[0] * f[2]


def is_reduced(f: Form) -> bool:
    """0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, in integers."""
    a, b, _ = f
    d = disc(f)
    if b <= 0 or b * b >= d:
        return False
    two_a = 2 * abs(a)
    if (two_a + b) ** 2 <= d:
        return False
    return two_a - b <= 0 or (two_a - b) ** 2 < d


def rho(f: Form) -> Form:
    """The right neighbour (c, b', (b'^2 - d)/(4c)) with b' = -b mod 2|c|."""
    _, b, c = f
    d = disc(f)
    s = isqrt(d)
    two_c = 2 * abs(c)
    if abs(c) > s:
        b1 = (-b) % two_c
        if b1 > abs(c):
            b1 -= two_c
    else:
        # the largest b' = -b (mod 2|c|) below sqrt(d)
        b1 = s - ((s + b) % two_c)
    num = b1 * b1 - d
    require(num % (4 * c) == 0, f"rho of {f} is not integral")
    return (c, b1, num // (4 * c))


def reduced_cycle(f: Form) -> list[Form]:
    d = disc(f)
    require(d > 0 and isqrt(d) ** 2 != d, f"form {f} is not indefinite with non-square discriminant")
    g = f
    for _ in range(100_000):
        if is_reduced(g):
            break
        g = rho(g)
    else:
        raise CheckError(f"reduction of {f} did not terminate")
    out = [g]
    cur = rho(g)
    while cur != g:
        out.append(cur)
        require(len(out) < 1_000_000, f"cycle of {f} did not close")
        cur = rho(cur)
    return out


def cycle_minimum(f: Form) -> int:
    return min(abs(g[0]) for g in reduced_cycle(f))


def brute_minimum(f: Form, bound: int) -> int:
    best = None
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y <= 0:
                continue
            v = abs(form_value(f, x, y))
            if v and (best is None or v < best):
                best = v
    require(best is not None, "bound too small")
    return best


def content(f: Form) -> int:
    return gcd(gcd(f[0], f[1]), f[2])


def minimum_witness(f: Form) -> tuple[int, int]:
    """A vector (x, y) with |f(x, y)| equal to the cycle minimum."""
    # walk to the cycle and once round it, keeping T with f o T = g; then
    # f(T (1, 0)) = g[0], and the cycle holds every minimal |g[0]|
    cyc = reduced_cycle(f)
    target, steps = min(abs(h[0]) for h in cyc), len(cyc)
    g, t = f, (1, 0, 0, 1)
    while steps >= 0:
        if abs(g[0]) == target:
            return (t[0], t[2])
        nxt = rho(g)
        s = (nxt[1] + g[1]) // (2 * g[2])
        t = mat_mul(t, (0, -1, 1, s))
        g = nxt
        if is_reduced(g):
            steps -= 1
    raise CheckError(f"no vector of {f} takes its minimum")


def unit_value_vector(m: Mat) -> tuple[int, int]:
    """A vector (x, y) with |f_M(x, y)| = 1."""
    v = minimum_witness(form_of(m))
    require(abs(form_value(form_of(m), *v)) == 1, f"the form of {m} does not represent +-1")
    return v


# -- digits and words ---------------------------------------------------------


def admissible(core: list[int], r: int, sigma: int) -> bool:
    """Local rules of a finite word padded with zeros on both sides.

    Markov (sigma = -1): digits 0..r, and r is always followed by 0.
    Sofic (sigma = +1): digits 0..r-1, and no factor (r-1)(r-2)^j(r-1).
    """
    if sigma == -1:
        if any(d < 0 or d > r for d in core):
            return False
        return all(not (core[i] == r and core[i + 1] != 0) for i in range(len(core) - 1))
    top, mid = r - 1, r - 2
    if any(d < 0 or d > top for d in core):
        return False
    last_top = False  # inside a run (r-1)(r-2)^j
    for d in core:
        if d == top:
            if last_top:
                return False
            last_top = True
        elif d != mid:
            last_top = False
    return True


def lex_admissible(core: list[int], r: int, sigma: int) -> bool:
    """Parry condition: every suffix of the zero-extended word lies strictly
    below the quasi-greedy expansion of 1, (r 0)^inf or (r-1)(r-2)^inf."""
    if any(d < 0 for d in core):
        return False

    def qg(j: int) -> int:
        if sigma == -1:
            return r if j % 2 == 0 else 0
        return r - 1 if j == 0 else r - 2

    n = len(core)
    for i in range(n):
        for j in range(n + 4):
            s = core[i + j] if i + j < n else 0
            if s != qg(j):
                if s > qg(j):
                    return False
                break
    return True


def parse_word(text: str) -> tuple[str, list[int], str, int]:
    body, _, off = text.strip().rpartition("@")
    parts = body.split("|")
    require(len(parts) == 3, f"malformed word {text!r}")
    digits = [int(t) for t in parts[1].split()]
    return parts[0].strip(), digits, parts[2].strip(), int(off)


def word_value(core: list[int], offset: int, r: int, sigma: int) -> ZLam:
    """Sum of core[i] * lam^-(offset + i), exactly, by Horner's rule in Z[lam]."""
    acc = ZLam(0, 0, r, sigma)
    for d in reversed(core):
        acc = acc.over_lam() + ZLam(d, 0, r, sigma)
    return acc * lam_power(r, sigma, -offset)


def homoclinic_point(m: Mat, p: int, q: int) -> tuple[QS, QS]:
    """xi = (-q + n*lam)/sqrt(D), eta = (p + k*lam)/sqrt(D), (n, k) = -det(M) M (-q, p)^T."""
    a, b, c, d = m
    r, sigma = a + d, mat_det(m)
    n = -sigma * (-a * q + b * p)
    k = -sigma * (-c * q + d * p)
    xi = ZLam(-q, n, r, sigma).to_qs().div_sqrt_d()
    eta = ZLam(p, k, r, sigma).to_qs().div_sqrt_d()
    return xi, eta

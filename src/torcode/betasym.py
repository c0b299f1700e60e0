"""Two-sided symbolic compacta for quadratic Pisot units: admissibility,
greedy expansions, normalization, the group structure with identifications,
the adic step, and index reversal.

A word is a two-sided digit sequence with a finite explicit core and tagged
eventually-periodic tails.  Tail tags expand to concrete digits as follows
(``offset`` is the index of the first core digit, the right tail starts at
``offset + len(core)``):

* ``zero``      -- all zeroes on that side;
* ``alt_r0``    -- the alternating pattern of r and 0.  On the right it starts
  with r; on the left the digit at ``offset - 1`` is 0 and the digit at
  ``offset - 2`` is r (mirrored for the reversed compactum);
* ``const_r2``  -- the constant pattern of r-2 (sofic compactum only).

Words with nonzero left tails have no convergent series value, but they do
have an exact *effective* value: the limit of the partial sums of the coding
series modulo the integer lattice is ``eff_value(w)`` times the homoclinic
point.  All group operations are computed through effective values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .qfield import QuadExt, dominant_eigenvalue

Kind = Literal["markov", "sofic", "markov_reversed"]
TailTag = Literal["zero", "alt_r0", "const_r2"]

_TAIL_TAGS = ("zero", "alt_r0", "const_r2")


class InadmissibleWordError(ValueError):
    """A digit sequence violates its compactum constraints."""


@dataclass(frozen=True)
class Compactum:
    """Digit alphabet plus the local constraint family of one symbolic space."""

    kind: Kind
    r: int
    digit_max: int
    forbidden: str

    @property
    def sigma(self) -> int:
        return 1 if self.kind == "sofic" else -1


def compactum(kind: Kind, r: int) -> Compactum:
    if r < 1:
        raise ValueError("r must be positive")
    if kind == "markov":
        return Compactum("markov", r, r, f"digit {r} must be followed by 0")
    if kind == "markov_reversed":
        return Compactum("markov_reversed", r, r, f"digit {r} must be preceded by 0")
    if kind == "sofic":
        if r < 3:
            raise ValueError("sofic compactum needs r >= 3")
        return Compactum("sofic", r, r - 1, f"no factor ({r - 1})({r - 2})^j({r - 1})")
    raise ValueError(f"unknown kind {kind!r}")


def compactum_for(r: int, sigma: int) -> Compactum:
    if sigma == -1:
        return compactum("markov", r)
    if sigma == 1:
        return compactum("sofic", r)
    raise ValueError("sigma must be +-1")


# -- Parry data ---------------------------------------------------------------


@dataclass(frozen=True)
class ParryData:
    """Digit expansion of 1 and the quasi-greedy periodic expansion."""

    d1_head: tuple[int, ...]
    d1_period: tuple[int, ...]
    quasi_greedy_head: tuple[int, ...]
    quasi_greedy_period: tuple[int, ...]


def _geometric_tail_value(digits_head: Sequence[int], period: Sequence[int], lam: QuadExt) -> QuadExt:
    """Exact value of sum_{i>=1} d_i lam^{-i} for an eventually periodic sequence."""
    total = QuadExt.zero(lam.D)
    for i, d in enumerate(digits_head, start=1):
        total = total + d * lam ** (-i)
    if period:
        p = len(period)
        block = QuadExt.zero(lam.D)
        for i, d in enumerate(period):
            block = block + d * lam ** (-(i + 1))
        start = lam ** (-len(digits_head))
        ratio = QuadExt.one(lam.D) - lam ** (-p)
        total = total + start * block / ratio
    return total


def parry_expansion(r: int, sigma: int) -> ParryData:
    """Expansion of 1 in base lam: finite (r, 1) when sigma=-1, (r-1)(r-2)^inf otherwise."""
    lam = dominant_eigenvalue(r, sigma)
    one = QuadExt.one(lam.D)
    if sigma == -1:
        data = ParryData((r, 1), (), (), (r, 0))
    else:
        data = ParryData((r - 1,), (r - 2,), (r - 1,), (r - 2,))
    assert _geometric_tail_value(data.d1_head, data.d1_period, lam) == one
    assert _geometric_tail_value(data.quasi_greedy_head, data.quasi_greedy_period, lam) == one
    return data


def factor_admissible_lex(seq: Sequence[int], r: int, sigma: int) -> bool:
    """Factor admissibility straight from the lexicographic tail condition.

    Independent route used to validate the compiled local rules: every suffix
    of the zero-extended factor must be strictly below the quasi-greedy
    expansion of 1.
    """
    data = parry_expansion(r, sigma)
    head, period = data.quasi_greedy_head, data.quasi_greedy_period

    def qg(j: int) -> int:
        if j < len(head):
            return head[j]
        return period[(j - len(head)) % len(period)]

    horizon = len(seq) + len(head) + len(period) + 2
    if any(d < 0 for d in seq):
        return False
    for i in range(len(seq)):
        for j in range(horizon):
            s = seq[i + j] if i + j < len(seq) else 0
            q = qg(j)
            if s < q:
                break
            if s > q:
                return False
    return True


def _factor_admissible_local(seq: Sequence[int], comp: Compactum) -> bool:
    if any(d < 0 or d > comp.digit_max for d in seq):
        return False
    if comp.kind == "markov":
        return all(not (seq[i] == comp.r and seq[i + 1] >= 1) for i in range(len(seq) - 1))
    if comp.kind == "markov_reversed":
        return all(not (seq[i + 1] == comp.r and seq[i] >= 1) for i in range(len(seq) - 1))
    top, mid = comp.r - 1, comp.r - 2
    for i, d in enumerate(seq):
        if d != top:
            continue
        j = i + 1
        while j < len(seq) and seq[j] == mid:
            j += 1
        if j < len(seq) and seq[j] == top:
            return False
    return True


def derive_compactum(r: int, sigma: int, check_len: int = 5) -> Compactum:
    """Compile the lexicographic tail condition into the local constraint family.

    Cross-checks the compiled rule against the lexicographic definition on all
    factors up to ``check_len`` before returning it.
    """
    comp = compactum_for(r, sigma)
    seqs: list[list[int]] = [[]]
    for _ in range(check_len):
        seqs = [s + [d] for s in seqs for d in range(comp.digit_max + 2)]
        for s in seqs:
            lex = factor_admissible_lex(s, r, sigma)
            loc = _factor_admissible_local(s, comp)
            if lex != loc:
                raise AssertionError(f"compiled rule disagrees with lex condition on {s}")
        seqs = [s for s in seqs if _factor_admissible_local(s, comp)]
    return comp


# -- words --------------------------------------------------------------------


def _tail_ok(kind: Kind, tag: str) -> bool:
    if tag == "zero":
        return True
    if tag == "alt_r0":
        return kind in ("markov", "markov_reversed")
    if tag == "const_r2":
        return kind == "sofic"
    return False


@dataclass(frozen=True)
class SymWord:
    """Two-sided word: finite core plus tagged tails.  Use :func:`make_word`."""

    kind: Kind
    r: int
    offset: int
    core: tuple[int, ...]
    left_tail: TailTag
    right_tail: TailTag

    @property
    def sigma(self) -> int:
        return 1 if self.kind == "sofic" else -1

    @property
    def compactum(self) -> Compactum:
        return compactum(self.kind, self.r)

    @property
    def is_finite(self) -> bool:
        return self.left_tail == "zero" and self.right_tail == "zero"

    def digit(self, n: int) -> int:
        """Digit at index n, expanding tails."""
        if self.offset <= n < self.offset + len(self.core):
            return self.core[n - self.offset]
        if n >= self.offset + len(self.core):
            side, dist = self.right_tail, n - (self.offset + len(self.core))
            return _tail_digit(self.kind, self.r, side, "right", dist)
        side, dist = self.left_tail, (self.offset - 1) - n
        return _tail_digit(self.kind, self.r, side, "left", dist)

    def support_window(self) -> tuple[int, int]:
        return (self.offset, self.offset + len(self.core))

    def to_text(self) -> str:
        digits = " ".join(str(d) for d in self.core)
        return f"{self.left_tail}|{digits}|{self.right_tail} @{self.offset}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "offset": self.offset,
            "core": list(self.core),
            "left_tail": self.left_tail,
            "right_tail": self.right_tail,
        }

    def __str__(self) -> str:
        return self.to_text()


def _tail_digit(kind: Kind, r: int, tag: str, side: str, dist: int) -> int:
    """Digit at distance `dist` into a tail (0 = adjacent to the core)."""
    if tag == "zero":
        return 0
    if tag == "const_r2":
        return r - 2
    if kind == "markov":
        if side == "right":  # r, 0, r, 0, ...
            return r if dist % 2 == 0 else 0
        return 0 if dist % 2 == 0 else r  # ..., r, 0 adjacent
    if kind == "markov_reversed":
        if side == "right":  # 0, r, 0, r, ...
            return 0 if dist % 2 == 0 else r
        return r if dist % 2 == 0 else 0  # ..., 0, r adjacent
    raise AssertionError(f"alt tail on kind {kind}")


def make_word(
    kind: Kind,
    r: int,
    offset: int,
    core: Iterable[int],
    left_tail: TailTag = "zero",
    right_tail: TailTag = "zero",
    check: bool = True,
) -> SymWord:
    """Canonical word constructor: validates tags/digits and absorbs tail patterns."""
    comp = compactum(kind, r)
    core = list(core)
    if left_tail not in _TAIL_TAGS or right_tail not in _TAIL_TAGS:
        raise ValueError(f"unknown tail tag {left_tail!r}/{right_tail!r}")
    if not _tail_ok(kind, left_tail) or not _tail_ok(kind, right_tail):
        raise ValueError(f"tail tags ({left_tail}, {right_tail}) not allowed for kind {kind}")
    for d in core:
        if d < 0 or d > comp.digit_max:
            raise InadmissibleWordError(f"digit {d} outside alphabet 0..{comp.digit_max}")

    changed = True
    while changed:
        changed = False
        if left_tail == "zero":
            while core and core[0] == 0:
                core.pop(0)
                offset += 1
                changed = True
        if right_tail == "zero":
            while core and core[-1] == 0:
                core.pop()
                changed = True
        if right_tail == "const_r2":
            while core and core[-1] == r - 2:
                core.pop()
                changed = True
        if left_tail == "const_r2":
            while core and core[0] == r - 2:
                core.pop(0)
                offset += 1
                changed = True
        if right_tail == "alt_r0":
            pat = (r, 0) if kind == "markov" else (0, r)
            while len(core) >= 2 and tuple(core[-2:]) == pat:
                core = core[:-2]
                changed = True
        if left_tail == "alt_r0":
            pat = (r, 0) if kind == "markov" else (0, r)
            while len(core) >= 2 and tuple(core[:2]) == pat:
                core = core[2:]
                offset += 2
                changed = True
    if not core and left_tail == "zero" and right_tail == "zero":
        offset = 0
    w = SymWord(kind, r, offset, tuple(core), left_tail, right_tail)
    if check and not is_admissible(w):
        raise InadmissibleWordError(f"word {w} is not admissible")
    return w


def zero_word(r: int, sigma: int) -> SymWord:
    comp = compactum_for(r, sigma)
    return SymWord(comp.kind, r, 0, (), "zero", "zero")


def u_word(k: int, r: int, sigma: int) -> SymWord:
    """The word with a single digit 1 at index k (value lam^{-k})."""
    return make_word(compactum_for(r, sigma).kind, r, k, (1,))


def is_admissible(w: SymWord, comp: Optional[Compactum] = None) -> bool:
    """Admissibility of the full two-sided word, tails included."""
    comp = comp or w.compactum
    if comp.kind != w.kind or comp.r != w.r:
        raise ValueError("word does not belong to the given compactum")
    pad = 3
    seq = [w.digit(n) for n in range(w.offset - pad, w.offset + len(w.core) + pad)]
    if not _factor_admissible_local(seq, comp):
        return False
    return True


def is_homoclinic_word(w: SymWord) -> bool:
    """Both tails in the homoclinic tail set of the kind (always true for SymWord)."""
    allowed = {"markov": {"zero", "alt_r0"}, "markov_reversed": {"zero", "alt_r0"}, "sofic": {"zero", "const_r2"}}
    return w.left_tail in allowed[w.kind] and w.right_tail in allowed[w.kind]


# -- values -------------------------------------------------------------------


def _lam(w_or_r, sigma: Optional[int] = None) -> QuadExt:
    if isinstance(w_or_r, SymWord):
        return dominant_eigenvalue(w_or_r.r, w_or_r.sigma)
    return dominant_eigenvalue(w_or_r, sigma)


def _right_tail_value(w: SymWord, lam: QuadExt) -> QuadExt:
    j = w.offset + len(w.core)
    if w.right_tail == "zero":
        return QuadExt.zero(lam.D)
    if w.right_tail == "alt_r0":
        if w.kind == "markov":
            return lam ** (1 - j)
        raise ValueError("series value undefined for reversed alternating tails")
    # const_r2: sum (r-2) lam^{-(j+i)} = lam^{-j} (lam - 1)
    return lam ** (-j) * (lam - 1)


def _core_value(core: Sequence[int], offset: int, r: int, sigma: int, lam: QuadExt) -> QuadExt:
    """sum_i core[i] * lam^{-(offset+i)}, by Horner on integer pairs a + b*lam.

    Each step multiplies by lam through lam^2 = r*lam - sigma and adds the
    next digit, so no field element is built until the final scaling.
    """
    if not core:
        return QuadExt.zero(lam.D)
    a = b = 0
    for d in core:
        a, b = d - sigma * b, a + r * b
    return QuadExt._make(2 * a + r * b, b, 2, lam.D) * lam ** (1 - offset - len(core))


def value(w: SymWord) -> QuadExt:
    """Exact series value sum_n digit_n * lam^{-n}; needs a zero left tail."""
    if w.left_tail != "zero":
        raise ValueError("left tail diverges as a series; use eff_value")
    lam = _lam(w)
    return _core_value(w.core, w.offset, w.r, w.sigma, lam) + _right_tail_value(w, lam)


def eff_value(w: SymWord) -> QuadExt:
    """Effective value: the coding image of w equals eff_value(w) times the
    homoclinic point, exactly.  Defined for all tail combinations."""
    lam = _lam(w)
    total = _core_value(w.core, w.offset, w.r, w.sigma, lam) + _right_tail_value(w, lam)
    if w.left_tail == "alt_r0":
        if w.kind != "markov":
            raise ValueError("effective value undefined for reversed alternating tails")
        total = total - lam ** (-(w.offset - 1))
    elif w.left_tail == "const_r2":
        total = total - (lam - (w.r - 1)) * lam ** (-(w.offset - 1))
    return total


# -- greedy expansion and normalization ----------------------------------------


def _leading_exponent(x: QuadExt, lam: QuadExt, cap: int = 4096) -> int:
    """Largest e with lam^e <= x (x > 0)."""
    e = 0
    while lam ** (e + 1) <= x:
        e += 1
        if e > cap:
            raise RuntimeError("leading exponent out of range")
    while lam ** e > x:
        e -= 1
        if e < -cap:
            raise RuntimeError("leading exponent out of range")
    return e


def greedy_word(x: QuadExt, r: int, sigma: int, max_digits: int = 10_000) -> SymWord:
    """Greedy expansion of x >= 0 as an admissible word with zero left tail.

    For the sofic compactum the expansion may close with the constant tail;
    this is detected exactly when the remainder equals the tail value.
    """
    comp = compactum_for(r, sigma)
    lam = dominant_eigenvalue(r, sigma)
    if x.D != lam.D:
        raise ValueError("value lives in a different field")
    if x.sign() < 0:
        raise ValueError("greedy expansion needs a nonnegative value")
    if x.is_zero:
        return zero_word(r, sigma)
    e = _leading_exponent(x, lam)
    pos = -e
    z = x / lam ** e
    digits: list[int] = []
    tail: TailTag = "zero"
    for _ in range(max_digits):
        if z.is_zero:
            break
        if sigma == 1 and z == lam - 1:
            tail = "const_r2"
            break
        d = z.floor()
        assert 0 <= d <= comp.digit_max
        digits.append(d)
        z = (z - d) * lam
    else:
        raise RuntimeError(f"greedy expansion of {x} did not terminate")
    w = make_word(comp.kind, r, pos, digits, "zero", tail)
    assert eff_value(w) == x
    return w


def normalize(digits: Sequence[int], offset: int, r: int, sigma: int) -> SymWord:
    """Value-preserving rewrite of a nonnegative digit sequence into the
    canonical admissible word (exact value, then greedy re-expansion)."""
    if any(d < 0 for d in digits):
        raise ValueError("digits must be nonnegative")
    total = _core_value(digits, offset, r, sigma, dominant_eigenvalue(r, sigma))
    return greedy_word(total, r, sigma)


def word_from_eff_value(x: QuadExt, r: int, sigma: int) -> SymWord:
    """Canonical admissible word with the given effective value.

    Nonnegative values get their greedy expansion (finite support when one
    exists).  Negative values are realized with the canonical nonzero left
    tail followed by the greedy expansion of the remainder.
    """
    lam = dominant_eigenvalue(r, sigma)
    if x.is_zero:
        return zero_word(r, sigma)
    if x.sign() > 0:
        return greedy_word(x, r, sigma)
    target = -x
    factor = QuadExt.one(lam.D) if sigma == -1 else lam - (r - 1)
    k = 0
    while factor * lam ** k < target:
        k += 1
        if k > 4096:
            raise RuntimeError("negative value out of range")
    while factor * lam ** (k - 1) >= target:
        k -= 1
        if k < -4096:
            raise RuntimeError("negative value out of range")
    rest = factor * lam ** k + x
    assert rest.sign() >= 0 and rest < lam ** k
    offset = 1 - k
    left: TailTag = "alt_r0" if sigma == -1 else "const_r2"
    if rest.is_zero:
        w = make_word(compactum_for(r, sigma).kind, r, offset, (), left, "zero")
    else:
        base = greedy_word(rest, r, sigma)
        assert base.offset >= offset
        core = [0] * (base.offset - offset) + list(base.core)
        w = make_word(base.kind, r, offset, core, left, base.right_tail)
    assert eff_value(w) == x
    return w


# -- group operations -----------------------------------------------------------


def word_add(w1: SymWord, w2: SymWord) -> SymWord:
    """Sum in the compactum group: digitwise sum, then normalization."""
    if (w1.kind, w1.r) != (w2.kind, w2.r):
        raise ValueError("words live in different compacta")
    if not (w1.is_finite and w2.is_finite):
        raise ValueError("word_add needs finite-core words; canonicalize first")
    if not w1.core:
        return w2
    if not w2.core:
        return w1
    lo = min(w1.offset, w2.offset)
    hi = max(w1.offset + len(w1.core), w2.offset + len(w2.core))
    digits = [0] * (hi - lo)
    for w in (w1, w2):
        for i, d in enumerate(w.core):
            digits[w.offset + i - lo] += d
    return normalize(digits, lo, w1.r, w1.sigma)


def word_neg(w: SymWord) -> SymWord:
    """Additive inverse at the effective-value level (complement identity)."""
    return word_from_eff_value(-eff_value(w), w.r, w.sigma)


def word_sub(w1: SymWord, w2: SymWord) -> SymWord:
    if (w1.kind, w1.r) != (w2.kind, w2.r):
        raise ValueError("words live in different compacta")
    return word_from_eff_value(eff_value(w1) - eff_value(w2), w1.r, w1.sigma)


def canonicalize_identified(w: SymWord) -> SymWord:
    """Canonical representative of w under the boundary identifications:
    the finite-support member when the class has one, else the canonical
    tail form of the same effective value."""
    return word_from_eff_value(eff_value(w), w.r, w.sigma)


def adic_step(w: SymWord, k: int) -> SymWord:
    """Add the unit word at index k (two-sided adic transformation step)."""
    return word_add(w, u_word(k, w.r, w.sigma))


def reverse_map(w: SymWord) -> SymWord:
    """Index reversal n -> -n; swaps the markov and reversed-markov compacta."""
    kind_map = {"markov": "markov_reversed", "markov_reversed": "markov", "sofic": "sofic"}
    new_kind = kind_map[w.kind]
    if w.core:
        new_offset = -(w.offset + len(w.core) - 1)
    else:
        # pure-tail word: the seam reflects
        new_offset = 1 - w.offset
    return make_word(
        new_kind,
        w.r,
        new_offset,
        tuple(reversed(w.core)),
        left_tail=w.right_tail,
        right_tail=w.left_tail,
    )


# -- serialization ---------------------------------------------------------------


def word_from_text(text: str, r: int, sigma: int) -> SymWord:
    """Parse "lt|d d d|rt @offset" into a word of the compactum of (r, sigma)."""
    body, _, off = text.strip().rpartition("@")
    if not body:
        raise ValueError(f"malformed word {text!r} (missing @offset)")
    parts = body.strip().split("|")
    if len(parts) != 3:
        raise ValueError(f"malformed word {text!r} (expected lt|digits|rt)")
    lt, digits_text, rt = parts[0].strip(), parts[1].strip(), parts[2].strip()
    core = [int(t) for t in digits_text.split()] if digits_text else []
    return make_word(compactum_for(r, sigma).kind, r, int(off), core, lt, rt)  # type: ignore[arg-type]

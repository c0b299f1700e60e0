"""Seeded operation panels for the three workloads.

A panel is a list of operations (dicts, see ``checks``).  The same seed
gives the same panel.  Sizes and trace or window ranges are sampled by
stratification: the range is cut into as many equal slices (on a log
scale) as there are operations and each operation draws inside its own
slice, so every seed gets the same mix of cheap and costly operations and
the seed moves only which matrices fill each slice.

Known failures are fixed operations, the same in every panel, each with
its expected exit code and message.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from oracles import (
    Mat,
    companion,
    content,
    cycle_minimum,
    form_of,
    form_value,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    require,
    unit_value_vector,
)

# Lucas traces: lam = phi^k with k >= 7, past unit_group_of_order's max_index = 6.
ANALYZE_FAILURES = [(29, -1), (47, 1), (76, -1), (123, 1), (199, -1), (322, 1)]
UNIT_INDEX_MESSAGE = "no power of the fundamental unit up to 6 lies in Z+lam*Z"

# Integral minimum above glz._ENUMERATION_LIMIT = 10^4: F^21, C(3,+1)^11, C(2,-1)^12, C(5,-1)^7.
MAC_FAILURES = [((1, 1, 1, 0), 21), (companion(3, 1), 11), (companion(2, -1), 12), (companion(5, -1), 7)]
KERNEL_MESSAGE = "kernel too large to enumerate"

ANALYZE_STRATIFIED = 100
ANALYZE_POWERS = 14
MAC_SIZE = 116
DECODE_PER_PAIR = 3


def _matrix_arg(m: Mat) -> str:
    # a leading minus would be read as an option, hence the --matrix= form
    return "--matrix=" + ",".join(str(x) for x in m)


def _op(command: str, m: Mat, *extra: str, **meta) -> dict:
    return {"argv": [command, _matrix_arg(m), *extra, "--format", "json"], "matrix": list(m), **meta}


def _conjugate(rng: random.Random, m: Mat) -> Mat:
    """P M P^-1 for a random P in GL(2,Z) made of a few elementary steps."""
    p: Mat = (1, 0, 0, 1)
    while p == (1, 0, 0, 1):
        for _ in range(rng.randint(2, 3)):
            e = rng.choice((-2, -1, 1, 2))
            step = (1, e, 0, 1) if rng.random() < 0.5 else (1, 0, e, 1)
            p = mat_mul(p, step)
        if rng.random() < 0.5:
            p = mat_mul(p, (0, 1, 1, 0))
    return mat_mul(mat_mul(p, m), mat_inv(p))


def _log_slice(rng: random.Random, i: int, n: int, lo: float, hi: float, width: float = 1.0) -> float:
    """A log-uniform draw from the middle `width` of slice i of n of [lo, hi]."""
    u = (i + 0.5 + width * (rng.random() - 0.5)) / n
    return lo * (hi / lo) ** u


def unit_index_failures(limit: int) -> set[tuple[int, int]]:
    """(r, sigma) with lam = eps^j, j >= 7, for a unit eps of trace t and
    norm N: traces follow T_j = t*T_(j-1) - N*T_(j-2) from T_0 = 2, T_1 = t."""
    out = set()
    t = 1
    while True:
        grew = False
        for norm in (-1, 1):
            if t * t - 4 * norm <= 0:
                continue
            prev, cur = 2, t
            for j in range(2, 64):
                prev, cur = cur, t * cur - norm * prev
                if cur > limit:
                    break
                if j >= 7:
                    out.add((cur, norm ** j))
                    grew = True
        if not grew and t > 2:
            return out
        t += 1


def _no_unit_matrix(r: int, sigma: int) -> Mat | None:
    """A matrix of trace r, determinant sigma, whose form has content 1 and
    integral minimum >= 2 (so no bijective coding), or None."""
    for mu in range(2, 8):
        for a in range(mu):
            if (a * (r - a) - sigma) % mu:
                continue
            m = (a, mu, (a * (r - a) - sigma) // mu, r - a)
            f = form_of(m)
            if content(f) == 1 and cycle_minimum(f) >= 2:
                return m
    return None


def _near(start: int, lo: int, hi: int):
    """start, start+1, start-1, start+2, ... within [lo, hi]."""
    for delta in range(hi - lo + 1):
        for r in (start + delta, start - delta)[: 1 if delta == 0 else 2]:
            if lo <= r <= hi:
                yield r


def _square_part_ok(r: int, sigma: int) -> bool:
    """D = r^2 - 4*sigma has no odd square factor p^2 with p < 1000 and 16 does
    not divide it, so the unit search's trial division runs its full length
    on every panel alike."""
    D = r * r - 4 * sigma
    return D % 16 != 0 and all(D % (p * p) for p in _ODD_PRIMES)


_ODD_PRIMES = [p for p in range(3, 1000, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]
ANALYZE_KINDS = ("companion", "conjugate", "no_unit", "no_unit_conjugate")


def analyze_panel(seed: int) -> list[dict]:
    rng = random.Random(f"analyze/{seed}")
    bad = unit_index_failures(10**6 + 100)
    ops = []
    for i in range(ANALYZE_STRATIFIED):
        # sign, trace parity and kind follow the slice index, not the seed
        sigma = -1 if i % 2 else 1
        parity = (i // 2) % 2
        kind = ANALYZE_KINDS[(i // 4) % 4]
        start = round(_log_slice(rng, i, ANALYZE_STRATIFIED, 10, 10**6, width=0.4))
        for r in _near(start, 10, 10**6):
            if r % 2 != parity or (r, sigma) in bad or not _square_part_ok(r, sigma):
                continue
            m = companion(r, sigma) if kind in ("companion", "conjugate") else _no_unit_matrix(r, sigma)
            if m is not None:
                break
        if kind.endswith("conjugate"):
            m = _conjugate(rng, m)
        ops.append(_op("analyze", m, trace=r))
    # non-primitive powers K^n of companions with a small integral minimum q_n
    powers = [(t, s, 2) for s in (-1, 1) for t in range(1 if s < 0 else 3, 41)]
    powers += [(t, s, 3) for s in (-1, 1) for t in range(1 if s < 0 else 3, 7)]
    powers.sort(key=lambda e: mat_pow(companion(e[0], e[1]), e[2])[0])
    for i in range(ANALYZE_POWERS):
        lo, hi = i * len(powers) // ANALYZE_POWERS, (i + 1) * len(powers) // ANALYZE_POWERS
        t, s, n = powers[rng.randrange(lo, hi)]
        m = mat_pow(companion(t, s), n)
        if i % 2:
            m = _conjugate(rng, m)
        ops.append(_op("analyze", m, power=n, trace=m[0] + m[3]))
    for r, sigma in ANALYZE_FAILURES:
        expect = {"rc": 2, "message": UNIT_INDEX_MESSAGE}
        ops.append(_op("analyze", companion(r, sigma), trace=r, expect_failure=expect))
    return _fixed_order(ops)


def _q_sequence(t: int, sigma: int, limit: int):
    """(n, q_n) for n >= 2, where form(K^n) = q_n * form(K) for K of trace t."""
    prev, cur, n = 1, t, 2
    while cur <= limit:
        yield n, cur
        prev, cur, n = cur, t * cur - sigma * prev, n + 1


def mac_catalogue(lo: int = 10, hi: int = 8000) -> list[tuple[int, Mat, int]]:
    """(minimum, K, n) for powers K^n of companions K with lo <= minimum <= hi.

    Companions other than C(3, +1) are primitive, and each power has a
    single orbit of minimal solutions, so one kernel of order minimum."""
    bases = [companion(t, s) for s in (-1, 1) for t in range(1 if s < 0 else 4, 101)]
    out = []
    for k in bases:
        mu = cycle_minimum(form_of(k))
        for n, q in _q_sequence(k[0] + k[3], mat_det(k), hi // mu):
            if mu * q >= lo:
                out.append((mu * q, k, n))
    out.sort()
    return out


def mac_panel(seed: int) -> list[dict]:
    rng = random.Random(f"mac/{seed}")
    catalogue = mac_catalogue()
    ops = []
    for i in range(MAC_SIZE):
        # the power whose minimum is nearest a draw from the middle of the slice
        target = math.log(_log_slice(rng, i, MAC_SIZE, 10, 8000, width=0.4))
        gap = min(abs(math.log(e[0]) - target) for e in catalogue)
        minimum, k, n = rng.choice([e for e in catalogue if abs(math.log(e[0]) - target) == gap])
        m = mat_pow(k, n)
        if i % 2:
            m = _conjugate(rng, m)
        ops.append(_op("mac", m, power=n, minimum=minimum))
    for k, n in MAC_FAILURES:
        expect = {"rc": 1, "message": KERNEL_MESSAGE}
        ops.append(_op("mac", mat_pow(k, n), power=n, expect_failure=expect))
    return _fixed_order(ops)


def _fixed_order(ops: list[dict]) -> list[dict]:
    """The panel in an order that does not depend on the seed, so the
    operation that runs first in a pass (and pays for the interpreter's
    warm-up) comes from the same slice in every panel."""
    order = list(range(len(ops)))
    random.Random(len(ops)).shuffle(order)
    return [ops[i] for i in order]


def decode_pairs() -> list[tuple[int, int]]:
    return [(r, -1) for r in range(1, 21)] + [(r, 1) for r in range(3, 21)]


def decode_panel(seed: int) -> list[dict]:
    """Windows are stratified over all operations; operation i decodes for
    pair i mod 38 with unit power -1, 0 or 1, so each pair gets one window
    from each third of the range.  The seed moves windows inside their
    slices, the parameter's sign and the target's numerators; the target's
    denominators follow the index."""
    rng = random.Random(f"decode/{seed}")
    pairs = decode_pairs()
    n = DECODE_PER_PAIR * len(pairs)
    ops = []
    for i in range(n):
        r, sigma = pairs[i % len(pairs)]
        window = round(_log_slice(rng, i, n, 64, 1024))
        m = companion(r, sigma)
        x, y = unit_value_vector(m)
        k = (i // len(pairs) + i) % 3 - 1
        step = m if k >= 0 else mat_inv(m)
        for _ in range(abs(k)):
            x, y = mat_mul((x, y, 0, 0), step)[:2]
        if rng.random() < 0.5:
            x, y = -x, -y
        require(abs(form_value(form_of(m), x, y)) == 1, "decode parameter is not bijective")
        # denominators follow the index; numerators prime to them keep them
        dens = (2 + (7 * i) % 59, 2 + (13 * i + 5) % 59)
        target = [str(Fraction(rng.choice([a for a in range(1, den) if math.gcd(a, den) == 1]), den)) for den in dens]
        argv = ["--param=" + f"{x},{y}", "--point", ",".join(target), "--window", str(window)]
        ops.append(_op("decode", m, *argv, param=[x, y], target=target, window=window))
    return _fixed_order(ops)


PANELS = {"analyze": analyze_panel, "mac": mac_panel, "decode": decode_panel}


def smoke_panel(workload: str, seed: int, size: int = 4) -> list[dict]:
    """A few cheap operations of the workload, plus its known failures."""
    ops = PANELS[workload](seed)
    failing = [op for op in ops if "expect_failure" in op]
    cheap = sorted((op for op in ops if "expect_failure" not in op), key=_cost_key)[:size]
    return cheap + failing[:1]


def _cost_key(op: dict) -> int:
    return op.get("window") or op.get("minimum") or op.get("trace") or 0

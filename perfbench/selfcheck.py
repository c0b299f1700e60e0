"""Untimed self-check of the oracles and checkers, run before every run.

Hand-worked cases must pass, planted wrong outputs must be refused, and
sympy, where it is a second source, must agree.  ``real_decode`` is one
output of the program (made in a subprocess, so the checking process never
imports torcode) in which a flipped digit is planted.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt

from checks import check_decode, check_kernel, check_mac
from oracles import (
    QS,
    CheckError,
    ZLam,
    admissible,
    brute_minimum,
    cycle_minimum,
    disc,
    form_of,
    homoclinic_point,
    lam_power,
    form_value,
    lex_admissible,
    minimum_witness,
    reduced_cycle,
    require,
)
from panels import ANALYZE_FAILURES, unit_index_failures

FIB = (1, 1, 1, 0)
# the 5-to-1 Fibonacci coding at (p, q) = (3, 1): kernel {k * (2/5, 4/5)}
FIB_KERNEL = ["0,0", "1/5,2/5", "2/5,4/5", "3/5,1/5", "4/5,3/5"]
# the principal cycle of discriminant 28, worked by hand
CYCLE_28 = [(1, 4, -3), (-3, 2, 2), (2, 2, -3), (-3, 4, 1)]
DECODE_CASE = {"matrix": [1, 1, 1, 0], "param": [-1, -1], "target": ["1/5", "2/5"], "window": 40}


def _refused(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def _qs_dict(x: QS) -> dict:
    return {"p": x.A, "q": x.B, "s": x.den, "D": x.D}


def check_arithmetic() -> None:
    phi = ZLam(0, 1, 1, -1)
    require(phi * phi == ZLam(1, 1, 1, -1), "phi^2 = phi + 1")
    require(phi.over_lam() == ZLam(1, 0, 1, -1) and (phi * phi).over_lam() == phi, "lam / lam = 1")
    require(lam_power(1, -1, 10).to_qs() == QS(123, 55, 2, 5), "phi^10 = (123 + 55 sqrt 5)/2")
    require(lam_power(1, -1, 10).to_qs().floor() == 122, "floor(phi^10) = 122")
    require(lam_power(3, 1, -4) * lam_power(3, 1, 4) == ZLam(1, 0, 3, 1), "lam^-4 lam^4 = 1")
    require(QS(-3, 2, 1, 2).sign() == -1 and QS(3, -2, 1, 2).sign() == 1, "sign of 3 - 2 sqrt 2")
    require(QS(-7, 5, 1, 2).floor() == 0 and QS(7, -5, 1, 2).floor() == -1, "floor near 5 sqrt 2 = 7.07")


def check_forms() -> None:
    cyc = reduced_cycle(CYCLE_28[0])
    i = cyc.index(CYCLE_28[0])
    require(cyc[i:] + cyc[:i] == CYCLE_28, f"principal cycle of disc 28: {cyc}")
    require(cycle_minimum((1, 0, -7)) == 1 and cycle_minimum((2, 2, -3)) == 1, "disc 28 minimum")
    rng = random.Random("forms")
    seen = 0
    while seen < 150:
        f = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        d = disc(f)
        if d <= 0 or isqrt(d) ** 2 == d:
            continue
        # no smaller value in a box, and a vector that takes the minimum
        low = cycle_minimum(f)
        require(brute_minimum(f, 30) >= low, f"{f} takes a value below its cycle minimum")
        require(abs(form_value(f, *minimum_witness(f))) == low, f"no witness for the minimum of {f}")
        seen += 1


def check_admissibility() -> None:
    for r, sigma in [(1, -1), (2, -1), (3, -1), (3, 1), (4, 1), (5, 1)]:
        top = r if sigma == -1 else r - 1
        seqs = [[]]
        for _ in range(5):
            seqs = [s + [d] for s in seqs for d in range(top + 2)]
            for s in seqs:
                require(admissible(s, r, sigma) == lex_admissible(s, r, sigma), f"local and lex rules on {s}")


def check_kernels_and_minima() -> None:
    f = form_of(FIB)
    require(f[0] * 9 + f[1] * 3 + f[2] == 5, "Fibonacci coding at (3, 1) is 5-to-1")
    check_kernel(FIB, 3, 1, FIB_KERNEL)
    moved = ["2/5,3/5" if p == "2/5,4/5" else p for p in FIB_KERNEL]
    require(_refused(check_kernel, FIB, 3, 1, moved), "a moved kernel point was accepted")
    require(_refused(check_kernel, FIB, 3, 1, FIB_KERNEL[:4]), "a missing kernel point was accepted")

    # [[5,3],[2,1]]: form 3x^2 - 4xy - 2y^2, minimum 2 at (0, 1), kernel {0, (1/2, 0)}
    m = (5, 3, 2, 1)
    xi, eta = homoclinic_point(m, 0, 1)

    def output(minimum: int) -> dict:
        spec = {"matrix": [[5, 3], [2, 1]], "p": 0, "q": 1, "K": minimum, "xi": _qs_dict(xi), "eta": _qs_dict(eta)}
        return {"m": minimum, "specs": [spec], "kernels": [["0,0", "1/2,0"]]}

    op = {"matrix": list(m)}
    check_mac(op, output(2))
    for wrong in (1, 3):
        require(_refused(check_mac, op, output(wrong)), f"minimum {wrong} accepted for minimum 2")


def check_units_with_sympy() -> None:
    """The traces whose unit index passes 6, below 400, against units from sympy."""
    from sympy import factorint
    from sympy.solvers.diophantine.diophantine import diop_DN

    bad = unit_index_failures(400)
    require(sorted(p for p in bad if p[0] < 400) == sorted(ANALYZE_FAILURES), "known analyze failures")
    for r in range(1, 400):
        for sigma in (-1, 1):
            D = r * r - 4 * sigma
            if D <= 4:
                continue
            d0 = 1
            for p, e in factorint(D).items():
                d0 *= p if e % 2 else 1
            delta = d0 if d0 % 4 == 1 else 4 * d0
            sols = [(x, y) for n in (-4, 4) for x, y in diop_DN(delta, n) if x > 0 and y > 0]
            x, y = min(sols, key=lambda s: s[1])
            # eps = (x + y sqrt(delta))/2 and lam = (r + sqrt(D))/2 live in Q(sqrt(d0))
            c = 1 if delta == d0 else 2
            f = isqrt(D // d0)
            eps, lam = QS(x, y * c, 2, d0), QS(r, f, 2, d0)
            power, j = eps, 1
            while (lam - power).sign() > 0:
                power, j = power * eps, j + 1
            require(power == lam, f"lam is not a power of the fundamental unit at ({r}, {sigma})")
            require((j >= 7) == ((r, sigma) in bad), f"unit index at ({r}, {sigma}) is {j}")


def check_smith_with_sympy() -> None:
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix([[3, 1], [1, 2]]))
    require(abs(snf[0, 0] * snf[1, 1]) == len(FIB_KERNEL) and abs(snf[0, 0]) == 1, "Smith form of the Fibonacci kernel")


def real_decode(python: str, src: str) -> dict:
    case = DECODE_CASE
    argv = [
        "decode",
        "--matrix=" + ",".join(str(x) for x in case["matrix"]),
        "--param=" + ",".join(str(x) for x in case["param"]),
        "--point",
        ",".join(case["target"]),
        "--window",
        str(case["window"]),
        "--format",
        "json",
    ]
    code = "import io, sys; sys.path.insert(0, sys.argv[1]); from torcode import cli; o = io.StringIO(); " \
        "rc = cli.main(sys.argv[2:], out=o); print(o.getvalue()); sys.exit(rc)"
    proc = subprocess.run([python, "-c", code, src, *argv], capture_output=True, text=True, timeout=60)
    require(proc.returncode == 0, f"self-check decode failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def check_decode_planted(python: str, src: str) -> None:
    data = real_decode(python, src)
    check_decode(DECODE_CASE, data)
    body, _, off = data["word"].rpartition("@")
    left, digits, right = body.split("|")
    core = [int(d) for d in digits.split()]
    i = 1 - int(off)  # the digit at index 1 carries weight lam^-1
    core[i] = 1 - core[i]
    flipped = dict(data, word=f"{left}|{' '.join(map(str, core))}|{right}@{off}")
    require(_refused(check_decode, DECODE_CASE, flipped), "a flipped digit was accepted")
    require(_refused(check_decode, DECODE_CASE, dict(data, round_trip_exact=True)), "a false exact round trip was accepted")
    near = dict(DECODE_CASE, target=[str(Fraction(1, 5) + Fraction(1, 10**6)), "2/5"])
    require(_refused(check_decode, near, data), "a word for another target was accepted")


def run_all(python: str = sys.executable, src: str = "src") -> None:
    check_arithmetic()
    check_forms()
    check_admissibility()
    check_kernels_and_minima()
    check_units_with_sympy()
    check_smith_with_sympy()
    check_decode_planted(python, src)


if __name__ == "__main__":
    run_all()
    print("self-check passed")

"""Checks of each command's JSON output against ``oracles``.

Every check raises ``CheckError`` on the first disagreement.  An operation
is a dict made by ``panels``: ``argv``, ``matrix`` (row-major a, b, c, d)
and, depending on the command, ``power`` (the exponent n when the matrix
was built as K^n), ``param``, ``target`` and ``window``.
"""
from __future__ import annotations

import json
from fractions import Fraction

from oracles import (
    QS,
    CheckError,
    Mat,
    admissible,
    companion,
    content,
    cycle_minimum,
    form_of,
    form_value,
    homoclinic_point,
    lam_power,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    parse_word,
    qs_from_dict,
    require,
    torus_distance,
    word_value,
)


def _flat(rows: list[list[int]]) -> Mat:
    return (rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def check_kernel(m: Mat, p: int, q: int, points: list[str]) -> None:
    """The kernel of B = [[p, q], -det(M) (p, q) M^-1] on the torus: exactly
    |det B| distinct points of [0, 1)^2, each sent into Z^2 by B."""
    sigma = mat_det(m)
    z, t = mat_mul((p, q, 0, 0), mat_inv(m))[:2]
    b = (p, q, -sigma * z, -sigma * t)
    order = abs(mat_det(b))
    pts = set()
    for text in points:
        xs, ys = text.split(",")
        x, y = Fraction(xs), Fraction(ys)
        require(0 <= x < 1 and 0 <= y < 1, f"kernel point {text} outside [0,1)^2")
        bx, by = b[0] * x + b[1] * y, b[2] * x + b[3] * y
        require(bx.denominator == 1 and by.denominator == 1, f"kernel point {text} not sent into Z^2 by {b}")
        pts.add((x, y))
    require(len(pts) == len(points), "kernel lists a point twice")
    require(len(pts) == order, f"kernel has {len(pts)} points, expected {order}")


def check_specs(m: Mat, minimum: int, specs: list[dict], kernels: list[list[str]]) -> None:
    f = form_of(m)
    require(len(specs) >= 1, "no minimal coding reported")
    require(len(kernels) == len(specs), "one kernel per spec expected")
    for spec, kernel in zip(specs, kernels):
        require(_flat(spec["matrix"]) == m, "spec matrix differs from the input")
        p, q = spec["p"], spec["q"]
        require(abs(form_value(f, p, q)) == minimum, f"|f({p},{q})| != {minimum}")
        require(spec["K"] == minimum, "spec multiplicity differs from the minimum")
        xi, eta = homoclinic_point(m, p, q)
        require(qs_from_dict(spec["xi"]) == xi and qs_from_dict(spec["eta"]) == eta, "homoclinic point differs")
        check_kernel(m, p, q, kernel)


def _check_minimum(m: Mat, reported: int) -> int:
    expected = cycle_minimum(form_of(m))
    require(reported == expected, f"minimum {reported} != cycle minimum {expected}")
    return expected


def check_mac(op: dict, data: dict) -> None:
    m = tuple(op["matrix"])
    minimum = _check_minimum(m, data["m"])
    check_specs(m, minimum, data["specs"], data["kernels"])


def check_analyze(op: dict, data: dict) -> None:
    m = tuple(op["matrix"])
    a, b, c, d = m
    r, sigma = a + d, mat_det(m)
    D = r * r - 4 * sigma
    require(r > 0, "panel matrices have positive trace")
    require(_flat(data["input"]["normalized_matrix"]) == m and not data["input"]["trace_negated"], "normalization")
    require((data["r"], data["sigma"], data["D"]) == (r, sigma, D), "trace, determinant or discriminant")
    f = form_of(m)
    require((data["form"]["a"], data["form"]["b"], data["form"]["c"]) == f, "associated form")
    minimum = _check_minimum(m, data["integral_minimum"])
    require(data["mac"]["m"] == minimum, "mac minimum differs from the integral minimum")
    check_specs(m, minimum, data["mac"]["specs"], data["mac"]["kernels"])

    if data["primitive"]:
        require(data["root"] is None, "primitive matrix with a root")
        require(op.get("power", 1) == 1, f"a {op.get('power')}-th power reported primitive")
        if content(f) == 1:
            # the commutant is Z[lam]; lam is a proper power there only at (3, +1)
            require((r, sigma) != (3, 1), "(3, +1) reported primitive")
    else:
        root, n = _flat(data["root"]["matrix"]), data["root"]["exponent"]
        require(n >= 2 and mat_pow(root, n) == m, "reported root does not give the matrix")
        require(n % op.get("power", 1) == 0, "root exponent is not a multiple of the construction's")
        if content(f) == 1:
            require((r, sigma) == (3, 1), "content-1 matrix reported as a proper power")

    bac = data["bac"]
    require(bac["admits"] == (minimum == 1), "bijective verdict differs from minimum == 1")
    if bac["admits"]:
        bmat = _flat(bac["conjugator"])
        require(mat_det(bmat) in (1, -1), "conjugator is not unimodular")
        require(mat_mul(bmat, m) == mat_mul(companion(r, sigma), bmat), "conjugator does not conjugate")
        exceptional = (r, sigma) == (3, 1)
        gen = QS(1, 1, 2, 5) if exceptional else QS(r, 1, 2, D)
        require(qs_from_dict(bac["generator"]) == gen, "unit generator")
        require(bac["exceptional"] == exceptional, "exceptional flag")


def check_decode(op: dict, data: dict) -> None:
    """The word is admissible, lies in the window, and evaluates, exactly in
    Q(lam), to within lam^(2 - window) of the target in each coordinate."""
    m = tuple(op["matrix"])
    r, sigma = m[0] + m[3], mat_det(m)
    D = r * r - 4 * sigma
    window = op["window"]
    left, core, right, offset = parse_word(data["word"])
    require(left == "zero" and right == "zero", f"unexpected tails in {data['word']}")
    require(admissible(core, r, sigma), f"word {data['word']} is not admissible")
    if core:
        require(-window <= offset and offset + len(core) - 1 <= window, "word leaves the window")
    p, q = op["param"]
    value = word_value(core, offset, r, sigma).to_qs()
    tol = lam_power(r, sigma, 2 - window).to_qs()
    exact = True
    for coord, target, key in zip(homoclinic_point(m, p, q), op["target"], ("x", "y")):
        image = value * coord
        tgt = QS.rational(Fraction(target), D)
        require((tol - torus_distance(image - tgt)).sign() > 0, f"{key} farther than lam^(2-window) from the target")
        require(qs_from_dict(data["point"][key]) == image.frac(), f"reported {key} differs from the word's value")
        exact = exact and (image - tgt).frac().is_zero()
    require(data["round_trip_exact"] == exact, "round_trip_exact disagrees with the word's value")


CHECKERS = {"analyze": check_analyze, "mac": check_mac, "decode": check_decode}


def check_output(op: dict, rc: int, stdout: str, stderr: str) -> bool:
    """True when the operation completed and checked; False for its expected
    failure.  Raises CheckError for anything else."""
    expect = op.get("expect_failure")
    if rc != 0:
        require(expect is not None, f"exit {rc}: {stderr.strip()}")
        require(rc == expect["rc"] and expect["message"] in stderr, f"exit {rc}, expected {expect}: {stderr.strip()}")
        return False
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc
    CHECKERS[op["argv"][0]](op, data)
    return True


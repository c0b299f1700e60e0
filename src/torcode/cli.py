"""Command-line front end.

Subcommands: analyze, bac, mac, encode, decode, forms, plot.  Matrices are
given row-major as "a,b,c,d", parameters as "p,q", words in the textual
"tail|digits|tail @offset" form, points as "x,y" with rational coordinates.

Exit codes: 0 on success, 1 on invalid input, 2 when a search bound or
window was exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import betasym, coding, glz, svgplot
from .binforms import (
    BinForm,
    UnsupportedRangeError,
    associated_form,
    cycle,
    equivalent,
    integral_minimum,
    integral_minimum_brute,
    reduce_form,
    represent,
    transform_to_dict,
)
from .betasym import InadmissibleWordError
from .intmat import Mat2
from .schemas import SCHEMA_VERSION


class InputError(ValueError):
    pass


def _parse_matrix(text: str) -> Mat2:
    try:
        m = Mat2.from_string(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not m.is_unimodular():
        raise InputError(f"matrix {text!r} has determinant {m.det}, expected +-1")
    return m


def _parse_pair(text: str) -> tuple[int, int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2:
        raise InputError(f"expected two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_form(text: str) -> BinForm:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise InputError(f"expected three comma-separated integers, got {text!r}")
    try:
        return BinForm(int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise InputError(str(exc)) from exc

def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2:
        raise InputError(f"expected two comma-separated rationals, got {text!r}")
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def _parse_k_range(text: str) -> tuple[int, int]:
    sep = ":" if ":" in text else ","
    parts = text.split(sep)
    if len(parts) != 2:
        raise InputError(f"expected LO:HI, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise InputError("empty power range")
    return lo, hi


def _normalized(matrix: Mat2) -> tuple[Mat2, bool, list[str]]:
    if not glz.is_hyperbolic(matrix):
        raise InputError(f"matrix {matrix} is not hyperbolic")
    norm, negated = glz.normalize_trace(matrix)
    warnings = []
    if negated:
        warnings.append(
            "trace was negative; analysis applies to the negated matrix, whose "
            "homoclinic points coincide and whose words are index-reversed"
        )
    return norm, negated, warnings


def _emit(data: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(data, out, indent=2)
        out.write("\n")
        return
    _emit_text(data, out)


def _emit_text(data: dict, out, prefix: str = "") -> None:
    for key, value in data.items():
        if isinstance(value, dict):
            out.write(f"{prefix}{key}:\n")
            _emit_text(value, out, prefix + "  ")
        elif isinstance(value, list):
            out.write(f"{prefix}{key}:\n")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, out, prefix + "  ")
                    out.write(f"{prefix}  --\n")
                elif isinstance(item, list):
                    out.write(f"{prefix}  {' '.join(str(x) for x in item)}\n")
                else:
                    out.write(f"{prefix}  {item}\n")
        else:
            out.write(f"{prefix}{key}: {value}\n")


def build_report(matrix: Mat2) -> dict:
    """Full analysis of one matrix; every field reproduces a library result."""
    norm, negated, warnings = _normalized(matrix)
    r, sigma, D = glz.require_hyperbolic(norm)
    form = associated_form(norm)
    m_min = integral_minimum(form)
    primitivity = glz.is_primitive(norm)
    primitive, rootinfo = primitivity
    root = None
    if not primitive:
        root = {"matrix": rootinfo[0].to_lists(), "exponent": rootinfo[1]}
        warnings.append(f"matrix is a {rootinfo[1]}-th power of {rootinfo[0]}")
    info = coding.bac_family_info(norm)
    if info is None:
        bac = {"admits": False, "conjugator": None, "generator": None, "exceptional": False}
    else:
        conj, gen, exceptional = info
        bac = {
            "admits": True,
            "conjugator": conj.to_lists(),
            "generator": gen.to_dict(),
            "exceptional": exceptional,
        }
        if exceptional:
            warnings.append("exceptional case: the coding family is generated by a square root of the eigenvalue")
    m_val, specs = coding.enumerate_mac(norm, primitivity)
    kernels = [coding.semiconjugacy_kernel(norm, s.point.p, s.point.q).as_strings() for s in specs]
    return {
        "schema": SCHEMA_VERSION,
        "input": {
            "matrix": matrix.to_lists(),
            "normalized_matrix": norm.to_lists(),
            "trace_negated": negated,
        },
        "r": r,
        "sigma": sigma,
        "D": D,
        "form": form.to_dict(),
        "integral_minimum": m_min,
        "primitive": primitive,
        "root": root,
        "bac": bac,
        "mac": {"m": m_val, "specs": [s.to_dict() for s in specs], "kernels": kernels},
        "warnings": warnings,
    }


def cmd_analyze(args, out) -> int:
    report = build_report(_parse_matrix(args.matrix))
    _emit(report, args.format, out)
    return 0


def cmd_bac(args, out) -> int:
    norm, _, warnings = _normalized(_parse_matrix(args.matrix))
    k_range = _parse_k_range(args.k_range)
    info = coding.bac_family_info(norm)
    specs = coding.enumerate_bac(norm, k_range, info) if info else []
    data = {
        "schema": SCHEMA_VERSION,
        "generator": info[1].to_dict() if info else None,
        "exceptional": bool(info and info[2]),
        "specs": [s.to_dict() for s in specs],
        "warnings": warnings,
    }
    _emit(data, args.format, out)
    return 0


def cmd_mac(args, out) -> int:
    norm, _, warnings = _normalized(_parse_matrix(args.matrix))
    m_val, specs = coding.enumerate_mac(norm)
    kernels = [coding.semiconjugacy_kernel(norm, s.point.p, s.point.q).as_strings() for s in specs]
    data = {
        "schema": SCHEMA_VERSION,
        "m": m_val,
        "specs": [s.to_dict() for s in specs],
        "kernels": kernels,
        "warnings": warnings,
    }
    _emit(data, args.format, out)
    return 0


def _spec_from_args(args) -> coding.CodingSpec:
    norm, _, _ = _normalized(_parse_matrix(args.matrix))
    p, q = _parse_pair(args.param)
    return coding.make_spec(norm, p, q)


def cmd_encode(args, out) -> int:
    spec = _spec_from_args(args)
    r, sigma, _ = spec.params
    word = betasym.word_from_text(args.word, r, sigma)
    point = coding.phi_eval(spec, word)
    data = {"schema": SCHEMA_VERSION, "word": word.to_text(), "point": point.to_dict()}
    _emit(data, args.format, out)
    return 0


def cmd_decode(args, out) -> int:
    spec = _spec_from_args(args)
    if spec.multiplicity != 1:
        raise InputError(f"decoding needs a bijective coding; this one is {spec.multiplicity}-to-1")
    if args.window < 1:
        raise InputError("window must be positive")
    fx, fy = _parse_point(args.point)
    _, _, D = spec.params
    target = coding.TorusPoint.from_fractions(fx, fy, D)
    word = coding.decode(spec, target, args.window)  # admissible: decode checks it
    image = coding.phi_eval_admissible(spec, word)
    exact = image.x == target.x and image.y == target.y
    data = {
        "schema": SCHEMA_VERSION,
        "word": word.to_text(),
        "point": image.to_dict(),
        "round_trip_exact": exact,
    }
    _emit(data, args.format, out)
    return 0


def cmd_forms(args, out) -> int:
    f = _parse_form(args.form)
    data: dict = {"schema": SCHEMA_VERSION, "form": f.to_dict()}
    if args.action == "reduce":
        g, t = reduce_form(f)
        data["reduced"] = g.to_dict()
        data["transform"] = transform_to_dict(t)
    elif args.action == "cycle":
        data["cycle"] = [g.to_dict() for g in cycle(f).forms]
    elif args.action == "equiv":
        if args.other is None:
            raise InputError("equiv needs a second form")
        g = _parse_form(args.other)
        t = equivalent(f, g)
        data["equivalent"] = t is not None
        data["transform"] = transform_to_dict(t) if t is not None else None
    elif args.action == "min":
        value = integral_minimum(f)
        if args.bound:
            oracle = integral_minimum_brute(f, args.bound)
            if oracle != value:
                raise RuntimeError(f"cycle minimum {value} disagrees with brute-force {oracle}")
        data["minimum"] = value
    elif args.action == "represent":
        if args.target is None:
            raise InputError("represent needs a target integer")
        data["target"] = args.target
        data["solutions"] = [list(v) for v in represent(f, args.target)]
    else:  # pragma: no cover
        raise InputError(f"unknown forms action {args.action!r}")
    _emit(data, args.format, out)
    return 0


def cmd_plot(args, out) -> int:
    spec = _spec_from_args(args)
    r, sigma, _ = spec.params
    domain = coding.fundamental_domain(spec)
    pi_poly = coding.pi_polygon(r, sigma)
    if spec.multiplicity == 1:
        kernel_pts = [(Fraction(0), Fraction(0))]
    else:
        base = coding.enumerate_bac(spec.matrix, (0, 0))
        if base:
            kernel = coding.kernel_of_coding(spec, base[0])
        else:
            kernel = coding.semiconjugacy_kernel(spec.matrix, spec.point.p, spec.point.q)
        kernel_pts = list(kernel.elements or ())
    note = f"fundamental domain area = {spec.multiplicity} (exact: {domain.area})"
    svg = svgplot.render_coding_plot(domain.vertices, pi_poly.vertices, kernel_pts, note)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    out.write(f"wrote {args.svg}\n")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torcode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=True, param=False):
        if matrix:
            p.add_argument("--matrix", required=True, help='row-major "a,b,c,d"')
        if param:
            p.add_argument("--param", required=True, help='coding parameters "p,q"')
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="full report for one matrix")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bac", help="enumerate bijective codings")
    common(p)
    p.add_argument("--k-range", default="-3:3", help="power window LO:HI")
    p.set_defaults(func=cmd_bac)

    p = sub.add_parser("mac", help="enumerate minimal codings")
    common(p)
    p.set_defaults(func=cmd_mac)

    p = sub.add_parser("encode", help="evaluate the coding map on a word")
    common(p, param=True)
    p.add_argument("--word", required=True, help='word "tail|digits|tail @offset"')
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="invert a bijective coding at a point")
    common(p, param=True)
    p.add_argument("--point", required=True, help='target "x,y" with rational coordinates')
    p.add_argument("--window", type=int, default=32)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("forms", help="binary quadratic form tools")
    p.add_argument("action", choices=("reduce", "cycle", "equiv", "min", "represent"))
    p.add_argument("form", help='form "a,b,c"')
    p.add_argument("other", nargs="?", help="second form for equiv")
    p.add_argument("--target", type=int, help="target integer for represent")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--bound", type=int, default=0, help="bound for brute-force cross-check")
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("plot", help="SVG of the fundamental domain and kernel")
    common(p, param=True)
    p.add_argument("--svg", required=True, help="output path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args, out)
    except UnsupportedRangeError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 2
    except (InputError, InadmissibleWordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

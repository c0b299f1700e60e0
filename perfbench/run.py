"""Benchmark of the torcode CLI: analyze, mac and decode.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a torcode checkout.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones named in BENCHMARK.json.  Raw per-operation figures go to
perfbench/results/.  See perfbench/README.md for the method.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import panels  # noqa: E402
import selfcheck  # noqa: E402
from checks import CheckError, check_output  # noqa: E402

MODULES = ("qfield", "intmat", "binforms", "glz", "betasym", "coding", "cli")
IMPORTED = ("torcode",) + tuple(f"torcode.{m}" for m in MODULES + ("schemas", "svgplot"))
SPAN_METRICS = [
    # unit search
    ("qfield.squarefree_split", ("calls", "self_ms")),
    ("qfield.pell_fundamental_unit", ("calls", "self_ms")),
    ("qfield.unit_group_of_order", ("calls", "self_ms")),
    ("glz.is_primitive", ("calls", "self_ms")),
    # field arithmetic
    ("qfield.QuadExt.new", ("calls",)),
    ("qfield.QuadExt.mul", ("calls",)),
    ("qfield.QuadExt.pow", ("calls",)),
    ("qfield.QuadExt.floor", ("calls",)),
    ("qfield.QuadExt.cmp", ("calls",)),
    ("qfield.dominant_eigenvalue", ("calls",)),
    ("betasym.compactum_for", ("calls",)),
    ("betasym.eff_value", ("calls", "self_ms")),
    ("betasym.is_admissible", ("calls", "self_ms")),
    ("betasym.make_word", ("calls", "self_ms")),
    ("coding.decode", ("calls", "self_ms")),
    ("coding.phi_eval", ("calls", "self_ms")),
    # kernels and output
    ("glz.kernel_group", ("calls", "self_ms", "elements")),
    ("intmat.smith_normal_form", ("calls", "self_ms")),
    ("qfield.QuadExt.approx", ("calls", "self_ms")),
    # forms
    ("binforms.reduce_form", ("calls", "self_ms")),
    ("binforms.properly_equivalent", ("calls", "self_ms")),
    ("binforms.represent", ("calls", "self_ms")),
    ("binforms.integral_minimum", ("calls", "self_ms")),
    ("glz.conjugator_to_companion", ("calls", "self_ms")),
    ("coding.make_spec", ("calls", "self_ms")),
    ("coding.enumerate_mac", ("calls", "self_ms")),
    ("coding.bac_family_info", ("calls", "self_ms")),
    ("coding.semiconjugacy_kernel", ("calls", "self_ms")),
]
SETUP_GROUPS, SETUP_PER_GROUP = 6, 5
IMPORTTIME_RUNS = 5
MIN_PASSES, MAX_PASSES = 3, 40


class BenchError(RuntimeError):
    pass


def _python_cmd(src: str, *flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {src!r}); import torcode.cli"]


def measure_setup(src: str) -> float:
    """Seconds from a fresh interpreter to torcode.cli imported, bytecode warm:
    the median over groups of each group's best."""
    cmd = _python_cmd(src)
    subprocess.run(cmd, check=True)  # writes the bytecode cache
    bests = []
    for _ in range(SETUP_GROUPS):
        best = math.inf
        for _ in range(SETUP_PER_GROUP):
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True)
            best = min(best, time.perf_counter() - t0)
        bests.append(best)
    return statistics.median(bests)


def measure_imports(src: str) -> dict[str, float]:
    """Self import time of each torcode module in ms (-X importtime), best of several."""
    best: dict[str, float] = {}
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)")
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(_python_cmd(src, "-X", "importtime"), capture_output=True, text=True, check=True)
        for us, name in pattern.findall(proc.stderr):
            if name in IMPORTED:
                best[name] = min(best.get(name, math.inf), int(us) / 1000)
    missing = set(IMPORTED) - set(best)
    if missing:
        raise BenchError(f"-X importtime did not report {sorted(missing)}")
    return best


def run_measurer(src: str, ops: list[dict], seconds: float, trace: bool, min_passes: int) -> dict:
    job = {
        "src": src,
        "argvs": [op["argv"] for op in ops],
        "seconds": seconds,
        "min_passes": min_passes,
        "max_passes": MAX_PASSES,
        "trace": trace,
    }
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise BenchError(f"measuring process failed:\n{proc.stderr}")
    passes, current, stats = [], {"ops": [], "outputs": []}, None
    for line in proc.stdout.splitlines():
        kind, *rest = json.loads(line)
        if kind == "op":
            current["ops"].append(rest[:4])
            current["outputs"].append(rest[4:])
        elif kind == "stats":
            stats = rest[0]
        else:
            current["maxrss_kb"] = rest[0]
            passes.append(current)
            current = {"ops": [], "outputs": []}
    result = {"passes": passes}
    if trace:
        result["traced"] = dict(passes.pop(), stats=stats)
    return result


def check_passes(ops: list[dict], result: dict) -> list[bool]:
    """Check the first pass's outputs; every later pass must repeat them."""
    first = result["passes"][0]
    digests = [op[3] for op in first["ops"]]
    for other in result["passes"][1:] + [result.get("traced")]:
        if other is not None and [op[3] for op in other["ops"]] != digests:
            raise CheckError("outputs differ between passes")
    completed = []
    for op, (rc, _, _, _), (stdout, stderr) in zip(ops, first["ops"], first["outputs"]):
        try:
            completed.append(check_output(op, rc, stdout, stderr))
        except CheckError as exc:
            raise CheckError(f"{' '.join(op['argv'])}: {exc}") from exc
    return completed


def end_to_end(result: dict, completed: list[bool], setup_s: float) -> dict[str, tuple[float, str]]:
    passes = result["passes"]
    best_ns = [min(p["ops"][i][1] for p in passes) for i in range(len(completed))]
    best_instr = [min(p["ops"][i][2] for p in passes) for i in range(len(completed))]
    done = sum(completed)
    # a failed operation ranks above every completed one
    ranked = sorted(ns / 1e6 if ok else math.inf for ns, ok in zip(best_ns, completed))
    p90 = ranked[math.ceil(0.9 * len(ranked)) - 1]
    return {
        "ops_per_s": (done / (sum(best_ns) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(ranked), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "instr_per_op": (sum(best_instr) / done, "instructions"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(result: dict, completed: list[bool], imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    import tracing

    traced = result["traced"]
    stats = traced["stats"]
    out: dict[str, tuple[float, str]] = {}
    totals = tracing.module_totals(stats)
    for m in MODULES:
        ns, instr = totals.get(m, (0, 0))
        out[f"{m}.self_ms"] = (ns / 1e6, "ms")
        out[f"{m}.self_instr"] = (instr, "instructions")
    for name in IMPORTED:
        out[f"{name.split('.')[-1]}.import_ms"] = (imports[name], "ms")
    for name, fields in SPAN_METRICS:
        calls, ns, _, elements = stats.get(name, (0, 0, 0, 0))
        values = {"calls": (calls, "count"), "self_ms": (ns / 1e6, "ms"), "elements": (elements, "count")}
        for field in fields:
            out[f"{name}.{field}"] = values[field]
    stdout = [o[0] for o in result["passes"][0]["outputs"]]
    out["cli.output_bytes"] = (sum(len(s.encode()) for s in stdout), "bytes")
    pass_ms = sum(op[1] for op in traced["ops"]) / 1e6
    passes = result["passes"]
    untraced_ms = sum(min(p["ops"][i][1] for p in passes) for i in range(len(completed))) / 1e6
    attributed_ms = sum(ns for ns, _ in totals.values()) / 1e6
    out["trace.pass_ms"] = (pass_ms, "ms")
    out["trace.untraced_pass_ms"] = (untraced_ms, "ms")
    out["trace.overhead_pct"] = (100 * (pass_ms / untraced_ms - 1), "%")
    out["trace.unattributed_ms"] = (pass_ms - attributed_ms, "ms")
    return out


def declared_metrics(root: str, key: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _report(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    body = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": body})


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, smoke: bool = False) -> tuple[bool, str]:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "torcode", "cli.py")):
        raise BenchError(f"no torcode sources under {src}; run from the root of a torcode checkout")
    setup_s = 0.0 if trace or smoke else measure_setup(src)
    imports = measure_imports(src) if trace else {}
    selfcheck.run_all(sys.executable, src)
    ops = panels.smoke_panel(workload, seed) if smoke else panels.PANELS[workload](seed)
    # a traced run spends half its time on the untraced passes, leaving room for the traced one
    result = run_measurer(src, ops, seconds / 2 if trace else seconds, trace, 1 if smoke else MIN_PASSES)

    n_passes = len(result["passes"]) + (1 if trace else 0)
    correct, completed = True, [False] * len(ops)
    try:
        completed = check_passes(ops, result)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    attempted = len(ops) * n_passes
    failed = (len(ops) - sum(completed)) * n_passes
    if not correct:
        return False, _report(False, attempted, failed, {})
    metrics = per_layer(result, completed, imports) if trace else end_to_end(result, completed, setup_s)
    if not smoke:
        declared = declared_metrics(root, "per_layer" if trace else "end_to_end")
        if sorted(declared) != sorted(metrics):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    _save(root, workload, seed, trace, ops, result, metrics)
    return True, _report(True, attempted, failed, metrics)


def _save(root, workload, seed, trace, ops, result, metrics) -> None:
    out_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    raw = {
        "argv": [op["argv"] for op in ops],
        "passes": [{"maxrss_kb": p["maxrss_kb"], "ops": [o[:3] for o in p["ops"]]} for p in result["passes"]],
        "metrics": metrics,
    }
    if trace:
        raw["stats"] = result["traced"]["stats"]
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(panels.PANELS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check every workload on a tiny panel, one pass")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.smoke:
            ok = True
            for workload in sorted(panels.PANELS):
                for trace in (False, True):
                    good, line = run(workload, args.seed, 0, trace, root, smoke=True)
                    summary = json.loads(line)
                    n = len(summary.pop("metrics"))
                    print(f"{workload} trace={int(trace)}: {json.dumps(summary)}, {n} metrics")
                    ok = ok and good
            return 0 if ok else 1
        if args.workload is None:
            parser.error("--workload is required")
        good, line = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, CheckError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())

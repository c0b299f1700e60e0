"""The measuring process: imports torcode.cli, then times a panel in passes.

Reads a JSON job on stdin: {"src", "argvs", "seconds", "min_passes",
"max_passes", "trace"}.  After set-up (torcode.cli imported, the panel
parsed) every pass runs in a child forked from that same state, one child
at a time, so nothing a pass memoises can speed up a later one.  Each
operation is a closed loop call of ``torcode.cli.main(argv, out=StringIO)``
timed with ``perf_counter_ns`` and counted in user-space instructions.

Streams JSON lines on stdout, written by each pass child as it goes so
that neither process holds a pass in memory (which would show in the peak
RSS):  ["op", exit code, ns, instructions, output digest] per operation,
with stdout and stderr appended in the first pass; ["stats", {...}] after
the traced pass (see ``tracing``), made only when "trace" is set; and
["end", peak RSS of the child in KiB] after each pass.

This process never loads the benchmark's oracles or sympy.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback

import perfcount
import tracing


def _write(line) -> None:
    data = (json.dumps(line) + "\n").encode()
    while data:
        data = data[os.write(1, data) :]


def _child(argvs, full_outputs, traced) -> None:
    import torcode.cli

    counter = perfcount.InstructionCounter()
    if traced:
        tracer = tracing.Tracer(counter.read)
        tracing.install(tracer)
    main = torcode.cli.main
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stderr = sys.stderr, err
        counter.start()
        t0 = time.perf_counter_ns()
        try:
            rc = main(argv, out=out)
        except Exception:  # a crash is a result to report, not a reason to stop
            rc = -1
            err.write(traceback.format_exc())
        t1 = time.perf_counter_ns()
        instructions = counter.stop()
        sys.stderr = saved
        stdout, stderr = out.getvalue(), err.getvalue()
        line = ["op", rc, t1 - t0, instructions, hashlib.sha1((stdout + "\0" + stderr).encode()).hexdigest()]
        _write(line + [stdout, stderr] if full_outputs else line)
    if traced:
        _write(["stats", tracer.stats])


def run_pass(argvs, full_outputs=False, traced=False) -> None:
    """Fork one child, let it run every operation, and wait for it."""
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            _child(argvs, full_outputs, traced)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass child failed with status {status}")
    _write(["end", usage.ru_maxrss])


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import torcode.cli

    where = os.path.dirname(os.path.abspath(torcode.cli.__file__))
    if where != os.path.join(os.path.abspath(job["src"]), "torcode"):
        raise RuntimeError(f"torcode imported from {where}, not from {job['src']}")
    perfcount.InstructionCounter().close()  # fail now if the counter is not available

    argvs = job["argvs"]
    passes = 0
    began = time.monotonic()
    while passes < job["max_passes"]:
        t0 = time.monotonic()
        run_pass(argvs, full_outputs=passes == 0)
        passes += 1
        took = time.monotonic() - t0
        if passes >= job["min_passes"] and time.monotonic() - began + took > job["seconds"]:
            break
    if job["trace"]:
        run_pass(argvs, traced=True)


if __name__ == "__main__":
    main()

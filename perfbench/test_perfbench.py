"""The benchmark's own tests: ``python3 -m pytest perfbench``.

They run the oracle self-check, every workload's checks on a tiny panel
(``run.py --smoke``), and the refusal to run without torcode sources.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import panels  # noqa: E402
import selfcheck  # noqa: E402


def test_self_check():
    selfcheck.run_all(sys.executable, os.path.join(ROOT, "src"))


def test_panels_are_seeded():
    for workload, make in panels.PANELS.items():
        assert make(7) == make(7), workload
        assert make(7) != make(8), workload
        assert len(make(7)) >= 100, workload


def test_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count('"correct": true') == 2 * len(panels.PANELS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "decode", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

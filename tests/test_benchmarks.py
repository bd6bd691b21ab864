"""The benchmark scripts still run against the current package: each one
checks its own answers, so a nonzero exit means an API or result drift."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import submine

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(submine.__file__).resolve().parent.parent)


CASES = [
    ("bench_codec.py", ["--repeat", "1", "--loops", "20"]),
    ("bench_quasi.py", ["--repeat", "1"]),
    ("bench_cache.py", ["--repeat", "1"]),
    ("bench_kernels.py", ["--repeat", "1"]),
    ("bench_gmatch.py", ["--repeat", "1"]),
    ("bench_cliques.py", ["--repeat", "1"]),
    ("bench_queue.py", ["--repeat", "1"]),
    ("bench_load.py", ["--sizes", "50000:250000", "--repeat", "1"]),
    ("bench_results.py", ["--sizes", "5000:25000", "--repeat", "1"]),
]


def test_every_bench_script_has_a_case():
    # CI runs the scripts only through this module, so a new script
    # without a case would never run.
    scripts = sorted(p.name for p in (ROOT / "benchmarks").glob("*.py"))
    assert scripts == sorted(script for script, _ in CASES)


@pytest.mark.parametrize("script,args", CASES)
def test_bench_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

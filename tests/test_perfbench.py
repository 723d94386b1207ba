"""The benchmark's contract with the program, checked before any timed run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # Fails when a fdlab function the benchmark wraps disappears, or when
    # a traced run's results differ from an untraced run's bits.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr

"""The benchmark's contract with the program, checked before any timed run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Prints the backend a plan runs on.
_BACKEND = """
import fdlab
grid = fdlab.Grid(8)
plan = fdlab.build_plan(fdlab.build_equations(fdlab.FlowParams()), "sn", grid)
print(fdlab.cbackend.KERNELS.lookup(plan).backend)
"""


def _run(argv, env=None):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_self_test_passes():
    # Fails when a fdlab function the benchmark wraps disappears, or when
    # a traced run's results differ from an untraced run's bits.
    done = _run(["perfbench/run.py", "--self-test"])
    assert done.returncode == 0, done.stdout + done.stderr


def test_benchmark_gates_hold_on_the_numpy_fallback(tmp_path):
    # With no compiler on PATH every kernel runs on the numpy reference,
    # which must pass the benchmark's own gates: the counter table, the
    # exchanges per step, agreement with bl, traced equal to untraced.
    empty = tmp_path / "bin"
    empty.mkdir()
    env = {**os.environ, "PATH": str(empty), "PYTHONPATH": str(ROOT / "src")}
    backend = _run(["-c", _BACKEND], env)
    assert backend.stdout.strip() == "numpy", backend.stdout + backend.stderr
    done = _run(["perfbench/run.py", "--self-test"], env)
    assert done.returncode == 0, done.stdout + done.stderr

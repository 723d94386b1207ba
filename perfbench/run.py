#!/usr/bin/env python3
"""Interleaved Taylor-Green benchmark of fdlab's six kernel variants.

Run from the repository root:

    python3 perfbench/run.py --workload tgv32 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # everything
    python3 perfbench/run.py --self-test                        # 16^3 check

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
the median seconds of one RK3 step per variant (``step_s.<v>``) and the
set-up seconds from calling ``fdlab.run`` to its iteration-0 record
(``setup_s``). With ``--trace 1`` each round also runs every variant
with spans around fdlab's module-level functions, prints the end-to-end
metrics of the untraced half, and reports the per-layer metrics, whose
spans it also writes to .perfbench_out/. Lines before the last one give provenance and every
metric with its unit, sample count, quartiles and tail percentile; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The program under test is imported from ``src/`` of the
checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench_out"


def load_fdlab():
    """Import fdlab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fdlab
    except ImportError as err:
        sys.exit(f"perfbench: cannot import fdlab from {src}: {err}")
    if Path(fdlab.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: fdlab was imported from {fdlab.__file__}, not {src}")
    return fdlab


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _first_line(argv: list[str]) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else "unavailable"


def provenance() -> dict:
    import numpy as np

    model = next((line.split(":", 1)[1].strip()
                  for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Data", "Unified"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    revision = (_first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
                if (ROOT / ".git").exists() else "unavailable (not a git checkout)")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fdlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": _first_line(["gcc", "--version"]),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
    }


def _cache_bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else 0


def working_sets(workload, l3: int) -> list[str]:
    """Computed bytes of each variant's arrays against L3: the padded
    fields every FieldStore holds, the variant's work arrays, and the 5
    unpadded RK accumulators."""
    import fdlab
    from harness import EXPECTED_COUNTERS, VARIANTS

    grid = fdlab.Grid(workload.n)
    padded = math.prod(grid.padded_shape) * 8
    base = len(fdlab.FieldStore(grid).names())
    lines = []
    for v in VARIANTS:
        arrays = base + EXPECTED_COUNTERS[v][1]
        total = arrays * padded + 5 * workload.n ** 3 * 8
        where = "exceeds" if total > l3 else "fits in"
        lines.append(f"working set {v}: {arrays} padded arrays, "
                     f"{total / 1e6:.1f} MB computed, {where} L3 "
                     f"({l3 / 1e6:.1f} MB)")
    return lines


def bench_workload(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (printable lines, metrics, attempted,
    failed)."""
    import harness

    workload = harness.WORKLOADS[name]
    m = harness.measure(workload, seed, seconds, trace)
    shown = metrics = harness.end_to_end(m)
    if trace:
        # The untraced half of a traced measurement still gives the
        # end-to-end figures; they are printed, but the result carries
        # only the per-layer metrics.
        metrics = harness.per_layer(m)
        shown = {**shown, **metrics}
        _write_spans(m)
    lines = [f"workload {name}: n={workload.n} workers={workload.workers} "
             f"steps/run={workload.steps} seed={seed} rounds={m.rounds} "
             f"trace={int(trace)}"]
    lines += [f"  {key:32s} {metric.value:.6g} {metric.unit}  {metric.describe()}"
              for key, metric in shown.items()]
    return lines, metrics, len(m.runs), m.failed


def _write_spans(m) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans_{m.workload.name}_seed{m.seed}.json"
    spans = [{"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
              "end": s.end, **s.attrs} for s in m.tracer.spans]
    path.write_text(json.dumps(spans))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A metric that failed runs left without samples is null, not NaN,
        # which JSON cannot carry.
        "metrics": {key: {"value": metric.value if math.isfinite(metric.value)
                          else None, "unit": metric.unit}
                    for key, metric in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    load_fdlab()
    import harness  # imports fdlab, so only after load_fdlab

    if args.self_test:
        import selftest

        return selftest.main(ROOT)
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in harness.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)} or all")

    host = provenance()
    print("provenance " + json.dumps(host, sort_keys=True))
    l3 = _cache_bytes(host["caches"].get("L3", ""))
    attempted = failed = 0
    combined = {}
    for name in names:
        for line in working_sets(harness.WORKLOADS[name], l3):
            print(f"{name} {line}")
        lines, metrics, tried, bad = bench_workload(
            name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        attempted += tried
        failed += bad
        prefix = f"{name}:" if len(names) > 1 else ""
        combined.update({prefix + key: metric for key, metric in metrics.items()})
    print(result_line(failed == 0, attempted, failed, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

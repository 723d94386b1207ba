"""Benchmark self-test on a 16^3 grid, a few seconds long.

Checks that a traced run leaves the program's results byte-identical to
an untraced one, that the traced functions are restored afterwards, and
that every metric BENCHMARK.json names is emitted with its unit.
Run it as ``python3 perfbench/run.py --self-test``; it exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
from pathlib import Path

import fdlab
import harness
import tracer

TINY = harness.Workload("tiny", n=16, workers=1, steps=2)


def _fail(message: str) -> int:
    print(f"self-test FAILED: {message}")
    return 1


def main(root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    originals = {(mod, attr): getattr(getattr(fdlab, mod), attr)
                 for mod, attr in tracer.TRACED}

    # One round, whatever it takes: a zero budget stops after the first.
    m = harness.measure(TINY, seed=0, seconds=0.0, trace=True)
    if any(getattr(getattr(fdlab, mod), attr) is not original
           for (mod, attr), original in originals.items()):
        return _fail("a traced function was not restored")
    errors = [e for r in m.runs for e in r.errors]
    if errors:
        return _fail("; ".join(errors))
    for variant in harness.VARIANTS:
        (plain,), (traced,) = m.of(variant), m.of(variant, traced=True)
        for name in plain.fields:
            if plain.fields[name].tobytes() != traced.fields[name].tobytes():
                return _fail(f"{variant}/{name} differs between traced and untraced")

    for kind, metrics in (("end_to_end", harness.end_to_end(m)),
                          ("per_layer", harness.per_layer(m))):
        for entry in spec[kind]:
            got = metrics.get(entry["name"])
            if got is None:
                return _fail(f"{kind} metric {entry['name']} not emitted")
            if got.unit != entry["unit"]:
                return _fail(f"{entry['name']} has unit {got.unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        extra = set(metrics) - {entry["name"] for entry in spec[kind]}
        if extra:
            return _fail(f"{kind} metrics missing from BENCHMARK.json: {sorted(extra)}")
    print(f"self-test passed: {len(m.runs)} runs, traced results byte-identical, "
          "every BENCHMARK.json metric emitted with its unit")
    return 0

"""Command-line benchmark orchestrator.

Runs variant-by-repeat matrices on the vortex problem, checks that all
storage variants advance the same solution, and exports kernel plans.
Exit codes: 0 on success (validation must PASS), 1 on runtime or I/O
failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from dataclasses import astuple, fields

from .bench import AggregateRow, emit_reports, run_matrix, validate_mode
from .equations import build_equations
from .errors import FdlabError, PowerError
from .grid import Grid
from .plan import VARIANTS, build_plan, dump_plan
from .power import parse_power_spec
from .solver import RunConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdlab",
        description=(
            "Benchmark six storage variants of a compressible flow kernel "
            "and report runtime, power, and energy per iteration."
        ),
    )
    parser.add_argument(
        "--variant",
        choices=(*VARIANTS, "all"),
        default="all",
        help="storage variant to run, or all six (default: all)",
    )
    parser.add_argument(
        "--grid", type=int, default=64, metavar="N",
        help="points per axis, at least 8 (default: 64)",
    )
    parser.add_argument(
        "--steps", type=int, default=500, metavar="K",
        help="timesteps per run (default: 500)",
    )
    timestep = parser.add_mutually_exclusive_group()
    timestep.add_argument(
        "--dt", type=float, metavar="X", help="fixed timestep"
    )
    timestep.add_argument(
        "--cfl", type=float, metavar="C",
        help="acoustic CFL number for the computed timestep (default: 0.4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, metavar="R",
        help="repeats per variant (default: 5)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="threads each kernel call runs on (default: 1)",
    )
    parser.add_argument(
        "--power-source", default="none", metavar="SPEC",
        help=(
            "power meter: none | mock:const=W | mock:ramp=a,b | "
            "counter:PATH[,PATH...][,max=V] | cmd:ARGV (default: none)"
        ),
    )
    parser.add_argument(
        "--emit-plan", metavar="PATH",
        help="write the kernel plan dump for the selected variant(s) and exit",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="check that every variant matches the baseline, then exit",
    )
    parser.add_argument(
        "--out", default="fdlab_out", metavar="DIR",
        help="directory for CSV reports and snapshots (default: fdlab_out)",
    )
    parser.add_argument(
        "--snapshot", type=int, default=0, metavar="EVERY",
        help="write a field snapshot every EVERY steps (default: off)",
    )
    return parser


def _check_power_spec(spec: str, parser: argparse.ArgumentParser) -> None:
    """Reject malformed meter specs at parse time without side effects:
    a cmd: spec is split but never spawned."""
    spec = spec.strip()
    if spec.startswith("cmd:"):
        if not shlex.split(spec[4:]):
            parser.error("power source cmd: needs a command line")
        return
    try:
        parse_power_spec(spec).close()
    except PowerError as err:
        parser.error(str(err))


def parse_config(argv=None) -> tuple[RunConfig, argparse.Namespace]:
    """Turn CLI flags into a run configuration plus report options."""
    parser = _build_parser()
    options = parser.parse_args(argv)
    try:
        config = RunConfig(
            n=options.grid,
            steps=options.steps,
            policy=options.variant if options.variant != "all" else "bl",
            dt=options.dt,
            cfl=options.cfl if options.cfl is not None else 0.4,
            repeats=options.repeats,
            out_dir=options.out,
            snapshot_every=options.snapshot,
            workers=options.workers,
        )
    except (FdlabError, ValueError) as err:
        parser.error(str(err))
    _check_power_spec(options.power_source, parser)
    return config, options


def _selected_variants(options) -> list[str]:
    if options.variant == "all":
        return list(VARIANTS)
    return [options.variant]


def _emit_plan(config: RunConfig, options) -> int:
    grid = Grid(config.n)
    eqs = build_equations(config.params)
    variants = _selected_variants(options)
    if len(variants) == 1:
        text = dump_plan(build_plan(eqs, variants[0], grid))
    else:
        # bundle all six dumps in canonical order, delimited by headers
        pieces = []
        for variant in variants:
            pieces.append(f"### plan {variant}\n")
            pieces.append(dump_plan(build_plan(eqs, variant, grid)))
        text = "".join(pieces)
    with open(options.emit_plan, "w") as fh:
        fh.write(text)
    print(f"wrote {options.emit_plan}")
    return 0


def _run_validation(config: RunConfig, options) -> int:
    print(
        f"validating {len(VARIANTS)} variants at n={config.n}"
        f" for {config.steps} steps"
    )
    report = validate_mode(config)
    for variant, per_component in report.deviations.items():
        worst = max(per_component.values())
        print(f"  {variant:<4} max relative deviation {worst:.3e}")
    for message in report.messages:
        print(f"  {message}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"validation: {verdict} (tolerance {report.tolerance:.0e})")
    return 0 if report.passed else 1


def _format_cell(value) -> str:
    if value is None:
        return "-"
    return format(float(value), ".6g")


def _run_benchmarks(config: RunConfig, options) -> int:
    os.makedirs(options.out, exist_ok=True)
    variants = _selected_variants(options)
    report = run_matrix(
        config, variants,
        source_factory=lambda: parse_power_spec(options.power_source),
    )
    json_path = os.path.join(options.out, "provenance.json")
    written = emit_reports(report, options.out, json_path=json_path)
    print("  ".join(f"{f.name:>14}" for f in fields(AggregateRow)))
    for row in report.aggregates:
        variant, *values = astuple(row)
        cells = (variant, *(_format_cell(value) for value in values))
        print("  ".join(f"{cell:>14}" for cell in cells))
    print(f"wrote {len(written)} files under {options.out}")
    return 0


def main(argv=None) -> int:
    config, options = parse_config(argv)
    try:
        if options.emit_plan:
            return _emit_plan(config, options)
        if options.validate:
            return _run_validation(config, options)
        return _run_benchmarks(config, options)
    except (FdlabError, OSError) as err:
        print(f"fdlab: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark matrices, cross-variant validation, and report emission.

A benchmark run produces one row per (variant, repeat) pair plus the full
per-iteration monitor series. Aggregation averages over repeats, and the
headline ratios divide the baseline's numbers by each variant's, so the
baseline scores 1.0 on both axes by construction.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import __version__, cbackend
from .errors import ReportError
from .expr import COMPONENT_NAMES
from .plan import VARIANTS
from .power import IterationRecord
from .solver import RunConfig, run

BASELINE = "bl"

VALIDATION_TOLERANCE = 1e-10

SERIES_HEADER = ("iteration", "t_s", "power_w", "cum_energy_j")

@dataclass(frozen=True)
class RunRow:
    """One completed benchmark run."""

    variant: str
    repeat: int
    n: int
    steps: int
    runtime_s: float
    total_energy_j: float | None = None
    mean_power_w: float | None = None
    warmup: bool = False


@dataclass(frozen=True)
class AggregateRow:
    """Per-variant means over repeats plus ratios against the baseline.

    Ratio fields stay None when the baseline is absent from the matrix
    or, for energy, when any repeat lacked an energy reading.
    """

    variant: str
    mean_runtime_s: float
    speedup: float | None = None
    mean_energy_j: float | None = None
    energy_saving: float | None = None


RUNS_HEADER = tuple(f.name for f in fields(RunRow))

#: The plan counters each summary row carries after its aggregate.
_SUMMARY_COUNTERS = ("ops_per_timestep", "extra_arrays", "locals")

SUMMARY_HEADER = (*(f.name for f in fields(AggregateRow)), *_SUMMARY_COUNTERS)


@dataclass
class BenchReport:
    """Everything a benchmark session measured, ready for emission."""

    config: dict
    rows: list[RunRow] = field(default_factory=list)
    aggregates: list[AggregateRow] = field(default_factory=list)
    series: dict[tuple[str, int], list[IterationRecord]] = field(
        default_factory=dict
    )
    counters: dict[str, dict] = field(default_factory=dict)
    backend: dict = field(default_factory=dict)


def _variant_rank(variant: str) -> int:
    try:
        return list(VARIANTS).index(variant)
    except ValueError:
        raise ReportError(f"unknown variant {variant!r}") from None


def compute_ratios(values: dict[str, float]) -> dict[str, float]:
    """Baseline-over-variant ratios; the baseline maps to exactly 1.0.

    Works for runtimes (speedup) and energies (saving) alike. Ratios stay
    at full precision; rounding belongs to the presentation layer.
    """
    if BASELINE not in values:
        raise ReportError(
            "ratios are relative to the baseline; include the bl variant"
        )
    base = values[BASELINE]
    if base <= 0:
        raise ReportError(f"baseline value must be positive, got {base}")
    ratios = {}
    for variant, value in values.items():
        if variant == BASELINE:
            ratios[variant] = 1.0
        else:
            if value <= 0:
                raise ReportError(
                    f"{variant} value must be positive, got {value}"
                )
            ratios[variant] = base / value
    return ratios


def aggregate(rows: list[RunRow]) -> list[AggregateRow]:
    """Mean runtime and energy per variant, with baseline-relative ratios.

    Every repeat participates in the mean, warm-up included; the per-run
    rows keep the warm-up flag so downstream tooling can drop it.
    """
    if not rows:
        return []
    by_variant: dict[str, list[RunRow]] = {}
    for row in rows:
        by_variant.setdefault(row.variant, []).append(row)
    order = sorted(by_variant, key=_variant_rank)

    runtimes = {
        variant: sum(r.runtime_s for r in group) / len(group)
        for variant, group in by_variant.items()
    }
    speedups = compute_ratios(runtimes) if BASELINE in runtimes else {}

    energies: dict[str, float] = {}
    for variant, group in by_variant.items():
        readings = [r.total_energy_j for r in group if r.total_energy_j is not None]
        if len(readings) == len(group):
            energies[variant] = sum(readings) / len(readings)
    savings = (
        compute_ratios(energies)
        if BASELINE in energies and energies
        else {}
    )

    return [
        AggregateRow(
            variant=variant,
            mean_runtime_s=runtimes[variant],
            speedup=speedups.get(variant),
            mean_energy_j=energies.get(variant),
            energy_saving=savings.get(variant),
        )
        for variant in order
    ]


def run_matrix(
    config: RunConfig,
    variants: list[str],
    source_factory=None,
) -> BenchReport:
    """Run every requested variant `repeats` times, strictly sequentially.

    `source_factory` builds a fresh power source per run so cumulative
    counters never leak across runs; None means no power monitoring
    beyond timestamps.
    """
    report = BenchReport(config=_config_dict(config, variants))
    plans = []
    for variant in sorted(variants, key=_variant_rank):
        run_config = replace(config, policy=variant)
        for repeat in range(1, config.repeats + 1):
            source = source_factory() if source_factory is not None else None
            try:
                result = run(run_config, source=source)
            finally:
                if source is not None:
                    source.close()
            summary = result.summary
            report.rows.append(
                RunRow(
                    variant=variant,
                    repeat=repeat,
                    n=config.n,
                    steps=config.steps,
                    runtime_s=summary["runtime_s"],
                    total_energy_j=summary.get("total_energy_j"),
                    mean_power_w=summary.get("mean_power_w"),
                    warmup=repeat == 1,
                )
            )
            report.series[(variant, repeat)] = list(result.records)
        counters = result.plan.counters
        report.counters[variant] = {
            **asdict(counters),
            "ops_per_timestep": counters.ops_per_timestep(config.n),
        }
        plans.append(result.plan)
    report.backend = cbackend.KERNELS.describe(plans)
    report.rows.sort(key=lambda r: (_variant_rank(r.variant), r.repeat))
    report.aggregates = aggregate(report.rows)
    return report


def _config_dict(config: RunConfig, variants: list[str]) -> dict:
    doc = asdict(config)
    doc["variants"] = list(variants)
    return doc


@dataclass
class ValidationReport:
    """Cross-variant equivalence check against the baseline."""

    passed: bool
    tolerance: float
    deviations: dict[str, dict[str, float]]
    messages: list[str]


def validate_mode(config: RunConfig) -> ValidationReport:
    """Advance all six variants through `run` and compare final states.

    Each variant runs `config` with its own policy and no snapshots, so
    all start from the identical vortex state and take the same number of
    steps with the same dt. The report carries, per variant and conserved
    component, the max-norm deviation from the baseline relative to that
    component's own max-norm scale.
    """
    solutions: dict[str, dict[str, np.ndarray]] = {}
    messages: list[str] = []
    failed = False
    for variant in VARIANTS:
        try:
            result = run(replace(config, policy=variant, snapshot_every=0))
        except Exception as err:
            messages.append(f"{variant}: run failed: {err}")
            failed = True
            continue
        # copies, so the variant's work arrays are freed with its store
        solutions[variant] = {
            name: result.store.interior(name).copy() for name in COMPONENT_NAMES
        }

    deviations: dict[str, dict[str, float]] = {}
    if BASELINE not in solutions:
        return ValidationReport(False, VALIDATION_TOLERANCE, deviations, messages)

    baseline = solutions[BASELINE]
    for variant, fields in solutions.items():
        if variant == BASELINE:
            continue
        per_component = {}
        for name in COMPONENT_NAMES:
            reference_field = baseline[name]
            if not np.isfinite(fields[name]).all() or not np.isfinite(
                reference_field
            ).all():
                messages.append(f"{variant}/{name}: non-finite values")
                per_component[name] = math.inf
                failed = True
                continue
            scale = float(np.abs(reference_field).max())
            deviation = float(np.abs(fields[name] - reference_field).max())
            if deviation == 0.0:
                per_component[name] = 0.0
            elif scale == 0.0:
                per_component[name] = math.inf
            else:
                per_component[name] = deviation / scale
        deviations[variant] = per_component
        worst = max(per_component.values())
        if not worst <= VALIDATION_TOLERANCE:
            messages.append(
                f"{variant}: max relative deviation {worst:.3e} exceeds"
                f" {VALIDATION_TOLERANCE:.0e}"
            )
            failed = True

    return ValidationReport(not failed, VALIDATION_TOLERANCE, deviations, messages)


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_value(item) for item in row])


def emit_reports(report: BenchReport, out_dir, json_path=None) -> list[str]:
    """Write the series, run, and summary CSV files; optionally provenance.

    Output is deterministic for a fixed report: stable row ordering and
    6-significant-digit floats. An empty report still writes the run and
    summary headers so downstream parsers find their columns.
    """
    out = str(out_dir)
    written = []

    for (variant, repeat) in sorted(
        report.series, key=lambda key: (_variant_rank(key[0]), key[1])
    ):
        records = report.series[(variant, repeat)]
        path = f"{out}/series_{variant}_rep{repeat}.csv"
        _write_csv(
            path,
            SERIES_HEADER,
            (
                (r.iteration, r.t, r.power, r.cumulative_energy)
                for r in records
            ),
        )
        written.append(path)

    runs_path = f"{out}/runs.csv"
    _write_csv(runs_path, RUNS_HEADER, (astuple(r) for r in report.rows))
    written.append(runs_path)

    summary_path = f"{out}/summary.csv"
    _write_csv(
        summary_path,
        SUMMARY_HEADER,
        (
            (
                *astuple(a),
                *(report.counters.get(a.variant, {}).get(k) for k in _SUMMARY_COUNTERS),
            )
            for a in report.aggregates
        ),
    )
    written.append(summary_path)

    if json_path is not None:
        doc = {
            "config": report.config,
            "versions": {
                "package": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "counters": report.counters,
            "backend": report.backend,
            "runs": [asdict(row) for row in report.rows],
            "aggregates": [asdict(row) for row in report.aggregates],
        }
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(str(json_path))

    return written

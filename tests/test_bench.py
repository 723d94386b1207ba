"""Benchmark aggregation, ratio math, validation, and report files."""

import json
import math

import numpy as np
import pytest

from fdlab import bench, solver
from fdlab.bench import (
    AggregateRow,
    BenchReport,
    RunRow,
    aggregate,
    compute_ratios,
    emit_reports,
    run_matrix,
    validate_mode,
)
from fdlab.equations import FlowParams, build_equations
from fdlab.errors import ReportError
from fdlab.grid import FieldStore, Grid
from fdlab.plan import VARIANTS, build_plan
from fdlab.power import IterationRecord, MockSource
from fdlab.solver import RunConfig

# measured wall-clock seconds for 500 steps at 512^2 x 256, per platform;
# the published speed-up and saving columns follow from these by division
CPU_RUNTIMES = {
    "bl": 1216.39, "rs": 715.51, "ss": 690.30,
    "ra": 558.70, "sn": 549.73, "sn2": 559.86,
}
CPU_SPEEDUPS = {
    "bl": 1.00, "rs": 1.70, "ss": 1.76, "ra": 2.18, "sn": 2.21, "sn2": 2.17,
}
KNL_RUNTIMES = {
    "bl": 739.61, "rs": 425.02, "ss": 426.05,
    "ra": 415.59, "sn": 410.96, "sn2": 401.99,
}
KNL_SPEEDUPS = {
    "bl": 1.00, "rs": 1.74, "ss": 1.74, "ra": 1.78, "sn": 1.80, "sn2": 1.84,
}
GPU_RUNTIMES = {
    "bl": 496.29, "rs": 255.52, "ss": 231.25,
    "ra": 234.29, "sn": 297.68, "sn2": 220.45,
}
GPU_SPEEDUPS = {
    "bl": 1.00, "rs": 1.94, "ss": 2.15, "ra": 2.12, "sn": 1.67, "sn2": 2.25,
}
CPU_ENERGY_SAVINGS = {
    "bl": 1.0, "rs": 1.73, "ss": 1.76, "ra": 2.12, "sn": 2.24, "sn2": 2.18,
}
KNL_ENERGY_SAVINGS = {
    "bl": 1.0, "rs": 1.9, "ss": 1.91, "ra": 1.96, "sn": 2.02, "sn2": 2.0,
}


class TestComputeRatios:
    @pytest.mark.parametrize(
        "runtimes,expected",
        [
            (CPU_RUNTIMES, CPU_SPEEDUPS),
            (KNL_RUNTIMES, KNL_SPEEDUPS),
            (GPU_RUNTIMES, GPU_SPEEDUPS),
        ],
        ids=["cpu", "knl", "gpu"],
    )
    def test_published_speedups_to_two_decimals(self, runtimes, expected):
        ratios = compute_ratios(runtimes)
        for variant, target in expected.items():
            assert round(ratios[variant], 2) == target, variant

    @pytest.mark.parametrize(
        "savings",
        [CPU_ENERGY_SAVINGS, KNL_ENERGY_SAVINGS],
        ids=["cpu", "knl"],
    )
    def test_published_energy_savings_round_trip(self, savings):
        base = 40_000.0
        energies = {v: base / s for v, s in savings.items()}
        ratios = compute_ratios(energies)
        for variant, target in savings.items():
            assert round(ratios[variant], 2) == round(target, 2), variant

    def test_baseline_is_exactly_one(self):
        assert compute_ratios({"bl": 123.456, "sn": 61.0})["bl"] == 1.0

    def test_missing_baseline_is_instructive(self):
        with pytest.raises(ReportError, match="include the bl variant"):
            compute_ratios({"sn": 1.0, "rs": 2.0})

    def test_rejects_non_positive_values(self):
        with pytest.raises(ReportError, match="positive"):
            compute_ratios({"bl": 0.0, "sn": 1.0})
        with pytest.raises(ReportError, match="positive"):
            compute_ratios({"bl": 1.0, "sn": -2.0})


def _row(variant, repeat, runtime, energy=None):
    return RunRow(
        variant=variant,
        repeat=repeat,
        n=16,
        steps=4,
        runtime_s=runtime,
        total_energy_j=energy,
        mean_power_w=None,
        warmup=repeat == 1,
    )


class TestAggregate:
    def test_means_and_ratios(self):
        rows = [
            _row("sn", 1, 4.0, 400.0),
            _row("sn", 2, 6.0, 600.0),
            _row("bl", 1, 10.0, 1200.0),
            _row("bl", 2, 10.0, 800.0),
        ]
        aggregates = aggregate(rows)
        assert [a.variant for a in aggregates] == ["bl", "sn"]
        baseline, stored_none = aggregates
        assert baseline.mean_runtime_s == 10.0
        assert baseline.speedup == 1.0
        assert baseline.mean_energy_j == 1000.0
        assert baseline.energy_saving == 1.0
        assert stored_none.mean_runtime_s == 5.0
        assert stored_none.speedup == 2.0
        assert stored_none.energy_saving == 2.0

    def test_all_repeats_count_warmup_included(self):
        rows = [_row("bl", 1, 2.0), _row("bl", 2, 4.0), _row("bl", 3, 6.0)]
        assert aggregate(rows)[0].mean_runtime_s == 4.0
        assert rows[0].warmup and not rows[1].warmup

    def test_partial_energy_leaves_saving_empty(self):
        rows = [
            _row("bl", 1, 1.0, 100.0),
            _row("sn", 1, 0.5, None),
            _row("sn", 2, 0.5, 50.0),
        ]
        aggregates = {a.variant: a for a in aggregate(rows)}
        assert aggregates["sn"].mean_energy_j is None
        assert aggregates["sn"].energy_saving is None
        assert aggregates["bl"].energy_saving == 1.0

    def test_without_baseline_speedups_stay_empty(self):
        aggregates = aggregate([_row("sn", 1, 1.0), _row("ra", 1, 2.0)])
        assert all(a.speedup is None for a in aggregates)
        assert [a.variant for a in aggregates] == ["ra", "sn"]

    def test_empty_input(self):
        assert aggregate([]) == []

    def test_unknown_variant_rejected(self):
        with pytest.raises(ReportError, match="unknown variant"):
            aggregate([_row("xx", 1, 1.0)])


class TestRunMatrix:
    def test_small_matrix_shape(self):
        config = RunConfig(n=16, steps=2, repeats=2, cfl=0.4)
        report = run_matrix(
            config,
            ["sn", "bl"],
            source_factory=lambda: MockSource(lambda t: 100.0),
        )
        assert [(r.variant, r.repeat) for r in report.rows] == [
            ("bl", 1), ("bl", 2), ("sn", 1), ("sn", 2),
        ]
        assert all(r.runtime_s > 0 for r in report.rows)
        assert all(r.total_energy_j is not None for r in report.rows)
        assert report.rows[0].warmup and not report.rows[1].warmup
        assert set(report.series) == {
            ("bl", 1), ("bl", 2), ("sn", 1), ("sn", 2),
        }
        assert all(len(s) == 3 for s in report.series.values())
        assert [a.variant for a in report.aggregates] == ["bl", "sn"]
        assert report.aggregates[0].speedup == 1.0
        counters = report.counters["bl"]
        assert counters["extra_arrays"] == 63
        assert counters["ops_per_timestep"] == counters["ops_per_point"] * 16**3 * 3

    def test_null_matrix_has_no_energy(self):
        config = RunConfig(n=16, steps=1, repeats=1)
        report = run_matrix(config, ["bl"])
        assert report.rows[0].total_energy_j is None
        assert report.aggregates[0].mean_energy_j is None


class TestValidateMode:
    def test_vortex_variants_agree(self):
        report = validate_mode(RunConfig(n=16, steps=2))
        assert report.passed
        assert set(report.deviations) == set(VARIANTS) - {"bl"}
        for per_component in report.deviations.values():
            assert max(per_component.values()) <= report.tolerance

    def test_zero_steps_is_trivially_exact(self):
        report = validate_mode(RunConfig(n=16, steps=0))
        assert report.passed
        for per_component in report.deviations.values():
            assert set(per_component.values()) == {0.0}

    @staticmethod
    def _assert_crooked_sn_fails(monkeypatch):
        perturbed_eqs = build_equations(FlowParams(reynolds=800.0))

        def crooked_build_plan(eqs, variant, grid):
            if variant == "sn":
                return build_plan(perturbed_eqs, variant, grid)
            return build_plan(eqs, variant, grid)

        monkeypatch.setattr(solver, "build_plan", crooked_build_plan)
        report = validate_mode(RunConfig(n=16, steps=2))
        assert not report.passed
        assert any("sn" in m for m in report.messages)
        assert max(report.deviations["sn"].values()) > report.tolerance

    def test_perturbed_plan_fails(self, monkeypatch):
        self._assert_crooked_sn_fails(monkeypatch)

    def test_perturbed_plan_fails_after_the_memo_is_warm(self, monkeypatch):
        # run() calls solver.build_plan on every run, memo or not
        assert validate_mode(RunConfig(n=16, steps=2)).passed
        self._assert_crooked_sn_fails(monkeypatch)

    def test_failed_run_reports_context(self, monkeypatch):
        def explosive_build_plan(eqs, variant, grid):
            plan = build_plan(eqs, variant, grid)
            if variant == "ra":
                raise RuntimeError("synthetic failure")
            return plan

        monkeypatch.setattr(solver, "build_plan", explosive_build_plan)
        report = validate_mode(RunConfig(n=16, steps=1))
        assert not report.passed
        assert any("ra" in m and "failed" in m for m in report.messages)

    def test_writes_no_snapshots(self, tmp_path):
        report = validate_mode(
            RunConfig(n=16, steps=2, snapshot_every=1, out_dir=str(tmp_path))
        )
        assert report.passed
        assert list(tmp_path.iterdir()) == []


def _mini_report(variants=("bl", "sn"), repeats=2, with_energy=True):
    rows = []
    series = {}
    for v_index, variant in enumerate(variants):
        for repeat in range(1, repeats + 1):
            runtime = 10.0 + v_index + 0.25 * repeat
            energy = (1000.0 + 100 * v_index) if with_energy else None
            rows.append(_row(variant, repeat, runtime, energy))
            series[(variant, repeat)] = [
                IterationRecord(
                    iteration=i,
                    t=0.5 * i,
                    power=100.0 if with_energy else None,
                    cumulative_energy=50.0 * i if with_energy else None,
                )
                for i in range(3)
            ]
    eqs = build_equations(FlowParams())
    counters = {}
    for variant in variants:
        c = build_plan(eqs, variant, Grid(16)).counters
        counters[variant] = {**vars(c), "ops_per_timestep": c.ops_per_timestep(16)}
    report = BenchReport(config={"n": 16, "steps": 4})
    report.rows = sorted(rows, key=lambda r: (r.variant, r.repeat))
    report.aggregates = aggregate(rows)
    report.series = series
    report.counters = counters
    return report


class TestEmitReports:
    def test_empty_report_writes_headers_only(self, tmp_path):
        report = BenchReport(config={})
        written = emit_reports(report, tmp_path)
        assert len(written) == 2
        runs_lines = (tmp_path / "runs.csv").read_text().splitlines()
        summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert runs_lines == [
            "variant,repeat,n,steps,runtime_s,total_energy_j,mean_power_w,warmup"
        ]
        assert summary_lines == [
            "variant,mean_runtime_s,speedup,mean_energy_j,energy_saving,"
            "ops_per_timestep,extra_arrays,locals"
        ]

    def test_series_files_and_headers(self, tmp_path):
        report = _mini_report()
        emit_reports(report, tmp_path)
        series = sorted(p.name for p in tmp_path.glob("series_*.csv"))
        assert series == [
            "series_bl_rep1.csv",
            "series_bl_rep2.csv",
            "series_sn_rep1.csv",
            "series_sn_rep2.csv",
        ]
        lines = (tmp_path / "series_bl_rep1.csv").read_text().splitlines()
        assert lines[0] == "iteration,t_s,power_w,cum_energy_j"
        assert lines[1] == "0,0,100,0"
        assert lines[2] == "1,0.5,100,50"

    def test_six_by_five_counts(self, tmp_path):
        report = _mini_report(variants=VARIANTS, repeats=5)
        emit_reports(report, tmp_path)
        assert len(list(tmp_path.glob("series_*.csv"))) == 30
        summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary_lines) == 7

    def test_summary_carries_plan_counters(self, tmp_path):
        report = _mini_report(variants=VARIANTS, repeats=1)
        emit_reports(report, tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        by_variant = {line.split(",")[0]: line.split(",") for line in rows}
        baseline = by_variant["bl"]
        assert baseline[6] == "63"  # extra_arrays
        assert baseline[7] == "0"  # locals
        assert by_variant["sn"][6] == "0"
        assert by_variant["sn"][7] == "63"
        assert int(baseline[5]) == 741 * 16**3 * 3

    def test_six_significant_digits(self, tmp_path):
        report = BenchReport(config={})
        report.rows = [_row("bl", 1, 1216.385678, 1234567.89)]
        report.aggregates = aggregate(report.rows)
        emit_reports(report, tmp_path)
        line = (tmp_path / "runs.csv").read_text().splitlines()[1]
        assert line == "bl,1,16,4,1216.39,1.23457e+06,,1"

    def test_missing_values_are_empty_cells(self, tmp_path):
        report = _mini_report(with_energy=False)
        emit_reports(report, tmp_path)
        line = (tmp_path / "series_bl_rep1.csv").read_text().splitlines()[1]
        assert line == "0,0,,"
        summary = (tmp_path / "summary.csv").read_text().splitlines()[1]
        cells = summary.split(",")
        assert cells[3] == "" and cells[4] == ""

    def test_emission_is_deterministic(self, tmp_path):
        report = _mini_report()
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        emit_reports(report, first, json_path=first / "provenance.json")
        emit_reports(report, second, json_path=second / "provenance.json")
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_json_provenance(self, tmp_path):
        report = _mini_report()
        emit_reports(report, tmp_path, json_path=tmp_path / "provenance.json")
        doc = json.loads((tmp_path / "provenance.json").read_text())
        assert doc["config"] == {"n": 16, "steps": 4}
        assert doc["versions"]["numpy"] == np.__version__
        assert "package" in doc["versions"]
        assert doc["counters"]["bl"]["extra_arrays"] == 63
        assert len(doc["runs"]) == 4
        assert doc["aggregates"][0]["variant"] == "bl"

    def test_unwritable_path_raises_oserror(self, tmp_path):
        report = BenchReport(config={})
        with pytest.raises(OSError):
            emit_reports(report, tmp_path / "missing_dir")

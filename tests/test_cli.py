"""Command-line surface: flags, exit codes, and emitted files."""

import json
import logging

import pytest

from fdlab import cli
from fdlab.bench import ValidationReport
from fdlab.cli import main, parse_config
from fdlab.plan import VARIANTS


def _usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        parse_config(argv)
    assert excinfo.value.code == 2


class TestParseConfig:
    def test_defaults(self):
        config, options = parse_config([])
        assert config.n == 64
        assert config.steps == 500
        assert config.repeats == 5
        assert config.cfl == 0.4
        assert config.dt is None
        assert config.workers == 1
        assert options.variant == "all"
        assert options.power_source == "none"
        assert not options.validate

    def test_explicit_run(self):
        config, options = parse_config(
            ["--variant", "bl", "--grid", "32", "--steps", "100"]
        )
        assert (config.n, config.steps, config.policy) == (32, 100, "bl")
        assert options.variant == "bl"

    def test_dt_flag(self):
        config, _ = parse_config(["--dt", "0.001"])
        assert config.dt == 0.001

    def test_workers_flag(self):
        config, _ = parse_config(["--workers", "2"])
        assert config.workers == 2

    def test_snapshot_and_out(self):
        config, options = parse_config(["--snapshot", "10", "--out", "results"])
        assert config.snapshot_every == 10
        assert config.out_dir == "results"
        assert options.out == "results"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--grid", "7"],
            ["--steps", "-1"],
            ["--repeats", "0"],
            ["--dt", "0"],
            ["--cfl", "-0.2"],
            ["--dt", "0.1", "--cfl", "0.4"],
            ["--variant", "xx"],
            ["--power-source", "mock:const=abc"],
            ["--power-source", "gpuz:x"],
            ["--power-source", "cmd:"],
            ["--snapshot", "-1"],
            ["--no-such-flag"],
            ["--dt", "nan"],
            ["--dt", "inf"],
            ["--cfl", "nan"],
            ["--cfl", "inf"],
            ["--workers", "0"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        _usage_error(argv)


class TestEmitPlan:
    def test_single_variant_roundtrips(self, tmp_path):
        path = tmp_path / "plan.json"
        assert main(["--variant", "bl", "--grid", "16", "--emit-plan", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["policy"] == "bl"
        assert doc["counters"]["extra_arrays"] == 63

    def test_all_variants_bundle(self, tmp_path):
        path = tmp_path / "plans.txt"
        assert main(["--grid", "16", "--emit-plan", str(path)]) == 0
        text = path.read_text()
        for variant in VARIANTS:
            assert f"### plan {variant}\n" in text

    def test_emission_is_byte_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["--variant", "sn2", "--grid", "16", "--emit-plan", str(first)])
        main(["--variant", "sn2", "--grid", "16", "--emit-plan", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestValidate:
    def test_vortex_passes(self, capsys):
        code = main(["--validate", "--grid", "16", "--steps", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: PASS" in out

    def test_failure_maps_to_exit_1(self, monkeypatch, capsys):
        fake = ValidationReport(
            passed=False, tolerance=1e-10, deviations={}, messages=["sn: bad"]
        )
        monkeypatch.setattr(cli, "validate_mode", lambda config: fake)
        code = main(["--validate", "--grid", "16", "--steps", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "validation: FAIL" in out
        assert "sn: bad" in out


class TestBenchmarks:
    def test_single_variant_run(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "--variant", "bl",
                "--grid", "16",
                "--steps", "2",
                "--repeats", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "series_bl_rep1.csv",
            "series_bl_rep2.csv",
            "runs.csv",
            "summary.csv",
            "provenance.json",
        }
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[1].startswith("bl,")
        stdout = capsys.readouterr().out
        assert "mean_runtime_s" in stdout

    def test_power_source_fills_energy_columns(self, tmp_path):
        out = tmp_path / "results"
        code = main(
            [
                "--variant", "bl",
                "--grid", "16",
                "--steps", "2",
                "--repeats", "1",
                "--power-source", "mock:const=50",
                "--out", str(out),
            ]
        )
        assert code == 0
        series = (out / "series_bl_rep1.csv").read_text().splitlines()
        assert series[1].split(",")[2] == "50"
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[3] != ""
        assert summary[4] == "1"

    # "none" is the default every other run here uses
    @pytest.mark.parametrize("spec", ["null", ""])
    def test_null_power_specs_leave_energy_empty(self, tmp_path, spec):
        out = tmp_path / "results"
        code = main(
            [
                "--variant", "bl",
                "--grid", "16",
                "--steps", "1",
                "--repeats", "1",
                "--power-source", spec,
                "--out", str(out),
            ]
        )
        assert code == 0
        series = (out / "series_bl_rep1.csv").read_text().splitlines()
        assert [row.split(",")[2:] for row in series[1:]] == [["", ""]] * 2

    def test_unstartable_meter_degrades(self, tmp_path, caplog):
        out = tmp_path / "results"
        with caplog.at_level(logging.WARNING, logger="fdlab.power"):
            code = main(
                [
                    "--variant", "sn",
                    "--grid", "8",
                    "--steps", "2",
                    "--repeats", "1",
                    "--power-source", f"cmd:{tmp_path / 'no-such-meter'}",
                    "--out", str(out),
                ]
            )
        assert code == 0
        assert (out / "runs.csv").exists()
        warnings = [r.getMessage() for r in caplog.records if r.name == "fdlab.power"]
        assert len(warnings) == 1 and "degraded" in warnings[0]

    def test_non_baseline_variant_runs_without_speedup(self, tmp_path):
        out = tmp_path / "results"
        code = main(
            [
                "--variant", "sn",
                "--grid", "16",
                "--steps", "1",
                "--repeats", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[0] == "sn"
        assert summary[2] == ""

    def test_workers_reach_provenance(self, tmp_path):
        out = tmp_path / "results"
        code = main(
            [
                "--variant", "sn",
                "--grid", "8",
                "--steps", "1",
                "--repeats", "1",
                "--workers", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "provenance.json").read_text())
        assert doc["config"]["workers"] == 2

    def test_snapshots_written(self, tmp_path):
        out = tmp_path / "results"
        code = main(
            [
                "--variant", "bl",
                "--grid", "16",
                "--steps", "2",
                "--repeats", "1",
                "--snapshot", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        snapshots = sorted(p.name for p in out.glob("snapshot_bl_*.bin"))
        assert snapshots == [
            "snapshot_bl_step000001.bin",
            "snapshot_bl_step000002.bin",
        ]

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(
            ["--variant", "bl", "--grid", "16", "--steps", "1",
             "--repeats", "1", "--out", str(blocker)]
        )
        assert code == 1
        assert "fdlab:" in capsys.readouterr().err

    def test_blowup_exits_1(self, tmp_path, capsys):
        code = main(
            ["--variant", "bl", "--grid", "16", "--steps", "5",
             "--repeats", "1", "--dt", "10.0", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "fdlab:" in capsys.readouterr().err

"""Power sources, energy integration, and run summaries."""

import logging
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdlab.errors import PowerError
from fdlab.power import (
    DEFAULT_COUNTER_MAX,
    CommandSource,
    CounterFileSource,
    EnergyIntegrator,
    IterationRecord,
    MockSource,
    NullSource,
    PowerSample,
    PowerSource,
    monitor_sample,
    parse_power_spec,
    summarize,
)


class TestSources:
    def test_null_source_is_timestamp_only(self):
        src = NullSource()
        first = src.read()
        second = src.read()
        assert first.power is None
        assert first.cumulative_energy is None
        assert second.t > first.t
        assert src.describe() == "null"

    def test_source_is_a_context_manager(self):
        with NullSource() as src:
            assert isinstance(src.read(), PowerSample)

    def test_mock_constant(self):
        src = MockSource(lambda t: 100.0, label="mock:const=100")
        sample = src.read()
        assert sample.power == 100.0
        assert sample.cumulative_energy is None
        assert src.describe() == "mock:const=100"

    def test_mock_sees_elapsed_time(self):
        seen = []

        def probe(elapsed):
            seen.append(elapsed)
            return elapsed

        src = MockSource(probe)
        src.read()
        src.read()
        assert len(seen) == 2
        assert 0.0 <= seen[0] <= seen[1]


class TestCounterFileSource:
    def _write(self, path, value):
        path.write_text(f"{value}\n")

    def test_first_read_is_zero_then_deltas(self, tmp_path):
        counter = tmp_path / "energy_uj"
        self._write(counter, 5_000_000)
        src = CounterFileSource([counter])
        assert src.read().cumulative_energy == 0.0
        self._write(counter, 5_750_000)
        sample = src.read()
        assert sample.cumulative_energy == 750_000 * 1e-6

    def test_wrap_correction_keeps_totals_non_decreasing(self, tmp_path):
        counter = tmp_path / "energy_uj"
        src = CounterFileSource([counter], counter_max=1000)
        totals = []
        for raw in (100, 900, 50, 250):
            self._write(counter, raw)
            totals.append(src.read().cumulative_energy)
        assert totals == [0.0, 800 * 1e-6, 950 * 1e-6, 1150 * 1e-6]
        assert totals == sorted(totals)

    def test_wrap_at_default_max(self, tmp_path):
        counter = tmp_path / "energy_uj"
        src = CounterFileSource([counter])
        self._write(counter, DEFAULT_COUNTER_MAX - 1)
        src.read()
        self._write(counter, 5)
        assert src.read().cumulative_energy == 6 * 1e-6

    def test_multiple_paths_are_summed(self, tmp_path):
        a = tmp_path / "a_uj"
        b = tmp_path / "b_uj"
        self._write(a, 0)
        self._write(b, 0)
        src = CounterFileSource([a, b])
        src.read()
        self._write(a, 1_000_000)
        self._write(b, 1_000_000)
        assert src.read().cumulative_energy == pytest.approx(2.0)

    def test_negative_counter_rejected(self, tmp_path):
        counter = tmp_path / "energy_uj"
        self._write(counter, -5)
        src = CounterFileSource([counter])
        with pytest.raises(PowerError, match="negative"):
            src.read()

    def test_needs_paths_and_positive_max(self, tmp_path):
        with pytest.raises(PowerError, match="path"):
            CounterFileSource([])
        with pytest.raises(PowerError, match="positive"):
            CounterFileSource([tmp_path / "x"], counter_max=0)


class TestCommandSource:
    def test_reads_latest_value(self):
        script = "import sys,time; print(37.5); sys.stdout.flush(); time.sleep(30)"
        with CommandSource([sys.executable, "-c", script], timeout=5.0) as src:
            assert src.read().power == 37.5
            # second read returns the latest without blocking on the child
            assert src.read().power == 37.5

    def test_skips_unparseable_lines(self):
        script = (
            "import sys,time; print('hello'); print(''); print(12.25);"
            " sys.stdout.flush(); time.sleep(30)"
        )
        with CommandSource([sys.executable, "-c", script], timeout=5.0) as src:
            assert src.read().power == 12.25

    def test_timeout_without_output(self):
        script = "import time; time.sleep(30)"
        with CommandSource([sys.executable, "-c", script], timeout=0.05) as src:
            with pytest.raises(PowerError, match="no power value"):
                src.read()

    def test_empty_command_rejected(self):
        with pytest.raises(PowerError, match="command"):
            CommandSource([])

    def test_missing_program_degrades(self, tmp_path, caplog):
        with CommandSource([str(tmp_path / "no-such-meter")]) as src:
            with pytest.raises(PowerError, match="cannot start"):
                src.read()
            with caplog.at_level(logging.WARNING, logger="fdlab.power"):
                sample = monitor_sample(src)
        assert sample.power is None and sample.cumulative_energy is None
        assert "degraded" in caplog.records[0].getMessage()

    def test_child_that_exits_silently_fails_at_once(self):
        start = time.perf_counter()
        with CommandSource([sys.executable, "-c", "pass"], timeout=5.0) as src:
            with pytest.raises(PowerError, match="no power value"):
                src.read()
        assert time.perf_counter() - start < 2.5

    def test_silent_child_costs_one_timeout(self):
        script = "import time; time.sleep(30)"
        with CommandSource([sys.executable, "-c", script], timeout=1.0) as src:
            with pytest.raises(PowerError, match="no power value"):
                src.read()
            start = time.perf_counter()
            for _ in range(3):
                with pytest.raises(PowerError, match="no power value"):
                    src.read()
            assert time.perf_counter() - start < 1.5


class TestParseSpec:
    @pytest.mark.parametrize("spec", ["", "none", "null"])
    def test_null_forms(self, spec):
        assert isinstance(parse_power_spec(spec), NullSource)

    def test_mock_const(self):
        src = parse_power_spec("mock:const=200")
        assert src.read().power == 200.0

    def test_mock_ramp(self):
        src = parse_power_spec("mock:ramp=2,3")
        assert src.describe() == "mock:ramp=2,3"
        assert src.read().power >= 2.0

    def test_counter_with_max(self, tmp_path):
        counter = tmp_path / "c_uj"
        counter.write_text("10\n")
        src = parse_power_spec(f"counter:{counter},max=1000")
        assert isinstance(src, CounterFileSource)
        assert src.read().cumulative_energy == 0.0

    def test_cmd_uses_shell_quoting(self):
        src = parse_power_spec(f'cmd:"{sys.executable}" -c "print(5.0)"')
        assert isinstance(src, CommandSource)
        src.close()

    @pytest.mark.parametrize(
        "spec",
        [
            "mock:const=abc",
            "mock:ramp=1",
            "mock:ramp=x,y",
            "mock:weird=1",
            "counter:",
            "counter:max=abc",
            "gpuz:whatever",
        ],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(PowerError):
            parse_power_spec(spec)


class _BoomSource(PowerSource):
    def read(self):
        raise RuntimeError("meter unplugged")


class TestMonitorSample:
    def test_degrades_to_timestamp_and_warns_once(self, caplog):
        src = _BoomSource()
        with caplog.at_level(logging.WARNING, logger="fdlab.power"):
            first = monitor_sample(src)
            second = monitor_sample(src)
        assert first.power is None and first.cumulative_energy is None
        assert second.t > first.t
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "degraded" in warnings[0].getMessage()

    def test_healthy_source_passes_through(self):
        sample = monitor_sample(MockSource(lambda t: 7.0))
        assert sample.power == 7.0


class TestEnergyIntegrator:
    def test_constant_power_trapezoid(self):
        integ = EnergyIntegrator()
        for t in range(11):
            total = integ.update(PowerSample(t=float(t), power=100.0))
        assert total == 1000.0

    def test_prefers_cumulative_counter_over_power(self):
        integ = EnergyIntegrator()
        integ.update(PowerSample(t=0.0, power=999.0, cumulative_energy=0.0))
        total = integ.update(PowerSample(t=1.0, power=999.0, cumulative_energy=2.0))
        assert total == 2.0

    def test_timestamps_must_increase(self):
        integ = EnergyIntegrator()
        integ.update(PowerSample(t=1.0, power=1.0))
        with pytest.raises(PowerError, match="increase"):
            integ.update(PowerSample(t=1.0, power=1.0))

    def test_negative_cumulative_delta_rejected(self):
        integ = EnergyIntegrator()
        integ.update(PowerSample(t=0.0, cumulative_energy=5.0))
        with pytest.raises(PowerError, match="wrap correction"):
            integ.update(PowerSample(t=1.0, cumulative_energy=4.0))

    def test_stays_none_without_energy_information(self):
        integ = EnergyIntegrator()
        assert integ.update(PowerSample(t=0.0)) is None
        assert integ.update(PowerSample(t=1.0)) is None


def _integrate(samples) -> list:
    """What EnergyIntegrator.update returns after each sample."""
    integrator = EnergyIntegrator()
    return [integrator.update(sample) for sample in samples]


class TestIntegrateEnergy:
    def test_constant_100w_over_10s_is_1000j(self):
        samples = [PowerSample(t=float(t), power=100.0) for t in range(11)]
        series = _integrate(samples)
        assert len(series) == 11
        assert series[0] == 0.0
        assert series[-1] == 1000.0

    def test_linear_ramp_exact(self):
        # power(t) = t for t = 0..10; trapezoid is exact on linear signals
        samples = [PowerSample(t=float(t), power=float(t)) for t in range(11)]
        assert _integrate(samples)[-1] == 50.0

    def test_counter_samples_pass_through(self):
        samples = [
            PowerSample(t=0.0, cumulative_energy=0.0),
            PowerSample(t=1.0, cumulative_energy=0.25),
            PowerSample(t=2.0, cumulative_energy=1.0),
        ]
        assert _integrate(samples) == [0.0, 0.25, 1.0]

    def test_leading_sample_without_power_contributes_zero(self):
        samples = [
            PowerSample(t=0.0),
            PowerSample(t=1.0, power=100.0),
            PowerSample(t=2.0, power=100.0),
        ]
        assert _integrate(samples) == [None, 0.0, 100.0]

    def test_splitting_a_series_adds_up(self):
        samples = [
            PowerSample(t=0.0, power=3.0),
            PowerSample(t=1.0, power=5.0),
            PowerSample(t=2.0, power=7.0),
        ]
        whole = _integrate(samples)[-1]
        first = _integrate(samples[:2])[-1]
        second = _integrate(samples[1:])[-1]
        assert first + second == whole == 10.0

    def test_non_monotonic_times_rejected(self):
        samples = [PowerSample(t=1.0, power=1.0), PowerSample(t=0.5, power=1.0)]
        with pytest.raises(PowerError, match="increase"):
            _integrate(samples)

    @settings(max_examples=50, deadline=None)
    @given(
        powers=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=20
        ),
        step=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_non_negative_power_gives_non_decreasing_energy(self, powers, step):
        samples = [
            PowerSample(t=i * step, power=p) for i, p in enumerate(powers)
        ]
        series = _integrate(samples)
        assert all(b >= a for a, b in zip(series, series[1:]))


class TestSummarize:
    def test_counter_run(self):
        records = [
            IterationRecord(iteration=i, t=0.5 * i, cumulative_energy=100.0 * i)
            for i in range(501)
        ]
        summary = summarize(records)
        assert summary["runtime_s"] == 250.0
        assert summary["total_energy_j"] == 50_000.0
        assert summary["energy_per_iteration_j"] == 100.0
        assert summary["mean_power_w"] == 200.0

    def test_power_only_run_has_mean_but_no_total(self):
        records = [
            IterationRecord(iteration=i, t=float(i), power=100.0 + i)
            for i in range(3)
        ]
        summary = summarize(records)
        assert summary["mean_power_w"] == 101.0
        assert "total_energy_j" not in summary
        assert "energy_per_iteration_j" not in summary

    def test_null_run_has_runtime_only(self):
        records = [IterationRecord(iteration=i, t=float(i)) for i in range(3)]
        assert summarize(records) == {"runtime_s": 2.0}

    def test_needs_two_records(self):
        with pytest.raises(PowerError, match="2 records"):
            summarize([IterationRecord(iteration=0, t=0.0)])

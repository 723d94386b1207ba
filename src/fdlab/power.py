"""Pluggable power and energy sampling with trapezoidal integration.

Platform energy counters differ wildly, so the simulation driver talks to
one small interface: a source whose read() returns a timestamped sample
carrying instantaneous power, a cumulative energy counter, or neither.
Four sources cover the practical cases: a null source for timing-only
runs, a mock driven by a function of elapsed time, a counter-file reader
for microjoule counters exposed by the operating system, and a child
process that prints one Watt value per line.
"""

from __future__ import annotations

import logging
import shlex
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass

from .errors import PowerError

log = logging.getLogger(__name__)

DEFAULT_COUNTER_MAX = 2**32 - 1
COMMAND_TIMEOUT_S = 0.05
MICROJOULE = 1e-6


@dataclass(frozen=True)
class PowerSample:
    """One reading: monotonic seconds plus whatever the source provides."""

    t: float
    power: float | None = None
    cumulative_energy: float | None = None


class PowerSource:
    """Base class; read() never blocks past the configured timeout."""

    def read(self) -> PowerSample:
        return PowerSample(t=time.perf_counter())

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return "null"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class NullSource(PowerSource):
    """Timestamps only; used when no meter is configured."""


class MockSource(PowerSource):
    """Power as a function of seconds since the source was opened."""

    def __init__(self, fn, label="mock"):
        self._fn = fn
        self._label = label
        self._t0 = time.perf_counter()

    def read(self) -> PowerSample:
        t = time.perf_counter()
        return PowerSample(t=t, power=float(self._fn(t - self._t0)))

    def describe(self) -> str:
        return self._label


class CounterFileSource(PowerSource):
    """Cumulative microjoule counters, one integer per file, summed across
    paths. Wrap-around is corrected per path as (new - old + max) mod max,
    so the reported Joules are non-decreasing."""

    def __init__(self, paths, counter_max: int = DEFAULT_COUNTER_MAX):
        if not paths:
            raise PowerError("counter source needs at least one path")
        if counter_max <= 0:
            raise PowerError(f"counter wrap max must be positive, got {counter_max}")
        self._paths = tuple(paths)
        self._max = counter_max
        self._previous: list[int | None] = [None] * len(self._paths)
        self._total_uj = 0

    def _read_raw(self, path) -> int:
        with open(path, encoding="ascii") as fh:
            value = int(fh.read().strip())
        if value < 0:
            raise PowerError(f"negative counter value {value} in {path}")
        return value

    def read(self) -> PowerSample:
        for index, path in enumerate(self._paths):
            raw = self._read_raw(path)
            previous = self._previous[index]
            if previous is not None:
                self._total_uj += (raw - previous + self._max) % self._max
            self._previous[index] = raw
        return PowerSample(
            t=time.perf_counter(),
            cumulative_energy=self._total_uj * MICROJOULE,
        )

    def describe(self) -> str:
        return f"counter:{','.join(str(p) for p in self._paths)},max={self._max}"


class CommandSource(PowerSource):
    """Child process printing one decimal Watt value per line.

    A reader thread drains stdout into a one-slot queue; the first read()
    waits up to the timeout for a value, and every read returns the latest
    one without blocking on the child, so a silent child costs one timeout.
    A program that cannot be started makes every read() fail at once.
    """

    def __init__(self, argv, timeout: float = COMMAND_TIMEOUT_S):
        if not argv:
            raise PowerError("command source needs a command line")
        self._argv = tuple(argv)
        self._timeout = timeout
        self._latest: deque[float] = deque(maxlen=1)
        #: Set by the first value, the end of the child's output or the
        #: end of the first read's wait.
        self._ready = threading.Event()
        self._proc: subprocess.Popen | None = None
        self._failure: str | None = None
        try:
            self._proc = subprocess.Popen(
                self._argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
        except OSError as err:
            self._failure = f"cannot start {self._argv[0]!r}: {err}"
            return
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                continue
            self._latest.append(value)
            self._ready.set()
        self._ready.set()  # stdout ended: no value will come to wait for

    def read(self) -> PowerSample:
        if self._failure is not None:
            raise PowerError(self._failure)
        self._ready.wait(self._timeout)
        self._ready.set()
        t = time.perf_counter()
        if not self._latest:
            raise PowerError(f"no power value from {self._argv[0]!r} yet")
        return PowerSample(t=t, power=self._latest[-1])

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def describe(self) -> str:
        return "cmd:" + " ".join(self._argv)


def parse_power_spec(spec: str) -> PowerSource:
    """Build a source from its command-line form.

    none | mock:const=W | mock:ramp=a,b | counter:PATH[,PATH...][,max=V]
    | cmd:"ARGV"
    """
    spec = spec.strip()
    if spec in ("", "none", "null"):
        return NullSource()
    head, _, rest = spec.partition(":")
    if head == "mock":
        mode, _, value = rest.partition("=")
        if mode == "const":
            try:
                watts = float(value)
            except ValueError:
                raise PowerError(f"bad mock constant {value!r}") from None
            return MockSource(lambda t: watts, label=f"mock:const={watts:g}")
        if mode == "ramp":
            parts = value.split(",")
            if len(parts) != 2:
                raise PowerError(f"mock ramp needs a,b got {value!r}")
            try:
                a, b = (float(part) for part in parts)
            except ValueError:
                raise PowerError(f"bad mock ramp {value!r}") from None
            return MockSource(lambda t: a + b * t, label=f"mock:ramp={a:g},{b:g}")
        raise PowerError(f"unknown mock mode {mode!r}")
    if head == "counter":
        counter_max = DEFAULT_COUNTER_MAX
        paths = []
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            if part.startswith("max="):
                try:
                    counter_max = int(part[4:])
                except ValueError:
                    raise PowerError(f"bad counter max {part!r}") from None
            else:
                paths.append(part)
        return CounterFileSource(paths, counter_max)
    if head == "cmd":
        return CommandSource(shlex.split(rest))
    raise PowerError(f"unknown power source {spec!r}")


def monitor_sample(source: PowerSource) -> PowerSample:
    """One sample; on source failure degrade to a timestamp-only sample,
    warning once per source, and never abort the simulation."""
    try:
        return source.read()
    except Exception as err:  # degraded mode must swallow anything
        if not getattr(source, "_degraded", False):
            source._degraded = True
            log.warning("power source %s degraded: %s", source.describe(), err)
        return PowerSample(t=time.perf_counter())


class EnergyIntegrator:
    """Feed samples one at a time; update() returns cumulative Joules so far.

    Prefers the source's own cumulative counter; falls back to trapezoidal
    integration of power over time. Stays None until the samples carry
    any energy information at all.
    """

    def __init__(self):
        self._previous: PowerSample | None = None
        self._total: float | None = None

    def update(self, sample: PowerSample) -> float | None:
        previous = self._previous
        if previous is not None and sample.t <= previous.t:
            raise PowerError(
                f"timestamps must increase, got {previous.t} then {sample.t}"
            )
        if sample.cumulative_energy is not None:
            if self._total is None:
                self._total = 0.0
            if previous is not None and previous.cumulative_energy is not None:
                delta = sample.cumulative_energy - previous.cumulative_energy
                if delta < 0:
                    raise PowerError(
                        f"cumulative energy decreased by {-delta} J; "
                        "wrap correction belongs in the source"
                    )
                self._total += delta
        elif sample.power is not None:
            if self._total is None:
                self._total = 0.0
            if previous is not None and previous.power is not None:
                self._total += (
                    0.5 * (sample.power + previous.power) * (sample.t - previous.t)
                )
        self._previous = sample
        return self._total


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration monitor row: index, seconds since run start, and the
    readings available at that boundary."""

    iteration: int
    t: float
    power: float | None = None
    cumulative_energy: float | None = None


def summarize(records) -> dict[str, float]:
    """Aggregate a run's records; energy keys appear only when the source
    provided energy information."""
    records = list(records)
    if len(records) < 2:
        raise PowerError(f"need at least 2 records, got {len(records)}")
    runtime = records[-1].t - records[0].t
    result = {"runtime_s": runtime}
    iterations = len(records) - 1
    total = records[-1].cumulative_energy
    if total is not None:
        result["total_energy_j"] = total
        result["energy_per_iteration_j"] = total / iterations
        if runtime > 0:
            result["mean_power_w"] = total / runtime
    else:
        readings = [r.power for r in records if r.power is not None]
        if readings:
            result["mean_power_w"] = sum(readings) / len(readings)
    return result

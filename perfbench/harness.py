"""Interleaved measurement of the six kernel variants, with correctness checks.

One operation is one call of ``fdlab.run`` for one variant: a closed loop
from one process, each call starting after the previous one returned. A
round runs every variant once, in an order drawn from the workload seed,
so drift of the host hits all variants alike. Rounds repeat until the
next one would overrun the time budget.

Per-step times are differences of consecutive ``IterationRecord``
timestamps. Every step counts, the first of each call too: on a 2-core
KVM Xeon its excess from touching freshly allocated work arrays stayed
inside the step-to-step noise, and dropping it would cost a third to all
of the samples at 64^3.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import fdlab
from fdlab.bench import VALIDATION_TOLERANCE
from tracer import ExchangeCounter, Tracer

VARIANTS = ("bl", "rs", "ss", "ra", "sn", "sn2")

#: (ops/point, extra arrays, locals/point), the README's exact table.
EXPECTED_COUNTERS = {
    "bl": (741, 63, 0),
    "rs": (1032, 9, 0),
    "ss": (795, 9, 54),
    "ra": (2334, 0, 0),
    "sn": (1056, 0, 63),
    "sn2": (1056, 0, 63),
}

#: Halo exchanges in one RK3 step: 3 stages x (5 primitives, the work
#: arrays the next statements tap, 5 solution fields).
EXPECTED_EXCHANGES_PER_STEP = {
    "bl": 39, "rs": 39, "ss": 39, "ra": 30, "sn": 30, "sn2": 30,
}

POWER_SPEC = "mock:const=95"
CFL = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    workers: int
    steps: int  # RK3 steps per fdlab.run call


#: Why each exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "tgv32": Workload("tgv32", n=32, workers=1, steps=2),
    "tgv64": Workload("tgv64", n=64, workers=1, steps=1),
    "tgv64_w2": Workload("tgv64_w2", n=64, workers=2, steps=1),
}


@dataclass
class VariantRun:
    """What one fdlab.run call left behind, and why it failed if it did."""

    variant: str
    traced: bool
    setup_s: float | None = None
    step_s: list[float] = field(default_factory=list)
    exchanges: list[int] = field(default_factory=list)
    fields: dict[str, np.ndarray] | None = None
    counters: object = None
    errors: list[str] = field(default_factory=list)


@dataclass
class Measurement:
    workload: Workload
    seed: int
    runs: list[VariantRun] = field(default_factory=list)
    tracer: Tracer | None = None
    rounds: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.errors)

    def of(self, variant: str, traced: bool = False) -> list[VariantRun]:
        return [r for r in self.runs if r.variant == variant and r.traced == traced]


def run_variant(workload: Workload, variant: str, counter: ExchangeCounter,
                traced: bool) -> VariantRun:
    """One fdlab.run call with the benchmark's record sink attached."""
    out = VariantRun(variant, traced)
    marks: list[float] = []
    times: list[float] = []

    def sink(record) -> None:
        marks.append(time.perf_counter())
        times.append(record.t)
        out.exchanges.append(counter.count)

    config = fdlab.RunConfig(n=workload.n, steps=workload.steps, policy=variant,
                             cfl=CFL, repeats=1, workers=workload.workers)
    source = fdlab.parse_power_spec(POWER_SPEC)
    start = time.perf_counter()
    try:
        result = fdlab.run(config, source=source, record_sink=sink)
    except Exception:  # a failing run is counted, reported and kept
        out.errors.append(f"{variant}: run raised\n{traceback.format_exc()}")
        result = None
    finally:
        source.close()
    if marks:
        out.setup_s = marks[0] - start
    out.step_s = [b - a for a, b in zip(times, times[1:])]
    out.exchanges = [b - a for a, b in zip(out.exchanges, out.exchanges[1:])]
    if result is not None:
        out.counters = result.plan.counters
        out.fields = {name: result.store.interior(name).copy()
                      for name in fdlab.COMPONENT_NAMES}
        _check_run(workload, out)
    return out


def _check_run(workload: Workload, run: VariantRun) -> None:
    c = run.counters
    got = (c.ops_per_point, c.extra_arrays, c.locals)
    if got != EXPECTED_COUNTERS[run.variant]:
        run.errors.append(f"{run.variant}: counters {got} != "
                          f"{EXPECTED_COUNTERS[run.variant]}")
    if len(run.step_s) != workload.steps:
        run.errors.append(f"{run.variant}: {len(run.step_s)} step records, "
                          f"expected {workload.steps}")
    expected = EXPECTED_EXCHANGES_PER_STEP[run.variant]
    if any(count != expected for count in run.exchanges):
        run.errors.append(f"{run.variant}: exchanges per step {run.exchanges},"
                          f" expected {expected}")
    for name, values in run.fields.items():
        if not np.isfinite(values).all():
            run.errors.append(f"{run.variant}: non-finite {name}")


def relative_deviation(fields: dict, reference: dict) -> float:
    """Largest max-norm difference over the components, each relative to
    the reference component's own max-norm (fdlab's validation rule)."""
    worst = 0.0
    for name, ref in reference.items():
        deviation = float(np.abs(fields[name] - ref).max())
        if deviation == 0.0:
            continue
        scale = float(np.abs(ref).max())
        # A NaN difference must read as the worst case, not lose to max().
        finite = scale and math.isfinite(deviation)
        worst = max(worst, deviation / scale if finite else math.inf)
    return worst


def _check_round(runs: list[VariantRun]) -> None:
    """Every variant within tolerance of bl's run of the same length, and a
    traced run byte-identical to its untraced twin."""
    reference = next((r.fields for r in runs if r.variant == "bl" and not r.traced
                      and r.fields is not None), None)
    untraced = {r.variant: r.fields for r in runs if not r.traced}
    for run in runs:
        if run.fields is None:
            continue
        if reference is None:
            run.errors.append(f"{run.variant}: no bl reference in its round")
            continue
        deviation = relative_deviation(run.fields, reference)
        if not deviation <= VALIDATION_TOLERANCE:
            run.errors.append(f"{run.variant}: deviation {deviation:.3e} from bl"
                              f" exceeds {VALIDATION_TOLERANCE:.0e}")
        twin = untraced.get(run.variant)
        if run.traced and (twin is None or any(
                run.fields[name].tobytes() != twin[name].tobytes()
                for name in run.fields)):
            run.errors.append(f"{run.variant}: traced final fields differ from"
                              " the untraced run's")


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Interleaved rounds until the next round would overrun `seconds`.

    With `trace`, every variant runs once untraced and once traced in each
    round, alternating which goes first, and traced spans are kept.
    """
    order_rng = random.Random(f"{workload.name}/{seed}")
    result = Measurement(workload, seed, tracer=Tracer() if trace else None)
    counter = ExchangeCounter()
    start = time.perf_counter()
    longest = 0.0
    with counter.installed():
        while True:
            round_start = time.perf_counter()
            runs: list[VariantRun] = []
            for variant in order_rng.sample(VARIANTS, len(VARIANTS)):
                modes = (False, True) if trace else (False,)
                if trace and result.rounds % 2:
                    modes = modes[::-1]
                for traced in modes:
                    runs.append(_run_mode(result, workload, variant, counter, traced))
            _check_round(runs)
            for run in runs:
                for message in run.errors:
                    print(message, file=sys.stderr)
            result.runs += runs
            result.rounds += 1
            now = time.perf_counter()
            longest = max(longest, now - round_start)
            if now - start + longest > seconds:
                return result


def _run_mode(result: Measurement, workload: Workload, variant: str,
              counter: ExchangeCounter, traced: bool) -> VariantRun:
    if not traced:
        return run_variant(workload, variant, counter, False)
    tracer = result.tracer
    with tracer.installed(), tracer.span("bench.run", variant=variant,
                                         round=result.rounds):
        return run_variant(workload, variant, counter, True)


# ---------------------------------------------------------------- metrics


@dataclass
class Metric:
    value: float
    unit: str
    samples: list[float] = field(default_factory=list)
    n: int | None = None  # sample count of a value derived without samples

    def describe(self) -> str:
        """Sample count, quartiles and the highest percentile that has at
        least ten samples beyond it."""
        n = len(self.samples) if self.n is None else self.n
        if len(self.samples) < 2:
            return f"n={n}"
        ordered = sorted(self.samples)
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        text = f"n={n} iqr=[{q1:.6g}, {q3:.6g}]"
        for p in (99.9, 99, 95, 90, 75, 50):
            rank = math.ceil(p / 100 * n)
            if n - rank >= 10:
                return text + f" p{p:g}={ordered[rank - 1]:.6g}"
        return text + " (under 20 samples: no tail percentile)"


def _median_metric(samples: list[float], unit: str, scale: float = 1.0) -> Metric:
    """Median of the samples; NaN when failed runs left none."""
    samples = [s * scale for s in samples]
    return Metric(statistics.median(samples) if samples else math.nan, unit, samples)


def _counters(m: Measurement, variant: str):
    """The plan counters of the variant's first completed traced run."""
    return next((r.counters for r in m.of(variant, traced=True) if r.counters), None)


def _steps(runs: list[VariantRun]) -> list[float]:
    return [s for run in runs for s in run.step_s]


def end_to_end(m: Measurement) -> dict[str, Metric]:
    metrics = {f"step_s.{v}": _median_metric(_steps(m.of(v)), "s")
               for v in VARIANTS}
    # Set-up differs by variant (ra's plan takes longest to lower), so the
    # pooled median could jump between variant clusters; the mean of the
    # per-variant medians does not.
    per_variant = [_median_metric([r.setup_s for r in m.of(v) if r.setup_s is not None],
                                  "s") for v in VARIANTS]
    metrics["setup_s"] = Metric(statistics.fmean(x.value for x in per_variant), "s",
                                [s for x in per_variant for s in x.samples])
    return metrics


def per_layer(m: Measurement) -> dict[str, Metric]:
    tracer = m.tracer
    children = tracer.children()
    n3 = m.workload.n ** 3
    metrics: dict[str, Metric] = {}

    def named(name: str) -> list:
        return [s for s in tracer.spans if s.name == name]

    roots = named("bench.run")
    variant_of = {}
    for root in roots:
        for span in _descendants(root, children):
            variant_of[span.id] = root.attrs["variant"]

    def durations(name: str, variant: str | None = None) -> list[float]:
        return [s.duration for s in named(name)
                if variant is None or variant_of.get(s.id) == variant]

    metrics["equations.build_s"] = _median_metric(durations("solver.build_equations"), "s")
    for v in VARIANTS:
        metrics[f"plan.build_s.{v}"] = _median_metric(durations("solver.build_plan", v), "s")
    metrics["solver.init_s"] = _median_metric(durations("solver.init_tgv"), "s")
    metrics["solver.dt_s"] = _median_metric(durations("solver.compute_timestep"), "s")

    untraced_step = {v: _median_metric(_steps(m.of(v)), "s").value for v in VARIANTS}
    traced_step = {v: _median_metric(_steps(m.of(v, traced=True)), "s").value
                   for v in VARIANTS}
    speedup = fdlab.compute_ratios(untraced_step)

    for v in VARIANTS:
        rhs, exchange_s, exchange_n, self_s = [], [], [], []
        for root in (r for r in roots if r.attrs["variant"] == v):
            for step in _descendants(root, children):
                if step.name != "solver.rk3_step":
                    continue
                evals = [c for c in children.get(step.id, [])
                         if c.name == "solver.execute_plan"]
                exchanges = [s for s in _descendants(step, children)
                             if s.name == "grid.halo_exchange_periodic"]
                rhs += [e.duration for e in evals]
                exchange_s.append(sum(s.duration for s in exchanges))
                exchange_n.append(len(exchanges))
                self_s.append(step.duration - sum(e.duration for e in evals))
        counters = _counters(m, v)
        if counters is None:
            continue
        metrics[f"executor.rhs_s.{v}"] = _median_metric(rhs, "s")
        metrics[f"executor.ns_per_point.{v}"] = _median_metric(rhs, "ns", 1e9 / n3)
        metrics[f"executor.gops.{v}"] = _median_metric(
            [counters.ops_per_point * n3 / t / 1e9 for t in rhs], "Gop/s")
        bytes_moved = (counters.global_reads_per_point
                       + counters.global_writes_per_point) * 8 * n3
        metrics[f"executor.gbs_computed.{v}"] = _median_metric(
            [bytes_moved / t / 1e9 for t in rhs], "GB/s")
        metrics[f"grid.exchange_s.{v}"] = _median_metric(exchange_s, "s")
        metrics[f"grid.exchanges_per_step.{v}"] = Metric(
            statistics.median_low(exchange_n) if exchange_n else math.nan, "count",
            exchange_n)
        metrics[f"solver.self_s.{v}"] = _median_metric(self_s, "s")

    samples = durations("solver.monitor_sample")
    metrics["power.sample_s"] = _median_metric(samples, "s")
    metrics["power.monitor_frac"] = Metric(
        sum(samples) / sum(r.duration for r in roots), "ratio", n=len(roots))

    for v in VARIANTS:
        counters = _counters(m, v)
        if counters is None:
            continue
        plans = len(m.of(v, traced=True))
        metrics[f"plan.ops_per_point.{v}"] = Metric(
            counters.ops_per_point, "count", n=plans)
        metrics[f"plan.reads_per_point.{v}"] = Metric(
            counters.global_reads_per_point, "count", n=plans)
        metrics[f"plan.writes_per_point.{v}"] = Metric(
            counters.global_writes_per_point, "count", n=plans)

    reference = next((r.fields for r in m.of("bl") if r.fields), None)
    for v in VARIANTS[1:]:  # bl is the base of both: 1 and 0 by definition
        metrics[f"bench.speedup.{v}"] = Metric(
            speedup[v], "ratio", n=len(_steps(m.of(v))))
        finals = [r.fields for r in m.of(v) + m.of(v, traced=True) if r.fields]
        if reference is not None and finals:
            metrics[f"bench.max_rel_dev.{v}"] = Metric(
                max(relative_deviation(f, reference) for f in finals), "ratio",
                n=len(finals))

    overheads = [traced_step[v] / untraced_step[v] - 1.0 for v in VARIANTS]
    metrics["trace.overhead"] = _median_metric(overheads, "ratio")
    return metrics


def _descendants(span, children):
    pending = list(children.get(span.id, []))
    while pending:
        item = pending.pop()
        yield item
        pending.extend(children.get(item.id, []))

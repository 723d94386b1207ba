"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test prints `[PASS]` or `[FAIL]` with its criterion number straight to
the terminal (bypassing capture) and then asserts, so a full run shows
twelve verdict lines regardless of pytest's output settings. Criterion 12
is informational: it records kernel speed-ups on this host and never fails.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fdlab import solver
from fdlab.bench import compute_ratios
from fdlab.equations import FlowParams, build_equations
from fdlab.executor import bind, execute_plan
from fdlab.expr import COMPONENT_NAMES
from fdlab.grid import (
    FieldStore,
    Grid,
    _first_derivative_field,
    grid_sum,
    integral_diagnostics,
)
from fdlab.plan import VARIANTS, build_plan, dump_plan
from fdlab.power import CounterFileSource, EnergyIntegrator, PowerSample
from fdlab.solver import (
    RunConfig,
    compute_timestep,
    init_tgv,
    rk3_scalar,
    rk3_step,
    run,
)
from fdlab.stencils import first_derivative_stencil, second_derivative_stencil

PARAMS = FlowParams()


def _verdict(capsys, number, description, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert passed, line


@pytest.fixture(scope="module")
def eqs():
    return build_equations(PARAMS)


@pytest.fixture(scope="module")
def plans32(eqs):
    grid = Grid(32)
    return {v: build_plan(eqs, v, grid) for v in VARIANTS}


def test_criterion_01_storage_counter_table(eqs, plans32, capsys):
    expected_arrays = dict(zip(VARIANTS, (63, 9, 9, 0, 0, 0)))
    expected_locals = dict(zip(VARIANTS, (0, 0, 54, 0, 63, 63)))
    mismatches = []
    for variant, plan in plans32.items():
        got = (plan.counters.extra_arrays, plan.counters.locals)
        want = (expected_arrays[variant], expected_locals[variant])
        if got != want:
            mismatches.append(f"{variant}: got {got}, want {want}")
    _verdict(
        capsys, 1,
        "extra arrays (63,9,9,0,0,0) and locals (0,0,54,0,63,63)",
        not mismatches,
        "; ".join(mismatches) or "exact",
    )


def test_criterion_02_operation_count_ordering(plans32, capsys):
    ops = {v: plans32[v].counters.ops_per_point for v in VARIANTS}
    ordered = (
        ops["bl"] < ops["ss"] < ops["rs"] <= ops["sn"] == ops["sn2"] < ops["ra"]
    )
    ratio = ops["ra"] / ops["bl"]
    passed = ordered and 2.2 <= ratio <= 4.0
    _verdict(
        capsys, 2,
        "ops ordering BL<SS<RS<=SN=SN2<RA with RA/BL in [2.2, 4.0]",
        passed,
        f"ops={tuple(ops[v] for v in VARIANTS)}, RA/BL={ratio:.3f}",
    )


def test_criterion_03_derivative_census(eqs, capsys):
    entries = eqs.derivatives
    total = len(entries)
    gradients = sum(1 for e in entries if e.is_velocity_gradient)
    passed = total == 63 and gradients == 9
    _verdict(
        capsys, 3,
        "derivative census: 63 distinct, 9 velocity gradients",
        passed,
        f"total={total}, velocity gradients={gradients}",
    )


def test_criterion_04_cross_variant_equivalence(eqs, plans32, capsys):
    started = time.perf_counter()
    grid = Grid(32)
    dt = compute_timestep(init_tgv(grid, PARAMS), PARAMS, 0.4)
    solutions = {}
    for variant in VARIANTS:
        store = init_tgv(grid, PARAMS)
        bound = bind(plans32[variant], store)
        for step in range(1, 51):
            rk3_step(bound, dt, step=step)
        solutions[variant] = {
            name: store.interior(name).copy() for name in COMPONENT_NAMES
        }
    worst = 0.0
    for variant in VARIANTS:
        if variant == "bl":
            continue
        for name in COMPONENT_NAMES:
            baseline = solutions["bl"][name]
            deviation = float(np.abs(solutions[variant][name] - baseline).max())
            scale = float(np.abs(baseline).max())
            relative = 0.0 if deviation == 0.0 else deviation / scale
            worst = max(worst, relative)
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 4,
        "TGV N=32, 50 RK3 steps: six variants within 1e-10 of baseline",
        worst <= 1e-10,
        f"worst rel deviation={worst:.2e}, elapsed={elapsed:.0f}s",
    )


def test_criterion_05_conservation(eqs, plans32, capsys):
    failures = []
    conserved = ("rho", "rhou0", "rhou1", "rhou2")

    # residual grid sums on random periodic states
    grid16 = Grid(16)
    plan16 = build_plan(eqs, "bl", grid16)
    worst_residual = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        store = FieldStore(grid16)
        store.set_interior("rho", 1.0 + 0.2 * rng.random(grid16.shape))
        for i in range(3):
            store.set_interior(
                f"rhou{i}", 0.3 * rng.standard_normal(grid16.shape)
            )
        store.set_interior("rhoE", 2.5 + 0.3 * rng.random(grid16.shape))
        residuals = execute_plan(bind(plan16, store))
        for name in conserved:
            total = abs(grid_sum(residuals[name]))
            scale = grid_sum(np.abs(residuals[name]))
            relative = total / scale if scale > 0 else 0.0
            worst_residual = max(worst_residual, relative)
            if relative > 1e-9:
                failures.append(f"seed {seed} {name}: {relative:.2e}")

    # residual grid sums on the vortex state
    grid32 = Grid(32)
    store = init_tgv(grid32, PARAMS)
    residuals = execute_plan(bind(plans32["bl"], store))
    for name in conserved:
        total = abs(grid_sum(residuals[name]))
        scale = grid_sum(np.abs(residuals[name]))
        relative = total / scale if scale > 0 else 0.0
        worst_residual = max(worst_residual, relative)
        if relative > 1e-9:
            failures.append(f"tgv {name}: {relative:.2e}")

    # invariants over 100 steps at N=32
    store = init_tgv(grid32, PARAMS)
    dt = compute_timestep(store, PARAMS, 0.4)
    initial = {name: grid_sum(store.interior(name)) for name in conserved}
    bound = bind(plans32["bl"], store)
    for step in range(1, 101):
        rk3_step(bound, dt, step=step)
    mass_scale = abs(initial["rho"])
    worst_drift = 0.0
    for name in conserved:
        drift = abs(grid_sum(store.interior(name)) - initial[name]) / mass_scale
        worst_drift = max(worst_drift, drift)
        if drift > 1e-9:
            failures.append(f"100-step {name} drift: {drift:.2e}")

    _verdict(
        capsys, 5,
        "mass/momentum residual sums vanish; invariants hold over 100 steps",
        not failures,
        "; ".join(failures)
        or f"worst residual={worst_residual:.2e}, worst drift={worst_drift:.2e}",
    )


def test_criterion_06_stencil_order(capsys):
    def sine_error(n):
        grid = Grid(n)
        x = grid.coordinates()
        values = np.sin(x)[:, None, None]
        derivative = _first_derivative_field(values, 0, grid.h)
        return float(np.abs(derivative - np.cos(x)[:, None, None]).max())

    factors = []
    for n in (16, 32, 64):
        factors.append(sine_error(n) / sine_error(2 * n))
    order_ok = all(14.0 <= f <= 18.0 for f in factors)

    # exactness on low-degree polynomials, taps applied directly
    h = 0.1
    exact_ok = True
    for stencil, rate in (
        (first_derivative_stencil(), lambda k, x: k * x ** (k - 1) if k else 0.0),
        (second_derivative_stencil(),
         lambda k, x: k * (k - 1) * x ** (k - 2) if k >= 2 else 0.0),
    ):
        taps = stencil.scaled(h)
        for k in range(5):
            for x in (-1.3, 0.0, 0.7, 2.4):
                applied = math.fsum(w * (x + s * h) ** k for s, w in taps)
                expected = rate(k, x)
                if abs(applied - expected) > 1e-12 * max(1.0, abs(expected)):
                    exact_ok = False

    _verdict(
        capsys, 6,
        "first-derivative error factor in [14,18]; polynomial exactness 1e-12",
        order_ok and exact_ok,
        f"factors={[f'{f:.2f}' for f in factors]}, exactness={'ok' if exact_ok else 'violated'}",
    )


def test_criterion_07_rk3_order(capsys):
    one_step = rk3_scalar(1.0, lambda y: -y, 0.1)
    step_ok = abs(one_step - 0.9048333333333333) <= 1e-12

    def integrate(dt):
        y = 1.0
        for _ in range(round(1.0 / dt)):
            y = rk3_scalar(y, lambda v: -v, dt)
        return y

    exact = math.exp(-1.0)
    order = math.log2(
        abs(integrate(0.1) - exact) / abs(integrate(0.05) - exact)
    )
    order_ok = 2.9 <= order <= 3.1
    _verdict(
        capsys, 7,
        "RK3 convergence order in [2.9,3.1]; one-step value within 1e-12",
        step_ok and order_ok,
        f"order={order:.4f}, one-step={one_step!r}",
    )


def test_criterion_08_vortex_initialization(capsys):
    grid = Grid(64)
    store = init_tgv(grid, PARAMS)
    failures = []

    if float(np.abs(store.interior("rhou2")).max()) != 0.0:
        failures.append("third momentum component not exactly zero")

    rho = store.interior("rho")[0, 0, 0]
    rhoE = store.interior("rhoE")[0, 0, 0]
    momentum_sq = sum(store.interior(f"rhou{i}")[0, 0, 0] ** 2 for i in range(3))
    pressure = (PARAMS.gamma - 1.0) * (rhoE - 0.5 * momentum_sq / rho)
    expected_pressure = float(1 / (Fraction(14, 10) * Fraction(1, 100)) + Fraction(3, 8))
    if abs(pressure - expected_pressure) > 1e-9:
        failures.append(f"corner pressure {pressure!r}")

    diagnostics = integral_diagnostics(store)
    if abs(diagnostics["kinetic_energy"] - 0.125) > 0.01 * 0.125:
        failures.append(f"kinetic energy {diagnostics['kinetic_energy']!r}")
    if diagnostics["max_divergence"] > 1e-12:
        failures.append(f"divergence {diagnostics['max_divergence']:.2e}")

    _verdict(
        capsys, 8,
        "TGV init: u2=0, corner pressure, KE=0.125 within 1%, divergence<=1e-12",
        not failures,
        "; ".join(failures)
        or (
            f"p(0,0,0)={pressure:.10f}, KE={diagnostics['kinetic_energy']:.6f},"
            f" div={diagnostics['max_divergence']:.2e}"
        ),
    )


def test_criterion_09_energy_integration(tmp_path, capsys, monkeypatch):
    failures = []

    constant = EnergyIntegrator()
    for t in range(11):
        total = constant.update(PowerSample(t=float(t), power=100.0))
    if total != 1000.0:
        failures.append("constant 100 W over 10 s != 1000 J")

    ramp = EnergyIntegrator()
    for t in range(11):
        total = ramp.update(PowerSample(t=float(t), power=float(t)))
    if total != 50.0:
        failures.append("linear ramp != 50 J")

    counter = tmp_path / "energy_uj"
    source = CounterFileSource([counter], counter_max=1000)
    totals = []
    for raw in (100, 900, 50, 250, 20):
        counter.write_text(f"{raw}\n")
        totals.append(source.read().cumulative_energy)
    if totals != sorted(totals):
        failures.append(f"wrapped counter series decreased: {totals}")

    # The monitor's cost is timed inside one run, from entering
    # monitor_sample to the record reaching the sink: that span is all that
    # take() adds to a step. Differencing two whole runs with and without
    # the monitor measured host drift of up to 20%, not the monitor.
    steps = 100
    sample = solver.monitor_sample
    entered = []
    timing = {"monitor_s": 0.0, "records": 0}

    def timed_sample(source):
        entered.append(time.perf_counter())
        return sample(source)

    def timed_sink(record):
        timing["records"] += 1
        if entered:
            timing["monitor_s"] += time.perf_counter() - entered[-1]

    monkeypatch.setattr(solver, "monitor_sample", timed_sample)
    started = time.perf_counter()
    run(RunConfig(n=16, steps=steps, policy="bl"), record_sink=timed_sink)
    wall = time.perf_counter() - started
    monitor_s = timing["monitor_s"]
    if len(entered) != steps + 1 or timing["records"] != steps + 1:
        failures.append(
            f"timed {len(entered)} samples and {timing['records']} "
            f"records, expected {steps + 1} of each"
        )
    overhead = monitor_s / (wall - monitor_s)
    if overhead >= 0.02:
        failures.append(f"null-source monitoring overhead {overhead:.2%}")

    _verdict(
        capsys, 9,
        "energy integration exact fixtures; null monitor overhead < 2%",
        not failures,
        "; ".join(failures)
        or f"monitor_s={monitor_s:.4f} over {len(entered)} samples, "
        f"overhead={overhead:.3%}",
    )


def test_criterion_10_published_ratio_fixtures(capsys):
    tables = {
        "cpu runtimes": (
            {"bl": 1216.39, "rs": 715.51, "ss": 690.30,
             "ra": 558.70, "sn": 549.73, "sn2": 559.86},
            {"bl": 1.00, "rs": 1.70, "ss": 1.76,
             "ra": 2.18, "sn": 2.21, "sn2": 2.17},
        ),
        "knl runtimes": (
            {"bl": 739.61, "rs": 425.02, "ss": 426.05,
             "ra": 415.59, "sn": 410.96, "sn2": 401.99},
            {"bl": 1.00, "rs": 1.74, "ss": 1.74,
             "ra": 1.78, "sn": 1.80, "sn2": 1.84},
        ),
        "gpu runtimes": (
            {"bl": 496.29, "rs": 255.52, "ss": 231.25,
             "ra": 234.29, "sn": 297.68, "sn2": 220.45},
            {"bl": 1.00, "rs": 1.94, "ss": 2.15,
             "ra": 2.12, "sn": 1.67, "sn2": 2.25},
        ),
    }
    failures = []
    for label, (values, expected) in tables.items():
        ratios = compute_ratios(values)
        for variant, target in expected.items():
            if round(ratios[variant], 2) != target:
                failures.append(
                    f"{label} {variant}: {ratios[variant]:.4f} !~ {target}"
                )
    for label, savings in (
        ("cpu savings", {"bl": 1.0, "rs": 1.73, "ss": 1.76,
                         "ra": 2.12, "sn": 2.24, "sn2": 2.18}),
        ("knl savings", {"bl": 1.0, "rs": 1.9, "ss": 1.91,
                         "ra": 1.96, "sn": 2.02, "sn2": 2.0}),
    ):
        energies = {v: 40_000.0 / s for v, s in savings.items()}
        ratios = compute_ratios(energies)
        for variant, target in savings.items():
            if round(ratios[variant], 2) != round(target, 2):
                failures.append(
                    f"{label} {variant}: {ratios[variant]:.4f} !~ {target}"
                )
    _verdict(
        capsys, 10,
        "published speed-up and saving columns reproduced to 2 d.p.",
        not failures,
        "; ".join(failures) or "30 ratios checked",
    )


def test_criterion_11_determinism(eqs, capsys):
    grid = Grid(16)
    plan_a = build_plan(eqs, "sn", grid)
    plan_b = build_plan(eqs, "sn", grid)
    dumps_ok = dump_plan(plan_a).encode() == dump_plan(plan_b).encode()

    residual_sets = []
    for _ in range(2):
        bound = bind(plan_a, init_tgv(grid, PARAMS), workers=2)
        for step in range(1, 4):
            rk3_step(bound, 0.005, step=step)
        residuals = execute_plan(bound)
        residual_sets.append(
            tuple(residuals[name].tobytes() for name in COMPONENT_NAMES)
        )
    residuals_ok = residual_sets[0] == residual_sets[1]
    _verdict(
        capsys, 11,
        "bit-identical residual fields and byte-identical plan dumps",
        dumps_ok and residuals_ok,
        f"dumps identical={dumps_ok}, residuals identical={residuals_ok}",
    )


def test_criterion_12_informational_large_grid_speedup(eqs, capsys):
    detail = ""
    try:
        grid = Grid(128)
        timings = {}
        for variant in ("bl", "ra", "sn", "sn2"):
            plan = build_plan(eqs, variant, grid)
            bound = bind(plan, init_tgv(grid, PARAMS))
            execute_plan(bound)  # warm
            best = math.inf
            for _ in range(2):
                started = time.perf_counter()
                execute_plan(bound)
                best = min(best, time.perf_counter() - started)
            timings[variant] = best
            del bound
        speedups = {
            v: timings["bl"] / timings[v] for v in ("ra", "sn", "sn2")
        }
        best_variant = max(speedups, key=speedups.get)
        reached = speedups[best_variant] >= 1.3
        detail = (
            "N=128 kernel speed-ups vs BL: "
            + ", ".join(f"{v}={s:.2f}x" for v, s in speedups.items())
            + f"; threshold 1.3 {'reached' if reached else 'not reached'}"
            + " (informational, never gating)"
        )
    except MemoryError:
        detail = "skipped: MemoryError at N=128 (informational, never gating)"
    _verdict(capsys, 12, "large-grid speed-up recorded", True, detail)

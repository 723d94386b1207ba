"""Vortex initialization, low-storage RK3 stepping, and the run driver.

The time integrator is the classic two-register three-stage scheme: an
accumulator S per field carries scaled residual history, so only one
extra register is needed besides the solution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cbackend
from .equations import FlowParams, build_equations
from .executor import BoundPlan, bind, check_positive, execute_plan, update_solution
from .expr import COMPONENT_NAMES
from .grid import FieldStore, Grid, write_snapshot
from .plan import VARIANTS, KernelPlan, build_plan
from .power import (
    EnergyIntegrator,
    IterationRecord,
    NullSource,
    PowerSource,
    monitor_sample,
    summarize,
)

RK_A = (0.0, -5.0 / 9.0, -153.0 / 128.0)
RK_B = (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)


def rk3_scalar(y: float, rhs, dt: float) -> float:
    """One step of dy/dt = rhs(y); the array update in rk3_step follows
    exactly this recurrence."""
    s = 0.0
    for a_k, b_k in zip(RK_A, RK_B):
        s = a_k * s + rhs(y)
        y = y + b_k * dt * s
    return y


@dataclass(frozen=True)
class RunConfig:
    """One benchmark run: grid, step count, variant, timestep rule."""

    n: int = 64
    steps: int = 500
    policy: str = "bl"
    params: FlowParams = field(default_factory=FlowParams)
    dt: float | None = None
    cfl: float | None = 0.4
    repeats: int = 5
    out_dir: str | None = None
    snapshot_every: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        Grid(self.n)  # the one validator of a grid size
        if self.policy not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.policy!r}; known variants: {', '.join(VARIANTS)}"
            )
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be positive, got {self.repeats}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt is None:
            if self.cfl is None:
                raise ValueError("need either dt or cfl")
            if not 0 < self.cfl < math.inf:
                raise ValueError(f"cfl must be positive and finite, got {self.cfl}")
        if self.snapshot_every < 0:
            raise ValueError("snapshot interval must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")


def init_tgv(grid: Grid, params: FlowParams) -> FieldStore:
    """Taylor-Green vortex initial state on [0, 2pi)^3.

    Velocities are the standard single-mode vortex, pressure carries the
    matching O(1) acoustic-scaled offset, temperature is uniform 1, and
    density follows from the equation of state so rho is 1 + O(M^2).

    Every factor is separable: it is evaluated once on the n coordinates
    and broadcast, in the left-to-right order of the formulas, so each
    point gets the operations a full 3-D evaluation would give it.
    """
    x = grid.coordinates()
    sin, cos, cos2 = np.sin(x), np.cos(x), np.cos(2.0 * x)
    # lay a 1-D factor along axis 0, 1 or 2
    i, j, k = np.s_[:, None, None], np.s_[None, :, None], np.s_[None, None, :]
    u0, u1, p = (np.empty(grid.shape, order="F") for _ in range(3))
    np.multiply(sin[i] * cos[j], cos[k], out=u0)
    np.multiply(-cos[i] * sin[j], cos[k], out=u1)
    np.multiply((1.0 / 16.0) * (cos2[i] + cos2[j]), 2.0 + cos2[k], out=p)
    p += params.inv_gamma_mach_sq
    store = FieldStore(grid)
    rho = store.interior("rho")
    np.multiply(params.gamma_mach_sq, p, out=rho)  # T = 1 uniformly
    np.multiply(rho, u0, out=store.interior("rhou0"))
    np.multiply(rho, u1, out=store.interior("rhou1"))
    store.set_interior("rhou2", 0.0)
    # rhoE = p / (gamma - 1) + (0.5 rho) (u0^2 + u1^2), in the temporaries
    np.square(u0, out=u0)
    u0 += np.square(u1, out=u1)
    np.multiply(0.5, rho, out=u1)
    u1 *= u0
    p /= params.gamma - 1.0
    np.add(p, u1, out=store.interior("rhoE"))
    return store


def compute_timestep(store: FieldStore, params: FlowParams, cfl: float) -> float:
    """Acoustic CFL limit from the current state: the fastest signal is
    |u| plus the sound speed sqrt(T)/M.

    Two buffers hold every intermediate; each product with a constant is
    written with the constant second, an exact commutation.
    """
    rho = store.interior("rho")
    velocity_sq = np.zeros(store.grid.shape, order="F")
    scratch = np.empty(store.grid.shape, order="F")
    for i in range(3):
        np.divide(store.interior(f"rhou{i}"), rho, out=scratch)
        velocity_sq += np.square(scratch, out=scratch)
    # kinetic energy, then pressure, then the squared sound speed
    np.multiply(rho, 0.5, out=scratch)
    scratch *= velocity_sq
    np.subtract(store.interior("rhoE"), scratch, out=scratch)
    scratch *= params.gamma - 1.0
    scratch *= params.gamma
    scratch /= rho
    signal = np.sqrt(velocity_sq, out=velocity_sq)
    signal += np.sqrt(scratch, out=scratch)
    return cfl * store.grid.h / float(np.max(signal))


def _check_thermo(store: FieldStore, step) -> None:
    """Density and internal energy of a run's final state. Every earlier
    state is tested by the execute_plan call that reads it; after the
    last stage no such call comes."""
    rho = store.interior("rho")
    check_positive(rho, "density", step)
    kinetic = np.zeros(store.grid.shape)
    for i in range(3):
        kinetic += store.interior(f"rhou{i}") ** 2
    internal = store.interior("rhoE") - 0.5 * kinetic / rho
    check_positive(internal, "internal energy", step)


def rk3_step(bound: BoundPlan, dt: float, step: int | None = None) -> None:
    """Advance the bound store's solution by one timestep in place.

    Each stage evaluates the residuals into the store and then updates
    the interiors from them and the store's accumulators, on the backend
    the plan was bound to; the next ``execute_plan`` refreshes the
    solution's halos and tests the state each stage leaves.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    for stage, (a_k, b_k) in enumerate(zip(RK_A, RK_B), start=1):
        execute_plan(bound, step=step, stage=stage)
        update_solution(bound, a_k, b_k * dt)


@dataclass
class RunResult:
    plan: KernelPlan
    store: FieldStore
    dt: float
    records: list[IterationRecord]
    summary: dict[str, float]


def run(
    config: RunConfig,
    source: PowerSource | None = None,
    record_sink=None,
) -> RunResult:
    """Initialize, advance `steps` timesteps, and monitor each boundary.

    The plan is bound to the store once, and its kernel and the halo
    exchange are built or loaded, before the first sample. The monitor
    samples once before the loop and once at the end of every iteration.
    Each record goes to `record_sink` as soon as it exists, so a failing
    run still leaves the completed iterations on disk when the sink
    writes through.

    Each state is tested once, by the evaluation that reads it, so a bad
    state made by the last stage of step s is reported as step s+1,
    stage 1, after the record of step s exists. The final state, which
    no evaluation reads, is tested after the loop and reported as the
    last step.
    """
    grid = Grid(config.n)
    plan = build_plan(build_equations(config.params), config.policy, grid)
    store = init_tgv(grid, config.params)
    dt = config.dt if config.dt is not None else compute_timestep(
        store, config.params, config.cfl
    )
    # Bind the run and load the halo exchange now, so a cold compile
    # lands in set-up and never in a timed step.
    bound = bind(plan, store, config.workers)
    cbackend.KERNELS.exchange()
    if source is None:
        source = NullSource()
    integrator = EnergyIntegrator()
    records: list[IterationRecord] = []
    t_origin: list[float] = []

    def take(iteration: int) -> None:
        sample = monitor_sample(source)
        if not t_origin:
            t_origin.append(sample.t)
        record = IterationRecord(
            iteration=iteration,
            t=sample.t - t_origin[0],
            power=sample.power,
            cumulative_energy=integrator.update(sample),
        )
        records.append(record)
        if record_sink is not None:
            record_sink(record)

    wall_start = time.perf_counter()
    take(0)
    for step in range(1, config.steps + 1):
        rk3_step(bound, dt, step=step)
        take(step)
        if (
            config.snapshot_every
            and config.out_dir
            and step % config.snapshot_every == 0
        ):
            write_snapshot(
                f"{config.out_dir}/snapshot_{config.policy}_step{step:06d}.bin",
                store,
                COMPONENT_NAMES,
                step,
            )
    if config.steps:
        _check_thermo(store, config.steps)
    wall = time.perf_counter() - wall_start

    if len(records) >= 2:
        summary = summarize(records)
    else:
        summary = {"runtime_s": wall}
    return RunResult(
        plan=plan,
        store=store,
        dt=dt,
        records=records,
        summary=summary,
    )

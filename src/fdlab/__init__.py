"""Finite difference kernel laboratory.

Builds the compressible Navier-Stokes right-hand side symbolically,
compiles it under six storage policies of differing memory and compute
intensity, and benchmarks runtime and energy on the Taylor-Green vortex.
"""

__version__ = "0.1.0"

from .bench import (
    BASELINE,
    aggregate,
    compute_ratios,
    emit_reports,
    run_matrix,
    validate_mode,
)
from .equations import EquationSet, FlowParams, build_equations, census
from .errors import (
    FdlabError,
    GridError,
    NumericalBlowupError,
    PlanError,
    PowerError,
    ReportError,
    StateError,
)
from .executor import bind, execute_plan
from .expr import COMPONENT_NAMES, count_ops, to_prefix
from .grid import (
    FieldStore,
    Grid,
    grid_sum,
    integral_diagnostics,
    read_snapshot,
    write_snapshot,
)
from .plan import VARIANTS, KernelPlan, PlanCounters, build_plan, dump_plan
from .power import (
    CommandSource,
    CounterFileSource,
    MockSource,
    NullSource,
    PowerSample,
    PowerSource,
    monitor_sample,
    parse_power_spec,
    summarize,
)
from .solver import (
    RunConfig,
    RunResult,
    compute_timestep,
    init_tgv,
    rk3_step,
    run,
)
from .stencils import discretize, first_derivative_stencil, second_derivative_stencil

__all__ = [
    "BASELINE",
    "COMPONENT_NAMES",
    "CommandSource",
    "CounterFileSource",
    "EquationSet",
    "FdlabError",
    "FieldStore",
    "FlowParams",
    "Grid",
    "GridError",
    "KernelPlan",
    "MockSource",
    "NullSource",
    "NumericalBlowupError",
    "PlanCounters",
    "PlanError",
    "PowerError",
    "PowerSample",
    "PowerSource",
    "ReportError",
    "RunConfig",
    "RunResult",
    "StateError",
    "VARIANTS",
    "aggregate",
    "bind",
    "build_equations",
    "build_plan",
    "census",
    "compute_ratios",
    "compute_timestep",
    "count_ops",
    "discretize",
    "dump_plan",
    "emit_reports",
    "execute_plan",
    "first_derivative_stencil",
    "grid_sum",
    "init_tgv",
    "integral_diagnostics",
    "monitor_sample",
    "parse_power_spec",
    "read_snapshot",
    "rk3_step",
    "run",
    "run_matrix",
    "second_derivative_stencil",
    "summarize",
    "to_prefix",
    "validate_mode",
    "write_snapshot",
    "__version__",
]

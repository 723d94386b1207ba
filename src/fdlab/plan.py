"""Lowering of an EquationSet into executable kernel plans.

A plan fixes, for every distinct derivative, whether its value lives in
a global work array, in a per-point local, or is re-expanded inline at
each textual use. That single decision is what separates the six
variants; the primitive phase and the residual arithmetic around the
derivatives are identical everywhere. ``VARIANTS`` states it, one row
per variant; the row becomes a map from census nodes to leaves, and the
stencil expansion itself is ``stencils.discretize`` under that map; this
module only orders the resulting statements into phases and counts them.

The phases are the plan's launch schedule, the same for every backend:
``fd_primitive``, one ``fd_work_{i}`` per stored derivative array, then
``fd_point``. Each phase lists the arrays it writes that some statement
reads at a neighbour point; their halos are refreshed after it runs.
``fd_primitive`` also lists the arrays it must find positive, density
and pressure, which it counts the bad points of.

Operation counting normalization: ``ops_per_point`` sums the arithmetic
of every statement expression plus one operation per scalar local
assignment (a register move). Stores to global arrays are not counted
as operations; they appear in the read/write traffic counters instead.
Under this normalization the variant ordering of operation counts is
strict and reproducible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass

from . import expr as ex
from . import stencils
from .equations import POSITIVE, EquationSet, Statement
from .errors import PlanError
from .grid import Grid


#: The six variants in report order. Each row says where a velocity
#: gradient lives, where every other census derivative lives (``"array"``,
#: ``"local"``, or None: re-expanded at each use), and whether the point
#: phase groups its locals by velocity component.
VARIANTS = {
    "bl": ("array", "array", False),
    "rs": ("array", None, False),
    "ss": ("array", "local", False),
    "ra": (None, None, False),
    "sn": ("local", "local", False),
    "sn2": ("local", "local", True),
}

_LEAF = {"array": ex.array, "local": ex.local}


@dataclass(frozen=True)
class PlanCounters:
    extra_arrays: int
    locals: int
    ops_per_point: int
    global_reads_per_point: int
    global_writes_per_point: int

    def ops_per_timestep(self, n: int) -> int:
        """Operations of one three-stage timestep on an n^3 grid."""
        return self.ops_per_point * n**3 * 3


@dataclass(frozen=True)
class Phase:
    """One kernel launch: the C function name, the statements it runs at
    every interior point, the arrays whose halos are refreshed after it,
    and the (array, quantity) pairs whose non-positive points it counts
    once its statements ran."""

    name: str
    statements: tuple[Statement, ...]
    exchange: tuple[str, ...]
    positive: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class KernelPlan:
    policy: str
    #: The grid the stencil weights were scaled for.
    grid: Grid
    #: The launch schedule: primitive, one phase per work array, point.
    phases: tuple[Phase, ...]
    counters: PlanCounters

    # Hashed once: the kernel cache keys on the plan.
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.policy, self.grid, self.phases, self.counters))

    def __hash__(self) -> int:
        return self._hash

    @property
    def arrays(self) -> tuple[str, ...]:
        """The solution fields, then every array a phase writes, in launch
        order: the pointer table of the compiled kernel."""
        written = [s.array for p in self.phases for s in p.statements if s.array]
        return tuple(dict.fromkeys([*ex.COMPONENT_NAMES, *written]))


def _storage_assignment(eqset: EquationSet, gradient: str | None, other: str | None):
    """Map each census derivative node to the leaf that holds its value:
    ``ex.array(name)`` or ``ex.local(name)``; unstored nodes are absent."""
    storage: dict[ex.Derivative, ex.Expr] = {}
    for entry in eqset.derivatives:
        where = gradient if entry.is_velocity_gradient else other
        if where is not None:
            storage[entry.node] = _LEAF[where](entry.name)
    return storage


#: Velocity-component index of the arrays that carry one: u_i and rho u_i.
_VELOCITY_INDEX = {
    **{f"u{i}": i for i in range(3)},
    **{f"rhou{i}": i for i in range(3)},
}


def _velocity_group(entry) -> int:
    """Lowest velocity-component index the operand reads; 3 when none."""
    found = [
        _VELOCITY_INDEX[ref.array]
        for ref in ex.references(entry.node.operand)
        if ref.array in _VELOCITY_INDEX
    ]
    return min(found, default=3)


def _schedule(groups) -> tuple[tuple[Phase, ...], PlanCounters]:
    """Check and count the (name, statements, positive) groups in launch
    order, and give each phase the arrays it writes that some statement
    reads at a nonzero offset.

    A local must be assigned earlier in its own phase; an array must be a
    solution field or written by an earlier statement.
    """
    ops = 0
    reads = 0
    writes = 0
    written = set(ex.COMPONENT_NAMES)
    offset_reads: set[str] = set()
    for name, statements, _ in groups:
        assigned: set[str] = set()
        for stmt in statements:
            for ref in ex.references(stmt.expr):
                if isinstance(ref, ex.LocalRef):
                    if ref.name not in assigned:
                        raise PlanError(
                            f"local {ref.name!r} read before assignment in {name}"
                        )
                    continue
                if ref.array not in written:
                    raise PlanError(f"array {ref.array!r} read before it is written")
                reads += 1
                if ref.offset != ex.ZERO_OFFSET:
                    offset_reads.add(ref.array)
            ops += ex.count_ops(stmt.expr).total()
            if stmt.array is None:
                assigned.add(stmt.target)
                ops += 1
            else:
                written.add(stmt.array)
                writes += 1
    phases = tuple(
        Phase(
            name,
            statements,
            tuple(s.array for s in statements if s.array in offset_reads),
            positive,
        )
        for name, statements, positive in groups
    )
    point = phases[-1].statements
    counters = PlanCounters(
        extra_arrays=len(phases) - 2,
        locals=sum(1 for s in point if s.kind == "local"),
        ops_per_point=ops,
        global_reads_per_point=reads,
        global_writes_per_point=writes,
    )
    return phases, counters


@functools.cache
def build_plan(eqset: EquationSet, policy: str, grid: Grid) -> KernelPlan:
    """Lower the equation set under one ``VARIANTS`` row for the grid.

    Lowered once per process for each (eqset, policy, grid) and shared,
    since the plan is immutable; a call that raises caches nothing.
    """
    if policy not in VARIANTS:
        raise PlanError(f"unknown storage policy {policy!r}")
    gradient, other, grouped = VARIANTS[policy]
    if len(eqset.derivatives) != 63:
        raise PlanError(
            f"expected a census of 63 derivatives, got {len(eqset.derivatives)}"
        )
    if sum(d.is_velocity_gradient for d in eqset.derivatives) != 9:
        raise PlanError("expected 9 velocity-gradient members in the census")

    stored = _storage_assignment(eqset, gradient, other)
    h = grid.h

    work = tuple(
        Statement("array", entry.name, stencils.expand(entry.node, h, stored))
        for entry in eqset.derivatives
        if isinstance(stored.get(entry.node), ex.WorkRef)
    )

    local_entries = [
        entry
        for entry in eqset.derivatives
        if isinstance(stored.get(entry.node), ex.LocalRef)
    ]
    if grouped:
        local_entries.sort(key=_velocity_group)

    point = [
        Statement("local", entry.name, stencils.expand(entry.node, h, stored))
        for entry in local_entries
    ]
    point += [
        Statement("residual", name, stencils.discretize(residual, h, stored))
        for name, residual in zip(ex.COMPONENT_NAMES, eqset.residuals)
    ]

    groups = [
        ("fd_primitive", eqset.primitives, POSITIVE),
        *((f"fd_work_{i}", (stmt,), ()) for i, stmt in enumerate(work)),
        ("fd_point", tuple(point), ()),
    ]
    phases, counters = _schedule(groups)
    return KernelPlan(policy=policy, grid=grid, phases=phases, counters=counters)


def dump_plan(plan: KernelPlan) -> str:
    """Deterministic JSON document describing the plan."""
    doc = {
        "policy": plan.policy,
        "h": plan.grid.h,
        "counters": asdict(plan.counters),
        "phases": {
            "primitive": [_stmt_doc(s) for s in plan.phases[0].statements],
            "work": [_stmt_doc(s) for p in plan.phases[1:-1] for s in p.statements],
            "point": [_stmt_doc(s) for s in plan.phases[-1].statements],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _stmt_doc(s: Statement) -> dict:
    return {"kind": s.kind, "target": s.target, "expr": ex.to_prefix(s.expr)}

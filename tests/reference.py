"""Independent references that only tests read.

The conservation tests scale their defects by the magnitude of the terms
that should cancel; these helpers split a residual into those terms and
evaluate any discretized expression over the whole interior, outside the
plan and its phases.
"""

import numpy as np

from fdlab import expr as ex
from fdlab.executor import _SlabEval
from fdlab.expr import ZERO_OFFSET
from fdlab.grid import FieldStore


def split_terms(residual: ex.Expr) -> list[ex.Expr]:
    """Decompose a residual into its expanded summands.

    Distributes sums and constant prefactors recursively, so the result
    is the list of individual terms the equations state (one entry per
    Einstein-expanded summand). The sum of the pieces equals the
    residual.
    """
    if isinstance(residual, ex.Add):
        out: list[ex.Expr] = []
        for child in residual.children:
            out.extend(split_terms(child))
        return out
    if isinstance(residual, ex.Neg):
        return [ex.neg(t) for t in split_terms(residual.child)]
    if isinstance(residual, ex.Mul) and ex.is_constant(residual.children[0]):
        head = residual.children[0]
        rest = ex.mul(*residual.children[1:])
        return [ex.mul(head, t) for t in split_terms(rest)]
    return [residual]


def evaluate_expression(
    expr: ex.Expr, store: FieldStore, locals_: dict | None = None
) -> np.ndarray:
    """Evaluate one discretized expression over the full interior.

    Refreshes the halos of whatever the expression reads at an offset,
    once per array, then runs the numpy slab evaluator in a single span.
    The result is a fresh array unless the expression is a bare
    reference, in which case it is a read-only view.
    """
    n = store.grid.n
    tapped = {
        ref.array
        for ref in ex.references(expr)
        if isinstance(ref, ex.WorkRef) and ref.offset != ZERO_OFFSET
    }
    for name in tapped:
        store.exchange(name)
    arrays = {name: store.full(name) for name in store.names()}
    value = _SlabEval(arrays, locals_ or {}, n, 0, n)(expr)
    if not isinstance(value, np.ndarray):
        return np.full(store.grid.shape, float(value))
    return value


def init_tgv_meshgrid(grid, params) -> FieldStore:
    """The Taylor-Green vortex evaluated on full 3-D meshgrids, one
    temporary per operation: what ``solver.init_tgv`` must match byte
    for byte."""
    x = grid.coordinates()
    x0, x1, x2 = np.meshgrid(x, x, x, indexing="ij")
    u0 = np.sin(x0) * np.cos(x1) * np.cos(x2)
    u1 = -np.cos(x0) * np.sin(x1) * np.cos(x2)
    p = params.inv_gamma_mach_sq + (1.0 / 16.0) * (
        np.cos(2.0 * x0) + np.cos(2.0 * x1)
    ) * (2.0 + np.cos(2.0 * x2))
    rho = params.gamma_mach_sq * p
    store = FieldStore(grid)
    store.set_interior("rho", rho)
    store.set_interior("rhou0", rho * u0)
    store.set_interior("rhou1", rho * u1)
    store.set_interior("rhou2", 0.0)
    store.set_interior(
        "rhoE", p / (params.gamma - 1.0) + 0.5 * rho * (u0**2 + u1**2)
    )
    return store


def timestep_with_temporaries(store: FieldStore, params, cfl: float) -> float:
    """The acoustic CFL limit with a fresh temporary per operation: what
    ``solver.compute_timestep`` must match to the last bit."""
    rho = store.interior("rho")
    velocity_sq = np.zeros(store.grid.shape)
    for i in range(3):
        velocity_sq += (store.interior(f"rhou{i}") / rho) ** 2
    kinetic = 0.5 * rho * velocity_sq
    pressure = (params.gamma - 1.0) * (store.interior("rhoE") - kinetic)
    sound = np.sqrt(params.gamma * pressure / rho)
    return cfl * store.grid.h / float(np.max(np.sqrt(velocity_sq) + sound))

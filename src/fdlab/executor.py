"""Application of a kernel plan to grid fields.

``execute_plan`` runs the plan's phases in launch order, refreshes the
halos each phase names and checks the state, and ``update_solution``
applies one RK stage's update, on one of two backends: the compiled C
kernel of ``cbackend``, or the numpy slab evaluator and update below,
which are the reference the compiled code must match bit for bit.

The numpy evaluator walks each statement's expression tree node by node
over a slab of interior points, with field references resolved to
shifted views into the padded arrays. No subexpression caching happens
here on purpose: the tree shape IS the variant's compute recipe, and
collapsing repeated subtrees would erase exactly the recomputation the
storage policies trade against memory traffic.

Both backends partition the interior along axis 2, and one thread pool
per worker count serves every launch of the process. Every elementwise
operation is independent per point, so results are bit-identical for
any slab width and any worker count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from . import cbackend
from . import expr as ex
from .errors import GridError, NumericalBlowupError, StateError
from .expr import COMPONENT_NAMES, ZERO_OFFSET
from .grid import HALO, FieldStore
from .plan import KernelPlan

# Slab footprint target. 512 KiB keeps the working set of a statement's
# temporaries inside L2 on common cores; measured fastest for the stored
# variants at n=64 while leaving n<=32 grids as a single slab.
_SLAB_BYTES = 524_288


def _slab_spans(n: int) -> list[tuple[int, int]]:
    width = max(1, min(n, _SLAB_BYTES // (8 * n * n)))
    return [(z, min(z + width, n)) for z in range(0, n, width)]


def _view(padded: np.ndarray, n: int, offset, z0: int, z1: int) -> np.ndarray:
    o0, o1, o2 = offset
    return padded[
        HALO + o0 : HALO + o0 + n,
        HALO + o1 : HALO + o1 + n,
        HALO + o2 + z0 : HALO + o2 + z1,
    ]


class _SlabEval:
    """Evaluate expression trees over one interior slab.

    Accumulation for n-ary nodes runs left to right, starting from the
    first child, matching the scalar reference evaluator. Once the
    accumulator is a fresh temporary the remaining children fold in
    place; views and borrowed locals are never mutated.
    """

    __slots__ = ("arrays", "locals", "n", "z0", "z1")

    def __init__(self, arrays, locals_, n, z0, z1):
        self.arrays = arrays
        self.locals = locals_
        self.n = n
        self.z0 = z0
        self.z1 = z1

    def __call__(self, node: ex.Expr):
        if isinstance(node, ex.Constant):
            return node.value
        if isinstance(node, ex.RationalConstant):
            return node.numerator / node.denominator
        if isinstance(node, ex.WorkRef):
            return _view(self.arrays[node.array], self.n, node.offset, self.z0, self.z1)
        if isinstance(node, ex.LocalRef):
            return self.locals[node.name]
        if isinstance(node, ex.Neg):
            value = self(node.child)
            return -value if not isinstance(value, np.ndarray) else np.negative(value)
        if isinstance(node, ex.Add):
            return self._fold(node.children, np.add)
        if isinstance(node, ex.Mul):
            return self._fold(node.children, np.multiply)
        if isinstance(node, ex.Div):
            return np.divide(self(node.numerator), self(node.denominator))
        if isinstance(node, ex.IntPow):
            base = self(node.base)
            if not isinstance(base, np.ndarray):
                return base**node.exponent
            result = np.multiply(base, base)
            for _ in range(node.exponent - 2):
                np.multiply(result, base, out=result)
            return result
        raise GridError(f"cannot execute node {node!r}")

    def _fold(self, children, ufunc):
        acc = self(children[0])
        owned = False
        for child in children[1:]:
            value = self(child)
            if owned:
                ufunc(acc, value, out=acc)
            else:
                acc = ufunc(acc, value)
                owned = isinstance(acc, np.ndarray)
        return acc


def _first_bad_point(mask: np.ndarray) -> tuple[int, int, int]:
    index = np.argwhere(mask)[0]
    return tuple(int(v) for v in index)


def _where(step, stage) -> str:
    labels = [f"step {step}"] if step is not None else []
    if stage is not None:
        labels.append(f"stage {stage}")
    return f" ({', '.join(labels)})" if labels else ""


def check_positive(values: np.ndarray, quantity: str, step, stage=None) -> None:
    """Raise StateError naming the first interior point where `values`
    is not positive (NaN included)."""
    bad = ~(values > 0)
    if bad.any():
        point = _first_bad_point(bad)
        value = float(values[point])
        raise StateError(
            f"non-positive {quantity} {value!r} at interior point {point}"
            + _where(step, stage)
        )


def _check_residuals(store: FieldStore, step, stage) -> None:
    for component in COMPONENT_NAMES:
        field = store.residual(component)
        finite = np.isfinite(field)
        if not finite.all():
            point = _first_bad_point(~finite)
            raise NumericalBlowupError(
                f"non-finite residual for {component} at interior point {point}"
                + _where(step, stage)
            )


def _worker_spans(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal k-ranges, one per worker."""
    parts = max(1, min(workers, n))
    bounds = [n * w // parts for w in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` threads, made on first use and
    reused by every later evaluation and update."""
    return ThreadPoolExecutor(workers)


def _launch(function, spans, workers: int) -> list:
    """Call function(z0, z1) once per span, on the pool when there are
    several workers and spans, and return the results in span order."""
    if workers == 1 or len(spans) == 1:
        return [function(z0, z1) for z0, z1 in spans]
    futures = [_pool(workers).submit(function, z0, z1) for z0, z1 in spans]
    wait(futures)  # a failing span never leaves others running on the store
    return [future.result() for future in futures]


def _numpy_phases(plan: KernelPlan, arrays, n: int) -> list:
    """The reference backend: one slab callable per phase, launched in
    the same order as the compiled functions."""

    def phase(statements):
        def run(z0: int, z1: int) -> int:
            evaluator = _SlabEval(arrays, {}, n, z0, z1)
            # Overflow and NaN are legitimate runtime outcomes here; the
            # finiteness check turns them into errors with point context,
            # so numpy's own warnings are noise (errstate is per-thread).
            with np.errstate(over="ignore", invalid="ignore"):
                for stmt in statements:
                    value = evaluator(stmt.expr)
                    if stmt.array is None:
                        evaluator.locals[stmt.target] = value
                    else:
                        view = _view(arrays[stmt.array], n, ZERO_OFFSET, z0, z1)
                        np.copyto(view, value)
            return 0  # counts nothing: _check_residuals tests every result

        return run

    return [phase(p.statements) for p in plan.phases]


def execute_plan(
    plan: KernelPlan,
    store: FieldStore,
    workers: int = 1,
    step: int | None = None,
    stage: int | None = None,
) -> dict[str, np.ndarray]:
    """Run the plan's phases in order and return the residual fields.

    The phases run compiled when the plan's C kernel builds and loads
    (see ``cbackend``), and through the numpy slab evaluator otherwise;
    both give the same bits. Each phase is split into k-ranges across
    `workers` threads of one pool that every call reuses.

    This is the only code that refreshes halos, and it trusts none it
    finds: it exchanges the solution on entry and, after each phase, the
    arrays in that phase's ``exchange``.

    It also tests the state it reads: density on entry, pressure after
    the first (primitive) phase and finite residuals at the end. The
    compiled phases count the non-finite residuals they store, so there
    the numpy test runs only to name the first bad point. `step` and
    `stage` only label the messages of those errors.
    """
    grid = store.grid
    n = grid.n
    if not math.isclose(plan.h, grid.h, rel_tol=1e-12, abs_tol=0.0):
        raise GridError(f"plan spacing {plan.h} does not match grid spacing {grid.h}")
    store.ensure_work(plan.arrays)
    for name in COMPONENT_NAMES:
        store.exchange(name)
    check_positive(store.interior("rho"), "density", step, stage)

    kernel = cbackend.KERNELS.lookup(plan, n)
    arrays = {name: store.full(name) for name in store.names()}
    if kernel.functions is None:
        functions = _numpy_phases(plan, arrays, n)
        spans = _slab_spans(n)
    else:
        table = kernel.pointers(arrays)
        functions = [functools.partial(f, table) for f in kernel.functions]
        spans = _worker_spans(n, workers)

    nonfinite = 0
    for index, (phase, function) in enumerate(zip(plan.phases, functions)):
        nonfinite += sum(_launch(function, spans, workers))
        if index == 0:
            check_positive(store.interior("p"), "pressure", step, stage)
        for name in phase.exchange:
            store.exchange(name)

    if kernel.functions is None or nonfinite:
        _check_residuals(store, step, stage)
    return {component: store.residual(component) for component in COMPONENT_NAMES}


def update_solution(
    plan: KernelPlan,
    store: FieldStore,
    accumulators: dict[str, np.ndarray],
    a_k: float,
    bdt: float,
    workers: int = 1,
) -> None:
    """One RK stage's update of the interiors from the store's residuals:
    ``acc = a_k*acc + res`` (a copy when `a_k` is 0), then
    ``sol = sol + bdt*acc``, on the backend that ran the plan.

    The accumulators are padded Fortran-order arrays, one per solution
    component. Compiled, ``fd_update`` runs on the k-ranges and the pool
    of the phases; the numpy reference runs whole-interior passes.
    """
    kernel = cbackend.KERNELS.lookup(plan, store.grid.n)
    if kernel.update is None:
        for name in COMPONENT_NAMES:
            acc = accumulators[name][HALO:-HALO, HALO:-HALO, HALO:-HALO]
            if a_k == 0.0:
                np.copyto(acc, store.residual(name))
            else:
                np.multiply(acc, a_k, out=acc)
                np.add(acc, store.residual(name), out=acc)
            solution = store.interior(name)
            np.add(solution, bdt * acc, out=solution)
        return
    arrays = {name: store.full(name) for name in store.names()}
    arrays.update({f"acc_{name}": acc for name, acc in accumulators.items()})
    table = kernel.pointers(arrays, cbackend.UPDATE_TABLE)
    update = functools.partial(kernel.update, table, a_k, bdt)
    _launch(update, _worker_spans(store.grid.n, workers), workers)

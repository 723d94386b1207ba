"""Application of a kernel plan to grid fields.

``bind`` chooses a run's backend once: the compiled C kernel of
``cbackend``, or the numpy slab evaluator and update below, which are the
reference the compiled code must match bit for bit. It returns a
``BoundPlan`` holding the plan's phases and update bound to one store's
arrays. ``execute_plan`` runs those phases in launch order, refreshes the
halos each phase names and names any bad state a phase counted, and
``update_solution`` applies one RK stage's update.

The numpy evaluator walks each statement's expression tree node by node
over a slab of interior points, with field references resolved to
shifted views into the padded arrays. No subexpression caching happens
here on purpose: the tree shape IS the variant's compute recipe, and
collapsing repeated subtrees would erase exactly the recomputation the
storage policies trade against memory traffic.

A phase or update call covers planes [k0, k1) along axis 2 and takes
the number of threads to run on, so ``execute_plan`` makes one call per
phase and ``update_solution`` one per stage, on either backend. The
compiled functions thread themselves (OpenMP, see ``cbackend``). The
numpy reference splits its range into the same shares and runs them on
one thread pool per worker count, the pool's only user, walking each
share in slabs. Every elementwise operation is independent per point,
so results are bit-identical for any slab width and any thread count.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

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


def _slabs(k0: int, k1: int, n: int) -> list[tuple[int, int]]:
    """Planes [k0, k1) in slabs of about ``_SLAB_BYTES`` per array."""
    width = max(1, min(n, _SLAB_BYTES // (8 * n * n)))
    return [(z, min(z + width, k1)) for z in range(k0, k1, width)]


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


def _spans(k0: int, k1: int, parts: int) -> list[tuple[int, int]]:
    """[k0, k1) in `parts` contiguous, near-equal ranges: the split the
    compiled functions give the threads of a team."""
    bounds = [k0 + (k1 - k0) * t // parts for t in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` threads, made on first use and
    reused by every later numpy evaluation and update."""
    return ThreadPoolExecutor(workers)


def _fan_out(function, k0: int, k1: int, threads: int) -> list:
    """Call function(z0, z1) on each of `threads` shares of [k0, k1), on
    the pool when there are several, and return the results in order."""
    if threads <= 1:
        return [function(k0, k1)]
    pool = _pool(threads)
    futures = [pool.submit(function, z0, z1) for z0, z1 in _spans(k0, k1, threads)]
    wait(futures)  # a failing share never leaves others running on the store
    return [future.result() for future in futures]


def _numpy_phase(phase, arrays, n: int):
    """The numpy reference of one compiled phase function: run the
    phase's statements over planes [k0, k1), split across `threads`
    workers and slab by slab within a worker's share, and return how
    many non-finite values they stored into residual arrays plus how many
    points have an array of ``phase.positive`` not positive."""

    def share(k0: int, k1: int) -> int:
        bad = 0
        # Overflow, NaN and a zero density are legitimate runtime outcomes
        # here; they are counted and named by the caller, so numpy's own
        # warnings are noise (errstate is per-thread).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for z0, z1 in _slabs(k0, k1, n):
                evaluator = _SlabEval(arrays, {}, n, z0, z1)
                for stmt in phase.statements:
                    value = evaluator(stmt.expr)
                    if stmt.array is None:
                        evaluator.locals[stmt.target] = value
                        continue
                    view = _view(arrays[stmt.array], n, ZERO_OFFSET, z0, z1)
                    np.copyto(view, value)
                    if stmt.kind == "residual":
                        bad += view.size - np.count_nonzero(np.isfinite(view))
                if phase.positive:
                    views = [
                        _view(arrays[name], n, ZERO_OFFSET, z0, z1)
                        for name, _ in phase.positive
                    ]
                    bad += np.count_nonzero(
                        np.logical_or.reduce([~(v > 0) for v in views])
                    )
        return bad

    def run(k0: int, k1: int, threads: int) -> int:
        return sum(_fan_out(share, k0, k1, threads))

    return run


def _numpy_update(arrays, n: int):
    """The numpy reference of ``fd_update`` over planes [k0, k1), split
    across `threads` workers: ``acc = a_k*acc + res`` (a copy when `a_k`
    is 0), then ``sol = sol + bdt*acc``."""

    def share(a_k: float, bdt: float, k0: int, k1: int) -> None:
        for name in COMPONENT_NAMES:
            sol, res, acc = (
                _view(arrays[prefix + name], n, ZERO_OFFSET, k0, k1)
                for prefix in ("", "res_", "acc_")
            )
            if a_k == 0.0:
                np.copyto(acc, res)
            else:
                np.multiply(acc, a_k, out=acc)
                np.add(acc, res, out=acc)
            np.add(sol, bdt * acc, out=sol)

    def run(a_k: float, bdt: float, k0: int, k1: int, threads: int) -> None:
        _fan_out(functools.partial(share, a_k, bdt), k0, k1, threads)

    return run


@dataclass(frozen=True)
class BoundPlan:
    """A plan bound to a store for a run. A phase is a callable (k0, k1,
    threads) over planes [k0, k1) that returns how many non-finite values
    it stored into residual arrays and how many points have an array of
    its ``positive`` not positive; ``update`` is a callable (a_k, bdt, k0,
    k1, threads). ``threads`` is the team size every call runs with. The
    compiled callables hold raw pointers into the store's arrays, which
    the store keeps alive."""

    plan: KernelPlan
    store: FieldStore
    phases: tuple
    update: Callable
    threads: int


def bind(plan: KernelPlan, store: FieldStore, workers: int = 1) -> BoundPlan:
    """Bind the plan's phases, in launch order, and its update to the
    store's arrays, allocating the plan's work arrays: the compiled
    kernel's functions through its one pointer table when the kernel
    built (see ``cbackend``), the numpy reference otherwise. A store on
    another grid than the plan's is refused before anything is touched.
    Every call runs on ``min(workers, n)`` threads, so no thread is left
    without a plane."""
    if plan.grid != store.grid:
        raise GridError(
            f"plan spacing {plan.grid.h} does not match grid spacing {store.grid.h}"
        )
    store.ensure_work(plan.arrays)
    n = store.grid.n
    kernel = cbackend.KERNELS.lookup(plan)
    arrays = {name: store.full(name) for name in store.names()}
    if kernel.functions is None:
        phases = tuple(_numpy_phase(p, arrays, n) for p in plan.phases)
        update = _numpy_update(arrays, n)
    else:
        table = kernel.pointers(arrays)
        phases = tuple(functools.partial(f, table) for f in kernel.functions)
        update = functools.partial(kernel.update, table)
    return BoundPlan(plan, store, phases, update, max(1, min(workers, n)))


def execute_plan(
    bound: BoundPlan, step: int | None = None, stage: int | None = None
) -> dict[str, np.ndarray]:
    """Run the bound plan's phases in order and return the residual fields.

    Each phase is one call over all planes on the bound threads.

    This is the only code that refreshes halos, and it trusts none it
    finds: it exchanges the solution on entry and, after each phase, the
    arrays in that phase's ``exchange``.

    It also tests the state it reads: the primitive phase counts the
    points where density or pressure is not positive, and the point phase
    the non-finite residuals it stores. Only a nonzero count runs the
    numpy search that names the first bad point (density, then pressure,
    then the residuals), so a healthy evaluation makes no pass over the
    grid outside the phases. `step` and `stage` only label the messages
    of those errors.
    """
    store = bound.store
    for name in COMPONENT_NAMES:
        store.exchange(name)
    n = store.grid.n
    for phase, function in zip(bound.plan.phases, bound.phases):
        if function(0, n, bound.threads):
            for name, quantity in phase.positive:
                check_positive(store.interior(name), quantity, step, stage)
            if any(s.kind == "residual" for s in phase.statements):
                _check_residuals(store, step, stage)
        for name in phase.exchange:
            store.exchange(name)
    return {component: store.residual(component) for component in COMPONENT_NAMES}


def update_solution(bound: BoundPlan, a_k: float, bdt: float) -> None:
    """One RK stage's update of the interiors, one call on the threads of
    the phases: ``acc = a_k*acc + res`` (a copy when `a_k` is 0), then
    ``sol = sol + bdt*acc``, with the store's ``acc_*`` arrays."""
    bound.update(a_k, bdt, 0, bound.store.grid.n, bound.threads)

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

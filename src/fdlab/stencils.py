"""Fourth-order central difference stencils on a uniform periodic grid.

Weights are held as exact rationals and folded with the grid spacing
into a single float multiplier per tap when an expression is built, so
a discretized derivative costs one multiplication and one shifted read
per tap plus the adds that join them.

``discretize`` is the one lowering pass from symbolic derivatives to
stencils. ``plan.build_plan`` calls it (and ``expand`` for one census
node) with the storage policy's map from derivative nodes to the array
or local that holds them; called without a map it expands everything,
which is the reference the tests compare the plans against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import ExprError, UnsupportedDerivativeError

#: (shift, weight) taps of the 4th order first derivative, zero tap omitted.
FIRST_DERIVATIVE_WEIGHTS: tuple[tuple[int, Fraction], ...] = (
    (-2, Fraction(1, 12)),
    (-1, Fraction(-2, 3)),
    (1, Fraction(2, 3)),
    (2, Fraction(-1, 12)),
)

#: (shift, weight) taps of the 4th order second derivative.
SECOND_DERIVATIVE_WEIGHTS: tuple[tuple[int, Fraction], ...] = (
    (-2, Fraction(-1, 12)),
    (-1, Fraction(4, 3)),
    (0, Fraction(-5, 2)),
    (1, Fraction(4, 3)),
    (2, Fraction(-1, 12)),
)


@dataclass(frozen=True)
class StencilCoeffs:
    """Tap table for one derivative order, exact until scaled by h."""

    derivative_order: int
    taps: tuple[tuple[int, Fraction], ...]

    def scaled(self, h: float) -> tuple[tuple[int, float], ...]:
        """Fold h into the weights, one float multiplier per tap."""
        if h <= 0:
            raise ExprError(f"grid spacing must be positive, got {h}")
        scale = h if self.derivative_order == 1 else h * h
        return tuple((shift, float(w) / scale) for shift, w in self.taps)


def first_derivative_stencil() -> StencilCoeffs:
    return StencilCoeffs(1, FIRST_DERIVATIVE_WEIGHTS)


def second_derivative_stencil() -> StencilCoeffs:
    return StencilCoeffs(2, SECOND_DERIVATIVE_WEIGHTS)


def _axis_offset(axis: int, shift: int) -> ex.Offset:
    off = [0, 0, 0]
    off[axis] = shift
    return tuple(off)  # type: ignore[return-value]


def apply_stencil(
    stencil: StencilCoeffs, operand: ex.Expr, axis: int, h: float
) -> ex.Expr:
    """Expand one stencil application into shifted reads of ``operand``.

    The operand must already be free of Derivative nodes. Taps are laid
    down in ascending shift order.
    """
    if axis not in (0, 1, 2):
        raise ExprError(f"axis out of range: {axis}")
    terms = [
        ex.mul(ex.const(w), ex.shift(operand, _axis_offset(axis, s)))
        for s, w in stencil.scaled(h)
    ]
    return ex.add(*terms)


def discretize(expr: ex.Expr, h: float, stored=None) -> ex.Expr:
    """Replace every Derivative node with its central difference expansion.

    ``stored`` maps Derivative nodes to the leaf that holds their value:
    ``ex.array(name)`` for a global work array, ``ex.local(name)`` for a
    per-point local. A stored node read at the point itself becomes its
    leaf; every other node is expanded by ``expand``.
    """
    return _discretize(expr, h, stored, True)


def expand(node: ex.Derivative, h: float, stored=None) -> ex.Expr:
    """The central difference expansion of one Derivative node.

    One axis uses the first derivative stencil, a repeated axis the
    second derivative stencil, and two distinct axes nest first
    differences with the trailing axis applied first. A Derivative
    operand that is itself a Derivative is resolved before the outer
    stencil is applied, so explicitly sequenced repeated differences
    stay sequenced.

    Operands are read at neighbour points, where only global arrays
    exist: an inner derivative (a sequenced pair's inner member, a mixed
    pair's inner first difference, or one nested in the operand) is read
    from its ``stored`` array, and re-expanded in place when it is a
    local or not stored at all.
    """
    axes = node.axes
    if len(axes) == 1:
        operand = _discretize(node.operand, h, stored, False)
        return apply_stencil(first_derivative_stencil(), operand, axes[0], h)
    if axes[0] == axes[1]:
        operand = _discretize(node.operand, h, stored, False)
        return apply_stencil(second_derivative_stencil(), operand, axes[0], h)
    inner = _discretize(ex.Derivative(node.operand, (axes[1],)), h, stored, False)
    return apply_stencil(first_derivative_stencil(), inner, axes[0], h)


_LEAVES = (ex.Constant, ex.RationalConstant, ex.WorkRef, ex.LocalRef)


def _discretize(expr: ex.Expr, h: float, stored, at_point: bool) -> ex.Expr:
    """``discretize`` for an expression read at the point itself
    (``at_point``) or at a neighbour, where a stored local cannot be read."""
    if isinstance(expr, _LEAVES):
        return expr
    if isinstance(expr, ex.Neg):
        return ex.neg(_discretize(expr.child, h, stored, at_point))
    if isinstance(expr, ex.Add):
        return ex.add(*(_discretize(c, h, stored, at_point) for c in expr.children))
    if isinstance(expr, ex.Mul):
        return ex.mul(*(_discretize(c, h, stored, at_point) for c in expr.children))
    if isinstance(expr, ex.Div):
        return ex.div(
            _discretize(expr.numerator, h, stored, at_point),
            _discretize(expr.denominator, h, stored, at_point),
        )
    if isinstance(expr, ex.IntPow):
        return ex.intpow(_discretize(expr.base, h, stored, at_point), expr.exponent)
    if isinstance(expr, ex.Derivative):
        leaf = stored.get(expr) if stored else None
        if leaf is not None and (at_point or isinstance(leaf, ex.WorkRef)):
            return leaf
        return expand(expr, h, stored)
    raise UnsupportedDerivativeError(f"cannot discretize {expr!r}")

"""Immutable expression IR for pointwise field arithmetic.

Expressions are trees of frozen dataclass nodes. A leaf is a numeric
constant or a storage read: ``WorkRef(name, offset)`` reads a global
padded array at an integer offset from the current point (a conserved
solution component, a primitive, a work array), and ``LocalRef(name)``
reads a per-point local. ``solution(c)`` is ``array(COMPONENT_NAMES[c])``:
a solution component is an array like any other.
Interior nodes are negation, n-ary sums and products, division, small
integer powers, and symbolic derivatives awaiting discretization.

Construction goes through the smart constructors (``add``, ``mul``,
``neg``, ``div``, ``intpow``, ``deriv``), which apply exactly two
normalizations so that operation counts are reproducible:

* n-ary flattening of nested sums and products, and
* constant folding (exact rational arithmetic until a float joins).

No algebraic rewriting beyond that: no distribution, no collection of
like terms, no common-subexpression elimination. A shared subtree that
occurs twice in a tree is counted twice by ``count_ops``.

Reference offsets are bounded to the halo range [-4, 4] per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    ExprError,
    FootprintError,
    NotDiscretizedError,
    UnboundReferenceError,
    UnsupportedDerivativeError,
)

MAX_OFFSET = 4

#: Canonical names of the conserved solution components, by index.
COMPONENT_NAMES = ("rho", "rhou0", "rhou1", "rhou2", "rhoE")

Offset = tuple[int, int, int]
ZERO_OFFSET: Offset = (0, 0, 0)


def _check_offset(offset: Offset) -> Offset:
    offset = tuple(int(o) for o in offset)  # type: ignore[assignment]
    if len(offset) != 3:
        raise ExprError(f"offset must have three entries, got {offset!r}")
    for axis, o in enumerate(offset):
        if abs(o) > MAX_OFFSET:
            raise FootprintError(
                f"offset {o:+d} along axis {axis} exceeds the halo range "
                f"[-{MAX_OFFSET}, {MAX_OFFSET}]"
            )
    return offset


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    """Real constant stored as a float."""

    value: float


@dataclass(frozen=True)
class RationalConstant(Expr):
    """Exact rational constant, kept reduced with a positive denominator."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator == 0:
            raise ExprError("rational constant with zero denominator")
        frac = Fraction(self.numerator, self.denominator)
        object.__setattr__(self, "numerator", frac.numerator)
        object.__setattr__(self, "denominator", frac.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class WorkRef(Expr):
    """Read of a named global array (solution component, primitive or work
    array) at an offset."""

    array: str
    offset: Offset = ZERO_OFFSET

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", _check_offset(self.offset))


@dataclass(frozen=True)
class LocalRef(Expr):
    """Read of a per-point local variable."""

    name: str


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class Add(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True)
class Mul(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True)
class Div(Expr):
    """Division node. Constant denominators are folded away at build time."""

    numerator: Expr
    denominator: Expr


@dataclass(frozen=True)
class IntPow(Expr):
    """Small positive integer power, costed as repeated multiplication."""

    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 2:
            raise ExprError("IntPow exponent must be >= 2; fold smaller powers")


@dataclass(frozen=True)
class Derivative(Expr):
    """Symbolic partial derivative along one or two axes.

    One axis is a first derivative. A repeated axis pair is a direct
    second derivative. Two distinct axes form a mixed derivative that
    discretizes as nested first differences, inner axis last in ``axes``.
    The operand may itself be a Derivative, which expresses an explicitly
    sequenced pair of first derivatives along the same axis.
    """

    operand: Expr
    axes: tuple[int, ...]

    def __post_init__(self) -> None:
        axes = tuple(int(a) for a in self.axes)
        if not 1 <= len(axes) <= 2:
            raise UnsupportedDerivativeError(
                f"derivatives support one or two axes, got {axes!r}"
            )
        if any(a not in (0, 1, 2) for a in axes):
            raise ExprError(f"axis out of range in {axes!r}")
        object.__setattr__(self, "axes", axes)


NumberLike = Union[int, float, Fraction, Expr]

_ZERO = RationalConstant(0, 1)
_ONE = RationalConstant(1, 1)


def const(value: float) -> Constant:
    return Constant(float(value))


def rational(numerator: int, denominator: int = 1) -> RationalConstant:
    return RationalConstant(numerator, denominator)


def as_expr(value: NumberLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise ExprError("booleans are not expressions")
    if isinstance(value, int):
        return RationalConstant(value, 1)
    if isinstance(value, Fraction):
        return RationalConstant(value.numerator, value.denominator)
    if isinstance(value, float):
        return Constant(value)
    raise ExprError(f"cannot coerce {value!r} to an expression")


def is_constant(node: Expr) -> bool:
    return isinstance(node, (Constant, RationalConstant))


def constant_value(node: Expr) -> float:
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, RationalConstant):
        return node.numerator / node.denominator
    raise ExprError(f"not a constant: {node!r}")


def _fold_constants(values: list[Expr], combine: str) -> Expr:
    """Combine constant nodes exactly; return a single constant node."""
    frac = Fraction(0) if combine == "add" else Fraction(1)
    flt: float | None = None
    for node in values:
        if isinstance(node, RationalConstant):
            v = node.as_fraction()
        else:
            v = node.value  # type: ignore[union-attr]
        if isinstance(v, Fraction) and flt is None:
            frac = frac + v if combine == "add" else frac * v
        else:
            if flt is None:
                flt = float(frac)
                frac = Fraction(0) if combine == "add" else Fraction(1)
            fv = float(v)
            flt = flt + fv if combine == "add" else flt * fv
    if flt is None:
        return RationalConstant(frac.numerator, frac.denominator)
    if combine == "add":
        return Constant(flt + float(frac)) if frac else Constant(flt)
    return Constant(flt * float(frac)) if frac != 1 else Constant(flt)


def _is_zero(node: Expr) -> bool:
    return (isinstance(node, RationalConstant) and node.numerator == 0) or (
        isinstance(node, Constant) and node.value == 0.0
    )


def _is_one(node: Expr) -> bool:
    return (
        isinstance(node, RationalConstant)
        and node.numerator == 1
        and node.denominator == 1
    ) or (isinstance(node, Constant) and node.value == 1.0)


def add(*terms: NumberLike) -> Expr:
    """Sum of terms with flattening and exact constant folding.

    The constant part, if any survives, is placed first. Child order is
    otherwise the call order, which keeps dumps and counts deterministic.
    """
    flat: list[Expr] = []
    consts: list[Expr] = []
    for term in terms:
        node = as_expr(term)
        if isinstance(node, Add):
            for child in node.children:
                (consts if is_constant(child) else flat).append(child)
        elif is_constant(node):
            consts.append(node)
        else:
            flat.append(node)
    if consts:
        folded = _fold_constants(consts, "add")
        if not _is_zero(folded):
            flat.insert(0, folded)
    if not flat:
        return _ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: NumberLike) -> Expr:
    """Product of factors with flattening and exact constant folding."""
    flat: list[Expr] = []
    consts: list[Expr] = []
    for factor in factors:
        node = as_expr(factor)
        if isinstance(node, Mul):
            for child in node.children:
                (consts if is_constant(child) else flat).append(child)
        elif is_constant(node):
            consts.append(node)
        else:
            flat.append(node)
    if consts:
        folded = _fold_constants(consts, "mul")
        if _is_zero(folded):
            return _ZERO
        if not _is_one(folded):
            flat.insert(0, folded)
    if not flat:
        return _ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(term: NumberLike) -> Expr:
    node = as_expr(term)
    if isinstance(node, RationalConstant):
        return RationalConstant(-node.numerator, node.denominator)
    if isinstance(node, Constant):
        return Constant(-node.value)
    if isinstance(node, Neg):
        return node.child
    return Neg(node)


def div(numerator: NumberLike, denominator: NumberLike) -> Expr:
    """Quotient. A constant denominator folds into a multiplication."""
    num = as_expr(numerator)
    den = as_expr(denominator)
    if _is_zero(den):
        raise ExprError("division by constant zero")
    if isinstance(den, RationalConstant):
        return mul(RationalConstant(den.denominator, den.numerator), num)
    if isinstance(den, Constant):
        return mul(Constant(1.0 / den.value), num)
    if _is_zero(num):
        return _ZERO
    return Div(num, den)


def intpow(base: NumberLike, exponent: int) -> Expr:
    node = as_expr(base)
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return node
    if exponent < 0:
        raise ExprError("negative exponents are not supported")
    if isinstance(node, RationalConstant):
        frac = node.as_fraction() ** exponent
        return RationalConstant(frac.numerator, frac.denominator)
    if isinstance(node, Constant):
        return Constant(node.value**exponent)
    return IntPow(node, exponent)


def deriv(operand: NumberLike, *axes: int) -> Expr:
    node = as_expr(operand)
    if is_constant(node):
        return _ZERO
    return Derivative(node, tuple(axes))


def solution(component: int, offset: Offset = ZERO_OFFSET) -> WorkRef:
    """Read of conserved component ``component``: its array's WorkRef."""
    if not 0 <= component < len(COMPONENT_NAMES):
        raise ExprError(f"solution component out of range: {component}")
    return WorkRef(COMPONENT_NAMES[component], offset)


def array(name: str, offset: Offset = ZERO_OFFSET) -> WorkRef:
    return WorkRef(name, offset)


def local(name: str) -> LocalRef:
    return LocalRef(name)


def shift(expr: Expr, offset: Offset) -> Expr:
    """Translate every field reference in ``expr`` by ``offset``.

    Composed offsets must stay inside the halo range, otherwise a
    FootprintError naming the offending axis is raised. Expressions that
    contain per-point locals or underived Derivative nodes cannot be
    shifted; both indicate a lowering bug upstream.
    """
    if all(o == 0 for o in offset):
        return expr
    if isinstance(expr, (Constant, RationalConstant)):
        return expr
    if isinstance(expr, WorkRef):
        new = tuple(a + b for a, b in zip(expr.offset, offset))
        return WorkRef(expr.array, new)  # type: ignore[arg-type]
    if isinstance(expr, LocalRef):
        raise ExprError(f"cannot shift per-point local {expr.name!r}")
    if isinstance(expr, Neg):
        return Neg(shift(expr.child, offset))
    if isinstance(expr, Add):
        return Add(tuple(shift(c, offset) for c in expr.children))
    if isinstance(expr, Mul):
        return Mul(tuple(shift(c, offset) for c in expr.children))
    if isinstance(expr, Div):
        return Div(shift(expr.numerator, offset), shift(expr.denominator, offset))
    if isinstance(expr, IntPow):
        return IntPow(shift(expr.base, offset), expr.exponent)
    if isinstance(expr, Derivative):
        raise NotDiscretizedError("cannot shift an underived Derivative node")
    raise ExprError(f"unknown node {expr!r}")


@dataclass(frozen=True)
class OpCounts:
    """Arithmetic operation tally for one expression tree.

    Normalization: an n-ary sum or product counts n - 1 operations, an
    integer power counts exponent - 1 multiplications (``pows`` records
    occurrences without adding to the total), and constant folding has
    already happened at construction. Shared subtrees count once per
    textual occurrence.
    """

    adds: int = 0
    muls: int = 0
    divs: int = 0
    negs: int = 0
    pows: int = 0

    def total(self) -> int:
        return self.adds + self.muls + self.divs + self.negs


def count_ops(expr: Expr) -> OpCounts:
    """Tally arithmetic operations in a fully discretized expression."""
    adds = muls = divs = negs = pows = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Add):
            adds += len(node.children) - 1
            stack.extend(node.children)
        elif isinstance(node, Mul):
            muls += len(node.children) - 1
            stack.extend(node.children)
        elif isinstance(node, Div):
            divs += 1
            stack.append(node.numerator)
            stack.append(node.denominator)
        elif isinstance(node, Neg):
            negs += 1
            stack.append(node.child)
        elif isinstance(node, IntPow):
            muls += node.exponent - 1
            pows += 1
            stack.append(node.base)
        elif isinstance(node, Derivative):
            raise NotDiscretizedError(
                "count_ops requires a discretized expression; found a "
                "Derivative node"
            )
    return OpCounts(adds, muls, divs, negs, pows)


def evaluate(expr: Expr, bindings: Mapping[Expr, float]) -> float:
    """Scalar point evaluation of a discretized expression.

    ``bindings`` maps each ``WorkRef``/``LocalRef`` leaf the expression
    reads to a real value. This is the slow reference route used to check
    the vectorized executor; keep it independent of numpy.
    """
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, RationalConstant):
        return expr.numerator / expr.denominator
    if isinstance(expr, (WorkRef, LocalRef)):
        try:
            return float(bindings[expr])
        except KeyError:
            raise UnboundReferenceError(f"no value bound for {expr!r}") from None
    if isinstance(expr, Neg):
        return -evaluate(expr.child, bindings)
    if isinstance(expr, Add):
        acc = 0.0
        for child in expr.children:
            acc += evaluate(child, bindings)
        return acc
    if isinstance(expr, Mul):
        acc = 1.0
        for child in expr.children:
            acc *= evaluate(child, bindings)
        return acc
    if isinstance(expr, Div):
        return evaluate(expr.numerator, bindings) / evaluate(expr.denominator, bindings)
    if isinstance(expr, IntPow):
        return evaluate(expr.base, bindings) ** expr.exponent
    if isinstance(expr, Derivative):
        raise NotDiscretizedError("cannot point-evaluate a Derivative node")
    raise ExprError(f"unknown node {expr!r}")


def to_prefix(expr: Expr) -> str:
    """Deterministic prefix-notation dump, children in construction order.

    Grammar (one line, no indentation):
      constant   -> shortest float repr, e.g. ``-0.5``
      rational   -> ``a/b``
      solution   -> ``(sol NAME o0 o1 o2)``, an array named in COMPONENT_NAMES
      array      -> ``(arr NAME o0 o1 o2)``, any other array
      local      -> ``(loc NAME)``
      negation   -> ``(neg X)``
      sum        -> ``(+ X Y ...)``
      product    -> ``(* X Y ...)``
      quotient   -> ``(/ X Y)``
      power      -> ``(pow X n)``
      derivative -> ``(deriv (a0 a1) X)`` or ``(deriv (a0) X)``
    """
    if isinstance(expr, Constant):
        return repr(expr.value)
    if isinstance(expr, RationalConstant):
        return f"{expr.numerator}/{expr.denominator}"
    if isinstance(expr, WorkRef):
        label = "sol" if expr.array in COMPONENT_NAMES else "arr"
        o0, o1, o2 = expr.offset
        return f"({label} {expr.array} {o0} {o1} {o2})"
    if isinstance(expr, LocalRef):
        return f"(loc {expr.name})"
    if isinstance(expr, Neg):
        return f"(neg {to_prefix(expr.child)})"
    if isinstance(expr, Add):
        return "(+ " + " ".join(to_prefix(c) for c in expr.children) + ")"
    if isinstance(expr, Mul):
        return "(* " + " ".join(to_prefix(c) for c in expr.children) + ")"
    if isinstance(expr, Div):
        return f"(/ {to_prefix(expr.numerator)} {to_prefix(expr.denominator)})"
    if isinstance(expr, IntPow):
        return f"(pow {to_prefix(expr.base)} {expr.exponent})"
    if isinstance(expr, Derivative):
        axes = " ".join(str(a) for a in expr.axes)
        return f"(deriv ({axes}) {to_prefix(expr.operand)})"
    raise ExprError(f"unknown node {expr!r}")


def walk(expr: Expr):
    """Pre-order iterator over every node occurrence in the tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.child)
        elif isinstance(node, (Add, Mul)):
            stack.extend(reversed(node.children))
        elif isinstance(node, Div):
            stack.append(node.denominator)
            stack.append(node.numerator)
        elif isinstance(node, IntPow):
            stack.append(node.base)
        elif isinstance(node, Derivative):
            stack.append(node.operand)


def references(expr: Expr):
    """Iterate the ``WorkRef`` and ``LocalRef`` leaves of every storage
    read, in walk order, one per occurrence."""
    for node in walk(expr):
        if isinstance(node, (WorkRef, LocalRef)):
            yield node

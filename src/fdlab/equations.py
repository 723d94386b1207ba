"""Symbolic residuals of the skew-symmetric compressible flow equations.

Builds the five right-hand sides (mass, three momenta, energy) over the
expression IR, together with the primitive-variable definitions and the
census of distinct spatial derivatives they contain. Construction is
purely symbolic; storage decisions live in the plan layer and
discretization in ``stencils``.

Terms are laid down exactly as the governing equations state them, with
Einstein sums expanded and Kronecker deltas resolved at build time. No
like terms are collected, so each textual occurrence of a derivative
stays a separate node occurrence and operation counts mean what the
kernel actually evaluates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as ex
from .errors import ExprError

#: Names of the primitive global arrays, written once per substage.
PRIMITIVE_ARRAYS = ("u0", "u1", "u2", "p", "T")

#: Per-point locals of the primitive phase.
RECIPROCAL_DENSITY = "rinv"

#: The arrays a physical state keeps positive at every point, with the
#: quantity an error names, in the order they are tested: the density
#: the primitive phase reads and the pressure it writes.
POSITIVE = (("rho", "density"), ("p", "pressure"))


@dataclass(frozen=True)
class FlowParams:
    """Non-dimensional flow constants and their precomputed ratios."""

    reynolds: float = 1600.0
    prandtl: float = 0.71
    mach: float = 0.1
    gamma: float = 1.4

    def __post_init__(self) -> None:
        if self.reynolds <= 0 or self.prandtl <= 0 or self.mach <= 0:
            raise ValueError("Re, Pr and M must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")

    # Derived constants are evaluated through exact rationals and rounded
    # once, so each equals its defining ratio to the last bit.

    @property
    def inv_reynolds(self) -> float:
        return float(1 / Fraction(self.reynolds))

    @property
    def heat_coefficient(self) -> float:
        """Conduction coefficient 1/((gamma-1) M^2 Pr Re)."""
        g, m = Fraction(self.gamma), Fraction(self.mach)
        return float(1 / ((g - 1) * m**2 * Fraction(self.prandtl) * Fraction(self.reynolds)))

    @property
    def gamma_mach_sq(self) -> float:
        return float(Fraction(self.gamma) * Fraction(self.mach) ** 2)

    @property
    def inv_gamma_mach_sq(self) -> float:
        return float(1 / (Fraction(self.gamma) * Fraction(self.mach) ** 2))


@dataclass(frozen=True)
class Statement:
    """One assignment: kind is 'local', 'array', or 'residual'."""

    kind: str
    target: str
    expr: ex.Expr

    @property
    def array(self) -> str | None:
        """The padded array the statement stores to; None for a local."""
        if self.kind == "local":
            return None
        return "res_" + self.target if self.kind == "residual" else self.target


@dataclass(frozen=True)
class DerivativeEntry:
    """One census member: a distinct Derivative node and its identity."""

    name: str
    node: ex.Derivative
    is_velocity_gradient: bool


@dataclass(frozen=True)
class EquationSet:
    """Primitive definitions, five residuals, and the derivative census."""

    primitives: tuple[Statement, ...]
    residuals: tuple[ex.Expr, ...]
    derivatives: tuple[DerivativeEntry, ...] = field(repr=False)

    # The trees are immutable, so they are hashed once, by the first
    # lookup that keys on the set (the build_plan memo).
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.primitives, self.residuals, self.derivatives))

    def __hash__(self) -> int:
        return self._hash


_RHO = ex.solution(0)
_RHOU = tuple(ex.solution(1 + i) for i in range(3))
_RHOE = ex.solution(4)
_U = tuple(ex.array(f"u{i}") for i in range(3))
_P = ex.array("p")
_T = ex.array("T")


def build_primitives(params: FlowParams) -> list[Statement]:
    """Primitive-phase assignments: rinv, u0, u1, u2, p, T in order.

    The density division happens once per point into the rinv local;
    velocities, pressure and temperature reuse it. Pressure reads the
    velocity arrays written earlier in the phase and temperature reads
    the pressure array, all at the local point.
    """
    rinv = ex.local(RECIPROCAL_DENSITY)
    kinetic = ex.add(*[ex.intpow(_U[i], 2) for i in range(3)])
    pressure = ex.mul(
        ex.const(params.gamma - 1.0),
        ex.add(_RHOE, ex.neg(ex.mul(ex.rational(1, 2), _RHO, kinetic))),
    )
    temperature = ex.mul(ex.const(params.gamma_mach_sq), _P, rinv)
    defs = [Statement("local", RECIPROCAL_DENSITY, ex.div(1, _RHO))]
    defs += [
        Statement("array", f"u{i}", ex.mul(_RHOU[i], rinv)) for i in range(3)
    ]
    defs.append(Statement("array", "p", pressure))
    defs.append(Statement("array", "T", temperature))
    return defs


def _vg(i: int, j: int) -> ex.Expr:
    """Velocity gradient component du_i/dx_j."""
    return ex.deriv(_U[i], j)


def _dilatation() -> ex.Expr:
    """The expanded trace du_j/dx_j, rebuilt per textual occurrence."""
    return ex.add(*[_vg(j, j) for j in range(3)])


def _second(i: int, outer: int, inner: int) -> ex.Expr:
    """Second derivative of u_i along (outer, inner).

    Distinct axes form one 2-axis node. A repeated axis arising from the
    contracted mixed term is kept as an explicitly sequenced pair of
    first derivatives, which is a different discrete operator from the
    direct second-derivative stencil used for Laplacian terms.
    """
    if outer == inner:
        return ex.deriv(ex.deriv(_U[i], inner), outer)
    return ex.deriv(_U[i], outer, inner)


def _viscous_bracket(params: FlowParams, i: int) -> ex.Expr:
    """Laplacian of u_i plus mixed terms minus 2/3 of the contracted set."""
    laplacian = [ex.deriv(_U[i], j, j) for j in range(3)]
    mixed = [_second(j, i, j) for j in range(3)]
    traced = [_second(k, i, k) for k in range(3)]
    return ex.add(
        *laplacian,
        *mixed,
        ex.neg(ex.mul(ex.rational(2, 3), ex.add(*traced))),
    )


def _mass(params: FlowParams) -> ex.Expr:
    divergence = ex.add(*[ex.deriv(_RHOU[j], j) for j in range(3)])
    advection = ex.add(*[ex.mul(_U[j], ex.deriv(_RHO, j)) for j in range(3)])
    return ex.mul(
        ex.rational(-1, 2),
        ex.add(divergence, ex.mul(_RHO, _dilatation()), advection),
    )


def _momentum(params: FlowParams, i: int) -> ex.Expr:
    divergence = ex.add(*[ex.deriv(ex.mul(_RHOU[i], _U[j]), j) for j in range(3)])
    advection = ex.add(*[ex.mul(_U[j], ex.deriv(_RHOU[i], j)) for j in range(3)])
    convective = ex.mul(
        ex.rational(-1, 2),
        ex.add(divergence, ex.mul(_RHOU[i], _dilatation()), advection),
    )
    return ex.add(
        convective,
        ex.neg(ex.deriv(_P, i)),
        ex.mul(ex.const(params.inv_reynolds), _viscous_bracket(params, i)),
    )


def _energy(params: FlowParams) -> ex.Expr:
    convective = ex.mul(
        ex.rational(-1, 2),
        ex.add(
            ex.mul(_RHOE, _dilatation()),
            ex.neg(ex.add(*[ex.mul(_U[j], ex.deriv(_RHOE, j)) for j in range(3)])),
            ex.neg(ex.add(*[ex.deriv(ex.mul(_RHOE, _U[j]), j) for j in range(3)])),
        ),
    )
    pressure_work = ex.neg(
        ex.add(*[ex.deriv(ex.mul(_P, _U[j]), j) for j in range(3)])
    )
    viscous_work = ex.add(
        *[
            ex.mul(ex.const(params.inv_reynolds), _U[i], _viscous_bracket(params, i))
            for i in range(3)
        ]
    )

    def stress(i: int, j: int) -> ex.Expr:
        terms = [_vg(i, j), _vg(j, i)]
        if i == j:
            terms.append(ex.neg(ex.mul(ex.rational(2, 3), _dilatation())))
        return ex.add(*terms)

    dissipation = ex.mul(
        ex.const(params.inv_reynolds),
        ex.add(*[ex.mul(_vg(i, j), stress(i, j)) for i in range(3) for j in range(3)]),
    )
    conduction = ex.mul(
        ex.const(params.heat_coefficient),
        ex.add(*[ex.deriv(_T, j, j) for j in range(3)]),
    )
    return ex.add(convective, pressure_work, viscous_work, dissipation, conduction)


def _operand_tag(node: ex.Expr) -> str:
    if isinstance(node, ex.WorkRef):
        return node.array
    if isinstance(node, ex.Mul):
        return "".join(_operand_tag(c) for c in node.children)
    if isinstance(node, ex.Derivative):
        return derivative_name(node)
    raise ExprError(f"unexpected derivative operand {node!r}")


def derivative_name(node: ex.Derivative) -> str:
    axes = "".join(f"x{a}" for a in node.axes)
    return f"d_{_operand_tag(node.operand)}_{axes}"


def _is_velocity_gradient(node: ex.Derivative) -> bool:
    return (
        len(node.axes) == 1
        and isinstance(node.operand, ex.WorkRef)
        and node.operand.array in ("u0", "u1", "u2")
        and node.operand.offset == (0, 0, 0)
    )


def census(residuals: tuple[ex.Expr, ...]) -> tuple[DerivativeEntry, ...]:
    """Distinct Derivative nodes in first-encounter order over residuals.

    The walk descends into derivative operands, so the inner member of a
    sequenced pair is listed on its own as well (it is in any case first
    met directly in the mass equation).
    """
    seen: dict[ex.Derivative, None] = {}
    for residual in residuals:
        for node in ex.walk(residual):
            if isinstance(node, ex.Derivative) and node not in seen:
                seen[node] = None
    return tuple(
        DerivativeEntry(derivative_name(n), n, _is_velocity_gradient(n))
        for n in seen
    )


@functools.cache
def build_equations(params: FlowParams) -> EquationSet:
    """The equation set of `params`, built once per process and shared:
    every part of it is immutable."""
    residuals = (
        _mass(params),
        _momentum(params, 0),
        _momentum(params, 1),
        _momentum(params, 2),
        _energy(params),
    )
    return EquationSet(
        primitives=tuple(build_primitives(params)),
        residuals=residuals,
        derivatives=census(residuals),
    )


"""Residual construction: primitives, census, closure, and conservation."""

import math

import numpy as np
import pytest

from fdlab import equations as eq
from fdlab import expr as ex
from fdlab import stencils

from conftest import GridBindings, bind_arrays, bind_solution, spacing
from reference import split_terms


@pytest.fixture(scope="module")
def params():
    return eq.FlowParams()


@pytest.fixture(scope="module")
def eqset(params):
    return eq.build_equations(params)


class TestFlowParams:
    def test_defaults(self, params):
        assert (params.reynolds, params.prandtl) == (1600.0, 0.71)
        assert (params.mach, params.gamma) == (0.1, 1.4)

    def test_precomputed_ratios_within_one_ulp(self, params):
        from fractions import Fraction as F

        g, m = F(params.gamma), F(params.mach)
        pr, re_ = F(params.prandtl), F(params.reynolds)
        pairs = [
            (params.inv_reynolds, 1 / re_),
            (params.heat_coefficient, 1 / ((g - 1) * m**2 * pr * re_)),
            (params.gamma_mach_sq, g * m**2),
            (params.inv_gamma_mach_sq, 1 / (g * m**2)),
        ]
        for got, want in pairs:
            assert abs(got - float(want)) <= math.ulp(float(want))

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.FlowParams(reynolds=0.0)
        with pytest.raises(ValueError):
            eq.FlowParams(gamma=1.0)


def _eval_primitive_chain(defs, bindings):
    b = dict(bindings)
    values = {}
    for d in defs:
        v = ex.evaluate(d.expr, b)
        values[d.target] = v
        if d.kind == "local":
            b[ex.local(d.target)] = v
        else:
            b[ex.array(d.target)] = v
    return values


def _rest_bindings(rho, rhou, rho_e):
    b = {ex.solution(0): rho, ex.solution(4): rho_e}
    for i in range(3):
        b[ex.solution(1 + i)] = rhou[i]
    return b


class TestPrimitives:
    def test_order_and_storage(self, params):
        defs = eq.build_primitives(params)
        assert [d.target for d in defs] == ["rinv", "u0", "u1", "u2", "p", "T"]
        assert [d.kind for d in defs] == ["local"] + ["array"] * 5

    def test_single_density_division(self, params, eqset):
        divs = 0
        for d in eq.build_primitives(params):
            divs += sum(isinstance(n, ex.Div) for n in ex.walk(d.expr))
        assert divs == 1
        for residual in eqset.residuals:
            assert not any(isinstance(n, ex.Div) for n in ex.walk(residual))

    def test_pressure_at_rest(self, params):
        p0 = 2.0
        b = _rest_bindings(1.0, (0.0, 0.0, 0.0), p0 / (params.gamma - 1.0))
        values = _eval_primitive_chain(eq.build_primitives(params), b)
        assert values["p"] == pytest.approx(p0, rel=1e-12)
        assert values["u0"] == 0.0

    def test_pressure_with_motion(self, params):
        b = _rest_bindings(1.0, (1.0, 0.0, 0.0), 2.0)
        values = _eval_primitive_chain(eq.build_primitives(params), b)
        assert values["u0"] == pytest.approx(1.0, rel=1e-14)
        assert values["p"] == pytest.approx(0.6, rel=1e-12)

    def test_reference_temperature_is_unity(self, params):
        rho_e = params.inv_gamma_mach_sq / (params.gamma - 1.0)
        b = _rest_bindings(1.0, (0.0, 0.0, 0.0), rho_e)
        values = _eval_primitive_chain(eq.build_primitives(params), b)
        assert values["T"] == pytest.approx(1.0, rel=1e-12)


class TestCensus:
    def test_sixty_three_distinct(self, eqset):
        names = [d.name for d in eqset.derivatives]
        assert len(names) == 63
        assert len(set(names)) == 63

    def test_nine_velocity_gradients(self, eqset):
        vg = [d for d in eqset.derivatives if d.is_velocity_gradient]
        assert len(vg) == 9
        assert {d.name for d in vg} == {
            f"d_u{i}_x{j}" for i in range(3) for j in range(3)
        }

    def test_running_totals_per_equation(self, eqset):
        r = eqset.residuals
        totals = [len(eq.census(r[: k + 1])) for k in range(5)]
        assert totals == [9, 21, 33, 45, 63]

    def test_deterministic(self, params):
        a = eq.build_equations(params).derivatives
        b = eq.build_equations(params).derivatives
        assert [d.name for d in a] == [d.name for d in b]
        assert a == b

    def test_mass_census_order(self, eqset):
        first9 = [d.name for d in eqset.derivatives[:9]]
        assert first9 == [
            "d_rhou0_x0",
            "d_rhou1_x1",
            "d_rhou2_x2",
            "d_u0_x0",
            "d_u1_x1",
            "d_u2_x2",
            "d_rho_x0",
            "d_rho_x1",
            "d_rho_x2",
        ]

    def test_operand_closure(self, eqset):
        velocity = {"u0", "u1", "u2"}

        def base_of(node):
            while isinstance(node.operand, ex.Derivative):
                node = node.operand
            return node.operand

        def allowed(base):
            if isinstance(base, ex.WorkRef):
                # rho, rhou_i, rhoE, or a primitive
                return base.array in {*ex.COMPONENT_NAMES, *velocity, "p", "T"}
            if isinstance(base, ex.Mul) and len(base.children) == 2:
                a, b = base.children
                return (
                    isinstance(a, ex.WorkRef)
                    and isinstance(b, ex.WorkRef)
                    and b.array in velocity
                )
            return False

        for entry in eqset.derivatives:
            assert allowed(base_of(entry.node)), entry.name

    def test_sequenced_pairs_have_census_inners(self, eqset):
        members = {d.node for d in eqset.derivatives}
        nested = [
            d for d in eqset.derivatives if isinstance(d.node.operand, ex.Derivative)
        ]
        assert len(nested) == 3
        for d in nested:
            assert d.node.operand in members
        two_axis = [
            d
            for d in eqset.derivatives
            if len(d.node.axes) == 2 and d.node.axes[0] != d.node.axes[1]
        ]
        assert len(two_axis) == 6
        for d in two_axis:
            inner = ex.Derivative(d.node.operand, (d.node.axes[1],))
            assert inner in members


def _uniform_bindings(params, h, pressure=1.0):
    rho = 1.0
    rho_e = pressure / (params.gamma - 1.0)
    temp = params.gamma_mach_sq * pressure / rho
    b = bind_solution(
        h,
        (0.0, 0.0, 0.0),
        {
            0: lambda *x: rho,
            1: lambda *x: 0.0,
            2: lambda *x: 0.0,
            3: lambda *x: 0.0,
            4: lambda *x: rho_e,
        },
    )
    b.update(
        bind_arrays(
            h,
            (0.0, 0.0, 0.0),
            {
                "u0": lambda *x: 0.0,
                "u1": lambda *x: 0.0,
                "u2": lambda *x: 0.0,
                "p": lambda *x: pressure,
                "T": lambda *x: temp,
            },
        )
    )
    return b


class TestResiduals:
    def test_uniform_state_vanishes(self, params, eqset):
        h = spacing(32)
        b = _uniform_bindings(params, h)
        for residual in eqset.residuals:
            value = ex.evaluate(stencils.discretize(residual, h), b)
            assert abs(value) <= 1e-13

    def test_manufactured_mass_balance(self, params, eqset):
        """One-dimensional density and velocity variation along axis 0."""
        h = spacing(32)
        rho = lambda x, y, z: 1.0 + 0.1 * math.sin(x)
        u0 = lambda x, y, z: 2.0 + 0.3 * math.cos(x)
        point = (0.4, 0.0, 0.0)
        b = bind_solution(
            h,
            point,
            {
                0: rho,
                1: lambda x, y, z: rho(x, y, z) * u0(x, y, z),
                2: lambda *x: 0.0,
                3: lambda *x: 0.0,
                4: lambda *x: 5.0,
            },
        )
        b.update(
            bind_arrays(
                h,
                point,
                {"u0": u0, "u1": lambda *x: 0.0, "u2": lambda *x: 0.0},
            )
        )
        got = ex.evaluate(stencils.discretize(eqset.residuals[0], h), b)

        def d(operand, axis):
            return ex.evaluate(stencils.discretize(ex.deriv(operand, axis), h), b)

        taps = {
            "div": d(ex.solution(1), 0),
            "vg": d(ex.array("u0"), 0),
            "grad": d(ex.solution(0), 0),
        }
        want = -0.5 * (
            taps["div"]
            + rho(*point) * taps["vg"]
            + u0(*point) * taps["grad"]
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_split_terms_reassemble(self, eqset):
        h = spacing(16)
        b = _random_state_bindings(np.random.default_rng(7), 8)
        for residual in eqset.residuals[:2]:
            disc = stencils.discretize(residual, h)
            pieces = [stencils.discretize(p, h) for p in split_terms(residual)]
            point = GridBindings((3, 2, 5), 8, b["sol"], b["arr"])
            whole = ex.evaluate(disc, point)
            total = math.fsum(ex.evaluate(p, point) for p in pieces)
            assert whole == pytest.approx(total, rel=1e-12, abs=1e-12)


def _random_state_bindings(rng, n):
    sol = {c: 1.0 + 0.3 * rng.standard_normal((n, n, n)) for c in range(5)}
    arr = {
        name: 0.5 + 0.2 * rng.standard_normal((n, n, n))
        for name in ("u0", "u1", "u2", "p", "T")
    }
    return {"sol": sol, "arr": arr}


class TestConservation:
    """Grid sums of mass and momentum residuals vanish on periodic data."""

    @pytest.mark.parametrize("component", [0, 1])
    def test_summation_by_parts(self, eqset, component):
        n = 8
        h = spacing(n)
        state = _random_state_bindings(np.random.default_rng(11 + component), n)
        disc = stencils.discretize(eqset.residuals[component], h)
        pieces = [stencils.discretize(p, h) for p in split_terms(eqset.residuals[component])]

        values = []
        scale = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    b = GridBindings((i, j, k), n, state["sol"], state["arr"])
                    values.append(ex.evaluate(disc, b))
                    scale.append(
                        math.fsum(abs(ex.evaluate(p, b)) for p in pieces)
                    )
        total = abs(math.fsum(values))
        assert total <= 1e-9 * math.fsum(scale)

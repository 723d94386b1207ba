"""Stencil weights, expansion structure, and frozen accuracy oracles."""

import math
from fractions import Fraction

import pytest

from fdlab import expr as ex
from fdlab import stencils
from fdlab.errors import ExprError, FootprintError, UnsupportedDerivativeError

from conftest import bind_arrays, spacing

H32 = spacing(32)
ORIGIN = (0.0, 0.0, 0.0)


class TestWeights:
    def test_first_moments(self):
        """Exact for polynomials through degree 4, not degree 5."""
        taps = stencils.FIRST_DERIVATIVE_WEIGHTS
        for k in range(5):
            want = Fraction(1) if k == 1 else Fraction(0)
            assert sum(w * s**k for s, w in taps) == want
        assert sum(w * s**5 for s, w in taps) != 0

    def test_second_moments(self):
        """Exact for polynomials through degree 5, not degree 6."""
        taps = stencils.SECOND_DERIVATIVE_WEIGHTS
        for k in range(6):
            want = Fraction(2) if k == 2 else Fraction(0)
            assert sum(w * s**k for s, w in taps) == want
        assert sum(w * s**6 for s, w in taps) != 0

    def test_zero_tap_omitted_from_first(self):
        shifts = [s for s, _ in stencils.FIRST_DERIVATIVE_WEIGHTS]
        assert shifts == [-2, -1, 1, 2]

    def test_scaled_folds_spacing(self):
        st1 = stencils.first_derivative_stencil()
        scaled = dict(st1.scaled(0.5))
        assert scaled[-2] == float(Fraction(1, 12)) / 0.5
        st2 = stencils.second_derivative_stencil()
        scaled2 = dict(st2.scaled(0.5))
        assert scaled2[0] == float(Fraction(-5, 2)) / 0.25
        with pytest.raises(ExprError):
            st1.scaled(0.0)


class TestExpansionStructure:
    def test_first_is_four_muls_three_adds(self):
        e = stencils.apply_stencil(
            stencils.first_derivative_stencil(), ex.array("f"), 0, 1.0
        )
        assert ex.count_ops(e) == ex.OpCounts(adds=3, muls=4)
        offs = sorted(r.offset[0] for r in ex.references(e))
        assert offs == [-2, -1, 1, 2]

    def test_second_is_five_muls_four_adds(self):
        e = stencils.apply_stencil(
            stencils.second_derivative_stencil(), ex.array("f"), 2, 1.0
        )
        assert ex.count_ops(e) == ex.OpCounts(adds=4, muls=5)
        offs = sorted(r.offset[2] for r in ex.references(e))
        assert offs == [-2, -1, 0, 1, 2]

    def test_product_operand_costs_eleven(self):
        e = stencils.discretize(
            ex.deriv(ex.mul(ex.array("p"), ex.array("u0")), 1), 1.0
        )
        assert ex.count_ops(e).total() == 11

    def test_mixed_costs_thirty_five(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0, 1), 1.0)
        assert ex.count_ops(e).total() == 35

    def test_mixed_inner_axis_is_trailing(self):
        """The trailing axis varies inside each leading-axis tap group."""
        e = stencils.discretize(ex.deriv(ex.array("f"), 0, 1), 1.0)
        assert isinstance(e, ex.Add)
        first_group = {r.offset for r in ex.references(e.children[0])}
        assert first_group == {(-2, s, 0) for s in (-2, -1, 1, 2)}

    def test_repeated_axis_is_direct_second(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0, 0), 1.0)
        assert ex.count_ops(e) == ex.OpCounts(adds=4, muls=5)

    def test_sequenced_pair_stays_sequenced(self):
        nested = ex.deriv(ex.deriv(ex.array("f"), 0), 0)
        e = stencils.discretize(nested, 1.0)
        assert ex.count_ops(e).total() == 35

    def test_offset_operand_can_exhaust_halo(self):
        with pytest.raises(FootprintError):
            stencils.discretize(ex.deriv(ex.array("f", (3, 0, 0)), 0), 1.0)

    def test_unsupported_axis_count(self):
        with pytest.raises(UnsupportedDerivativeError):
            ex.Derivative(ex.array("f"), (0, 1, 2))

    def test_recurses_through_wrappers(self):
        e = stencils.discretize(
            ex.neg(ex.div(ex.deriv(ex.array("f"), 0), ex.array("g"))), 1.0
        )
        assert isinstance(e, ex.Neg)
        assert not any(isinstance(n, ex.Derivative) for n in ex.walk(e))


class TestStoredLeaves:
    """discretize under a storage map: stored values replace expansions."""

    def test_point_read_takes_array_or_local(self):
        d = ex.deriv(ex.array("f"), 0)
        for leaf in (ex.array("d"), ex.local("d")):
            e = stencils.discretize(ex.mul(ex.array("g"), d), 1.0, {d: leaf})
            assert e == ex.mul(ex.array("g"), leaf)

    def test_mixed_inner_chains_from_stored_array(self):
        inner = ex.deriv(ex.array("f"), 1)
        e = stencils.expand(ex.deriv(ex.array("f"), 0, 1), 1.0, {inner: ex.array("g")})
        refs = {(r.array, r.offset) for r in ex.references(e)}
        assert refs == {("g", (s, 0, 0)) for s in (-2, -1, 1, 2)}

    def test_neighbour_read_re_expands_a_local(self):
        for node in (
            ex.deriv(ex.array("f"), 0, 1),
            ex.deriv(ex.deriv(ex.array("f"), 1), 0),
        ):
            stored = {ex.deriv(ex.array("f"), 1): ex.local("g")}
            want = stencils.discretize(node, 1.0)
            assert stencils.discretize(node, 1.0, stored) == want

    def test_expand_ignores_the_node_own_entry(self):
        d = ex.deriv(ex.array("f"), 0)
        e = stencils.expand(d, 1.0, {d: ex.array("d")})
        assert e == stencils.discretize(d, 1.0)

    def test_unknown_node_is_refused(self):
        class Unknown(ex.Expr):
            pass

        with pytest.raises(UnsupportedDerivativeError):
            stencils.discretize(ex.deriv(ex.mul(ex.array("f"), Unknown()), 0), 1.0)


class TestAccuracyOracles:
    """Frozen values for sin-wave derivatives on a 32 point period."""

    def test_first_derivative_of_sine(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0), H32)
        b = bind_arrays(H32, ORIGIN, {"f": lambda x, y, z: math.sin(x)})
        assert ex.evaluate(e, b) == pytest.approx(0.9999506820574632, abs=1e-13)

    def test_second_derivative_of_sine(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 1, 1), H32)
        point = (0.0, math.pi / 2, 0.0)
        b = bind_arrays(H32, point, {"f": lambda x, y, z: math.sin(y)})
        assert ex.evaluate(e, b) == pytest.approx(-0.9999835418043976, abs=1e-13)

    def test_mixed_derivative_of_product(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0, 1), H32)
        b = bind_arrays(H32, ORIGIN, {"f": lambda x, y, z: math.sin(x) * math.sin(y)})
        assert ex.evaluate(e, b) == pytest.approx(0.9999013665471862, abs=1e-13)

    def test_linear_slope_recovered(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0), 1.0)
        b = bind_arrays(1.0, ORIGIN, {"f": lambda x, y, z: 3.0 + x})
        assert ex.evaluate(e, b) == pytest.approx(1.0, abs=1e-14)

    def test_constant_has_zero_second_derivative(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0, 0), 1.0)
        b = bind_arrays(1.0, ORIGIN, {"f": lambda x, y, z: 7.0})
        assert ex.evaluate(e, b) == pytest.approx(0.0, abs=1e-13)

    def test_quartic_first_derivative_is_exact(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 0), 0.25)
        point = (0.37, 0.0, 0.0)
        b = bind_arrays(
            0.25, point, {"f": lambda x, y, z: x**4 - 3 * x**3 + 2 * x - 1}
        )
        want = 4 * 0.37**3 - 9 * 0.37**2 + 2
        assert ex.evaluate(e, b) == pytest.approx(want, rel=1e-12)

    def test_quintic_second_derivative_is_exact(self):
        e = stencils.discretize(ex.deriv(ex.array("f"), 2, 2), 0.2)
        point = (0.0, 0.0, 0.83)
        b = bind_arrays(0.2, point, {"f": lambda x, y, z: z**5 - 2 * z**3 + z})
        want = 20 * 0.83**3 - 12 * 0.83
        assert ex.evaluate(e, b) == pytest.approx(want, rel=1e-11)


class TestConvergence:
    """Refinement from 16 to 32 points shrinks errors about 16 fold."""

    @staticmethod
    def _error(axes, func, exact, point, n):
        h = spacing(n)
        e = stencils.discretize(ex.deriv(ex.array("f"), *axes), h)
        b = bind_arrays(h, point, {"f": func})
        return abs(ex.evaluate(e, b) - exact)

    def test_first_derivative_order(self):
        p = (0.3, 0.0, 0.0)
        f = lambda x, y, z: math.sin(x)
        r = self._error((0,), f, math.cos(0.3), p, 16) / self._error(
            (0,), f, math.cos(0.3), p, 32
        )
        assert 14.0 < r < 18.0

    def test_second_derivative_order(self):
        p = (0.3, 0.0, 0.0)
        f = lambda x, y, z: math.sin(x)
        r = self._error((0, 0), f, -math.sin(0.3), p, 16) / self._error(
            (0, 0), f, -math.sin(0.3), p, 32
        )
        assert 14.0 < r < 18.0

    def test_mixed_derivative_order(self):
        p = (0.3, 0.7, 0.0)
        f = lambda x, y, z: math.sin(x) * math.sin(y)
        exact = math.cos(0.3) * math.cos(0.7)
        r = self._error((0, 1), f, exact, p, 16) / self._error(
            (0, 1), f, exact, p, 32
        )
        assert 14.0 < r < 18.0

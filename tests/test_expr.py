"""Expression IR: construction normalization, counting, shifting, evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdlab import expr as ex
from fdlab.errors import (
    ExprError,
    FootprintError,
    NotDiscretizedError,
    UnboundReferenceError,
)

from conftest import bind_arrays


class TestConstruction:
    def test_rational_normalizes(self):
        assert ex.rational(2, 4) == ex.rational(1, 2)
        r = ex.rational(1, -2)
        assert (r.numerator, r.denominator) == (-1, 2)
        with pytest.raises(ExprError):
            ex.rational(1, 0)

    def test_add_flattens(self):
        a, b, c = ex.local("a"), ex.local("b"), ex.local("c")
        e = ex.add(a, ex.add(b, c))
        assert isinstance(e, ex.Add)
        assert e.children == (a, b, c)

    def test_add_folds_rationals_exactly(self):
        x = ex.local("x")
        e = ex.add(ex.rational(1, 3), ex.rational(2, 3), x)
        assert isinstance(e, ex.Add)
        assert e.children[0] == ex.rational(1, 1)
        assert e.children[1] is x

    def test_add_drops_vanishing_constant(self):
        x = ex.local("x")
        assert ex.add(ex.rational(1, 2), ex.rational(-1, 2), x) is x

    def test_add_mixes_floats_after_exact_part(self):
        x = ex.local("x")
        e = ex.add(0.1, ex.rational(1, 2), x)
        assert isinstance(e.children[0], ex.Constant)
        assert e.children[0].value == pytest.approx(0.6)

    def test_mul_flattens_and_folds(self):
        a, b = ex.local("a"), ex.local("b")
        e = ex.mul(ex.rational(2, 1), ex.mul(a, ex.rational(3, 1), b))
        assert isinstance(e, ex.Mul)
        assert e.children == (ex.rational(6, 1), a, b)

    def test_mul_zero_annihilates(self):
        assert ex.mul(ex.local("a"), 0) == ex.rational(0, 1)

    def test_mul_one_is_identity(self):
        a = ex.local("a")
        assert ex.mul(1, a) is a

    def test_div_by_rational_becomes_mul(self):
        x = ex.local("x")
        e = ex.div(x, ex.rational(3, 4))
        assert isinstance(e, ex.Mul)
        assert e.children == (ex.rational(4, 3), x)
        assert not any(isinstance(n, ex.Div) for n in ex.walk(e))

    def test_div_by_float_becomes_mul(self):
        x = ex.local("x")
        e = ex.div(x, 8.0)
        assert isinstance(e, ex.Mul)
        assert e.children[0] == ex.const(0.125)

    def test_div_by_expression_survives(self):
        e = ex.div(ex.local("x"), ex.local("y"))
        assert isinstance(e, ex.Div)

    def test_div_by_zero_rejected(self):
        with pytest.raises(ExprError):
            ex.div(ex.local("x"), 0)

    def test_neg_folds(self):
        x = ex.local("x")
        assert ex.neg(ex.neg(x)) is x
        assert ex.neg(ex.rational(1, 2)) == ex.rational(-1, 2)
        assert ex.neg(ex.const(2.5)) == ex.const(-2.5)

    def test_intpow_edges(self):
        x = ex.local("x")
        assert ex.intpow(x, 1) is x
        assert ex.intpow(x, 0) == ex.rational(1, 1)
        e = ex.intpow(x, 3)
        assert isinstance(e, ex.IntPow) and e.exponent == 3
        assert ex.intpow(ex.rational(2, 3), 2) == ex.rational(4, 9)
        with pytest.raises(ExprError):
            ex.intpow(x, -1)

    def test_deriv_of_constant_vanishes(self):
        assert ex.deriv(ex.rational(5, 2), 0) == ex.rational(0, 1)

    def test_derivative_axis_validation(self):
        with pytest.raises(ExprError):
            ex.Derivative(ex.local("x"), (0, 1, 2))
        with pytest.raises(ExprError):
            ex.Derivative(ex.local("x"), (3,))

    def test_offset_bounds_checked_at_construction(self):
        with pytest.raises(FootprintError):
            ex.solution(0, (5, 0, 0))
        with pytest.raises(FootprintError):
            ex.WorkRef("u0", (0, 0, -5))


class TestCountOps:
    def test_mixed_tree(self):
        a, b, c = ex.local("a"), ex.local("b"), ex.local("c")
        e = ex.add(ex.mul(a, b), ex.neg(c), ex.div(a, b))
        counts = ex.count_ops(e)
        assert counts == ex.OpCounts(adds=2, muls=1, divs=1, negs=1, pows=0)
        assert counts.total() == 5

    def test_intpow_counts_repeated_muls(self):
        counts = ex.count_ops(ex.intpow(ex.local("x"), 4))
        assert counts.muls == 3 and counts.pows == 1
        assert counts.total() == 3

    def test_shared_subtree_counts_per_occurrence(self):
        prod = ex.mul(ex.local("a"), ex.local("b"))
        e = ex.add(prod, prod)
        assert ex.count_ops(e) == ex.OpCounts(adds=1, muls=2)

    def test_derivative_rejected(self):
        with pytest.raises(NotDiscretizedError):
            ex.count_ops(ex.deriv(ex.local("x"), 0))


class TestShift:
    def test_refs_compose(self):
        e = ex.shift(ex.solution(1, (1, 0, -1)), (2, 1, 0))
        assert e == ex.solution(1, (3, 1, -1))
        e = ex.shift(ex.array("p", (0, 0, 0)), (0, -2, 0))
        assert e == ex.array("p", (0, -2, 0))

    def test_zero_shift_is_identity(self):
        e = ex.add(ex.solution(0), ex.array("p"))
        assert ex.shift(e, (0, 0, 0)) is e

    def test_out_of_range_names_axis(self):
        with pytest.raises(FootprintError, match="axis 0"):
            ex.shift(ex.solution(0, (3, 0, 0)), (2, 0, 0))

    def test_constants_untouched(self):
        c = ex.rational(1, 3)
        assert ex.shift(c, (1, 1, 1)) is c

    def test_local_cannot_shift(self):
        with pytest.raises(ExprError):
            ex.shift(ex.local("a"), (1, 0, 0))

    def test_underived_derivative_cannot_shift(self):
        with pytest.raises(NotDiscretizedError):
            ex.shift(ex.deriv(ex.solution(0), 1), (1, 0, 0))

    def test_distributes_over_structure(self):
        e = ex.add(ex.mul(ex.solution(0), ex.array("u1", (1, 0, 0))), ex.const(2.0))
        s = ex.shift(e, (0, 1, 0))
        assert ex.to_prefix(s) == (
            "(+ 2.0 (* (sol rho 0 1 0) (arr u1 1 1 0)))"
        )


class TestEvaluate:
    def test_arithmetic(self):
        e = ex.add(1, ex.mul(2, ex.local("a")), ex.intpow(ex.local("a"), 2))
        assert ex.evaluate(e, {ex.local("a"): 3.0}) == 16.0

    def test_division(self):
        e = ex.div(ex.local("a"), ex.local("b"))
        b = {ex.local("a"): 1.0, ex.local("b"): 8.0}
        assert ex.evaluate(e, b) == 0.125

    def test_unbound_reference_is_named(self):
        with pytest.raises(UnboundReferenceError, match="u7"):
            ex.evaluate(ex.array("u7"), {})

    def test_derivative_rejected(self):
        with pytest.raises(NotDiscretizedError):
            ex.evaluate(ex.deriv(ex.solution(0), 0), {})


class TestDump:
    def test_format(self):
        e = ex.add(ex.solution(0), ex.mul(ex.rational(-1, 2), ex.array("u0")))
        assert ex.to_prefix(e) == "(+ (sol rho 0 0 0) (* -1/2 (arr u0 0 0 0)))"

    def test_derivative_and_pow(self):
        e = ex.deriv(ex.intpow(ex.local("u"), 2), 0, 1)
        assert ex.to_prefix(e) == "(deriv (0 1) (pow (loc u) 2))"

    def test_deterministic(self):
        def build():
            return ex.add(
                ex.neg(ex.solution(4, (0, 0, 1))),
                ex.div(ex.array("p"), ex.array("rho")),
            )

        assert build() == build()
        assert ex.to_prefix(build()) == ex.to_prefix(build())

    def test_references_iterates_reads(self):
        e = ex.add(ex.solution(2, (1, 0, 0)), ex.mul(ex.array("p"), ex.local("t")))
        refs = set(ex.references(e))
        assert refs == {
            ex.solution(2, (1, 0, 0)),
            ex.array("p", (0, 0, 0)),
            ex.local("t"),
        }


class TestOneSpellingOfARead:
    """A storage read is its WorkRef/LocalRef leaf, whatever built it."""

    @pytest.mark.parametrize("component", range(5))
    @pytest.mark.parametrize("offset", [(0, 0, 0), (1, 0, 0), (0, -2, 3)])
    def test_solution_is_its_component_array(self, component, offset):
        a = ex.solution(component, offset)
        b = ex.array(ex.COMPONENT_NAMES[component], offset)
        assert a == b and hash(a) == hash(b)

    def test_component_out_of_range_is_refused(self):
        with pytest.raises(ExprError):
            ex.solution(5)
        with pytest.raises(ExprError):
            ex.solution(-1)

    def test_references_yield_leaves(self):
        e = ex.add(
            ex.deriv(ex.solution(1), 0),
            ex.div(ex.array("p", (0, 1, 0)), ex.local("t")),
            ex.intpow(ex.neg(ex.array("u0")), 2),
        )
        refs = list(ex.references(e))
        assert refs == [
            ex.array("rhou0"), ex.array("p", (0, 1, 0)), ex.local("t"), ex.array("u0")
        ]
        assert all(type(r) in (ex.WorkRef, ex.LocalRef) for r in refs)

    def test_evaluate_takes_leaf_keyed_bindings(self):
        e = ex.mul(ex.solution(0, (1, 0, 0)), ex.add(ex.array("p"), ex.local("t")))
        b = {ex.array("rho", (1, 0, 0)): 2.0, ex.array("p"): 3.0, ex.local("t"): 0.5}
        assert ex.evaluate(e, b) == 7.0
        with pytest.raises(UnboundReferenceError, match="WorkRef"):
            ex.evaluate(ex.solution(0), b)


def _leaf(draw, names=("f", "g")):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        off = tuple(draw(st.integers(-2, 2)) for _ in range(3))
        return ex.array(draw(st.sampled_from(names)), off)
    if kind == 1:
        off = tuple(draw(st.integers(-2, 2)) for _ in range(3))
        return ex.solution(draw(st.integers(0, 4)), off)
    if kind == 2:
        return ex.rational(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return ex.const(draw(st.floats(-4, 4, allow_nan=False)))


@st.composite
def shiftable_exprs(draw, depth=3):
    if depth == 0:
        return _leaf(draw)
    kind = draw(st.integers(0, 4))
    if kind <= 1:
        return _leaf(draw)
    if kind == 2:
        n = draw(st.integers(2, 3))
        return ex.add(*[draw(shiftable_exprs(depth=depth - 1)) for _ in range(n)])
    if kind == 3:
        n = draw(st.integers(2, 3))
        return ex.mul(*[draw(shiftable_exprs(depth=depth - 1)) for _ in range(n)])
    return ex.neg(draw(shiftable_exprs(depth=depth - 1)))


@settings(max_examples=60, deadline=None)
@given(shiftable_exprs(), st.tuples(*[st.integers(-1, 1)] * 3))
def test_shift_commutes_with_evaluation(e, off):
    """Shifting refs then evaluating equals evaluating at the moved point."""
    h = 0.1

    def f(x, y, z):
        return 2.0 + math.sin(1.3 * x + 0.7 * y - 0.4 * z)

    def g(x, y, z):
        return 1.0 + 0.25 * math.cos(x - y + 2.0 * z)

    fields = {"f": f, "g": g}
    base = bind_arrays(h, (0.0, 0.0, 0.0), fields)
    moved = bind_arrays(h, tuple(o * h for o in off), fields)
    for comp in range(5):
        for key in list(base):
            if key.array == "f":
                base[ex.solution(comp, key.offset)] = base[key]
                moved[ex.solution(comp, key.offset)] = moved[key]
    assert ex.evaluate(ex.shift(e, off), base) == ex.evaluate(e, moved)


@settings(max_examples=60, deadline=None)
@given(shiftable_exprs())
def test_normal_form_invariants(e):
    """No nested sums in sums or products in products; constants lead."""
    for node in ex.walk(e):
        if isinstance(node, ex.Add):
            assert len(node.children) >= 2
            for i, child in enumerate(node.children):
                assert not isinstance(child, ex.Add)
                if ex.is_constant(child):
                    assert i == 0
        elif isinstance(node, ex.Mul):
            assert len(node.children) >= 2
            for i, child in enumerate(node.children):
                assert not isinstance(child, ex.Mul)
                if ex.is_constant(child):
                    assert i == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(
            min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
        ),
        min_size=2,
        max_size=6,
    )
)
def test_rational_folding_is_exact(fracs):
    x = ex.local("x")
    e = ex.add(x, *fracs)
    want = sum(fracs, Fraction(0))
    if want == 0:
        assert e is x
    else:
        assert isinstance(e, ex.Add)
        assert e.children[0] == ex.rational(want.numerator, want.denominator)

"""Plan lowering: storage policies, counters, ordering, dumps, equivalence."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from fdlab import equations as eq
from fdlab import expr as ex
from fdlab import plan as pl
from fdlab.errors import PlanError
from fdlab.grid import Grid
from fdlab.plan import VARIANTS

from conftest import GridBindings, statements

H = Grid(16)


@pytest.fixture(scope="module")
def eqset():
    return eq.build_equations(eq.FlowParams())


@pytest.fixture(scope="module")
def plans(eqset):
    return {v: pl.build_plan(eqset, v, H) for v in VARIANTS}


class TestCounters:
    def test_extra_arrays_by_variant(self, plans):
        got = [plans[v].counters.extra_arrays for v in VARIANTS]
        assert got == [63, 9, 9, 0, 0, 0]

    def test_locals_by_variant(self, plans):
        got = [plans[v].counters.locals for v in VARIANTS]
        assert got == [0, 0, 54, 0, 63, 63]

    def test_operation_ordering_is_strict(self, plans):
        ops = {v: plans[v].counters.ops_per_point for v in VARIANTS}
        assert ops["bl"] < ops["ss"] < ops["rs"] <= ops["sn"]
        assert ops["sn"] == ops["sn2"]
        assert ops["sn2"] < ops["ra"]

    def test_inline_to_baseline_ratio(self, plans):
        ratio = plans["ra"].counters.ops_per_point / plans["bl"].counters.ops_per_point
        assert 2.2 <= ratio <= 4.0

    def test_work_array_writes(self, plans):
        for v, want in zip(VARIANTS, [63, 9, 9, 0, 0, 0]):
            assert len(statements(plans[v], "work")) == want
            assert plans[v].counters.extra_arrays == want

    def test_budget_bound(self, plans):
        for p in plans.values():
            c = p.counters
            assert c.locals + c.extra_arrays <= 63 + 9
            residuals = [s for s in statements(p, "point") if s.kind == "residual"]
            assert [s.target for s in residuals] == list(ex.COMPONENT_NAMES)

    def test_timestep_scaling(self, plans):
        c = plans["bl"].counters
        assert c.ops_per_timestep(64) == c.ops_per_point * 64**3 * 3
        assert c.extra_arrays == 63

    def test_counters_independent_of_spacing(self, eqset, plans):
        other = pl.build_plan(eqset, "bl", Grid(256))
        assert other.counters == plans["bl"].counters


class TestStructure:
    def test_no_derivatives_survive(self, plans):
        for p in plans.values():
            for s in (st for phase in p.phases for st in phase.statements):
                assert not any(
                    isinstance(n, ex.Derivative) for n in ex.walk(s.expr)
                ), (p.policy, s.target)

    def test_work_phase_reads_no_locals(self, plans):
        for p in plans.values():
            for s in statements(p, "work"):
                assert not any(
                    isinstance(r, ex.LocalRef) for r in ex.references(s.expr)
                )

    def test_ss_locals_follow_enumeration_order(self, eqset, plans):
        names = [d.name for d in eqset.derivatives if not d.is_velocity_gradient]
        got = [s.target for s in statements(plans["ss"], "point") if s.kind == "local"]
        assert got == names

    def test_sn_locals_follow_enumeration_order(self, eqset, plans):
        names = [d.name for d in eqset.derivatives]
        got = [s.target for s in statements(plans["sn"], "point") if s.kind == "local"]
        assert got == names

    def test_mixed_derivative_chains_from_stored_gradient(self, plans):
        stmt = {s.target: s for s in statements(plans["bl"], "work")}["d_u1_x0x1"]
        assert ex.count_ops(stmt.expr).total() == 7
        reads = {
            (r.array, r.offset)
            for r in ex.references(stmt.expr)
            if isinstance(r, ex.WorkRef)
        }
        assert reads == {("d_u1_x1", (s, 0, 0)) for s in (-2, -1, 1, 2)}

    def test_mixed_derivative_fully_expands_without_arrays(self, plans):
        stmt = {
            s.target: s
            for s in statements(plans["sn"], "point")
            if s.kind == "local"
        }["d_u1_x0x1"]
        assert ex.count_ops(stmt.expr).total() == 35
        names = {
            r.array if isinstance(r, ex.WorkRef) else r.name
            for r in ex.references(stmt.expr)
        }
        assert names == {"u1"}

    def test_halo_schedule(self, plans):
        primitives = ("fd_primitive", ("u0", "u1", "u2", "p", "T"))
        diag = [(f"d_u{i}_x{i}",) for i in range(3)]
        want = {
            "bl": [primitives, *zip(("fd_work_3", "fd_work_4", "fd_work_5"), diag)],
            "rs": [primitives, *zip(("fd_work_0", "fd_work_1", "fd_work_2"), diag)],
            "ss": [primitives, *zip(("fd_work_0", "fd_work_1", "fd_work_2"), diag)],
            "ra": [primitives],
            "sn": [primitives],
            "sn2": [primitives],
        }
        for v in VARIANTS:
            got = [(p.name, p.exchange) for p in plans[v].phases if p.exchange]
            assert got == want[v], v

    def test_exchanges_per_evaluation(self, plans):
        # The 5 solution fields on entry, then each phase's exchange list.
        for v, want in zip(VARIANTS, [13, 13, 13, 10, 10, 10]):
            assert 5 + sum(len(p.exchange) for p in plans[v].phases) == want, v

    def test_launch_order_and_arrays(self, plans):
        residuals = tuple("res_" + c for c in ex.COMPONENT_NAMES)
        for v, work in zip(VARIANTS, [63, 9, 9, 0, 0, 0]):
            p = plans[v]
            names = [phase.name for phase in p.phases]
            assert names == [
                "fd_primitive", *(f"fd_work_{i}" for i in range(work)), "fd_point"
            ]
            assert p.arrays == (
                *ex.COMPONENT_NAMES,
                *eq.PRIMITIVE_ARRAYS,
                *(s.target for s in statements(p, "work")),
                *residuals,
            )


class TestReplicatedOrdering:
    def test_sn2_same_local_multiset(self, plans):
        sn_locals = [s for s in statements(plans["sn"], "point") if s.kind == "local"]
        sn2_locals = [s for s in statements(plans["sn2"], "point") if s.kind == "local"]
        sn = Counter((s.target, s.expr) for s in sn_locals)
        sn2 = Counter((s.target, s.expr) for s in sn2_locals)
        assert sn == sn2
        order_sn = [s.target for s in sn_locals]
        order_sn2 = [s.target for s in sn2_locals]
        assert order_sn != order_sn2

    def test_sn2_residuals_identical_to_sn(self, plans):
        res_sn = [s for s in statements(plans["sn"], "point") if s.kind == "residual"]
        res_sn2 = [s for s in statements(plans["sn2"], "point") if s.kind == "residual"]
        assert res_sn == res_sn2

    def test_sn2_velocity_groups(self, eqset, plans):
        entries = {d.name: d for d in eqset.derivatives}
        order = [
            s.target for s in statements(plans["sn2"], "point") if s.kind == "local"
        ]
        groups = [pl._velocity_group(entries[name]) for name in order]
        assert groups == sorted(groups)
        sizes = Counter(groups)
        assert [sizes[g] for g in range(4)] == [19, 17, 15, 12]

    def test_sn2_stable_within_groups(self, eqset, plans):
        entries = {d.name: d for d in eqset.derivatives}
        census_pos = {d.name: i for i, d in enumerate(eqset.derivatives)}
        order = [
            s.target for s in statements(plans["sn2"], "point") if s.kind == "local"
        ]
        for g in range(4):
            members = [n for n in order if pl._velocity_group(entries[n]) == g]
            assert members == sorted(members, key=census_pos.__getitem__)


class TestRecomputationCost:
    def test_rs_exceeds_ss_by_re_expansion(self, eqset, plans):
        """ops(RS) - ops(SS) is the repeated-use expansion cost minus the
        one-op local assignments RS does not perform."""
        uses: Counter = Counter()
        for residual in eqset.residuals:
            for node in ex.walk(residual):
                if isinstance(node, ex.Derivative):
                    uses[node] += 1
        local_cost = {
            s.target: ex.count_ops(s.expr).total()
            for s in statements(plans["ss"], "point")
            if s.kind == "local"
        }
        entries = {d.name: d for d in eqset.derivatives}
        re_expansion = sum(
            (uses[entries[name].node] - 1) * cost
            for name, cost in local_cost.items()
        )
        delta = plans["rs"].counters.ops_per_point - plans["ss"].counters.ops_per_point
        assert delta == re_expansion - plans["ss"].counters.locals


#: sha256 of dump_plan at Grid(16). Any change to lowering, statement
#: order or the dump format shows here as a changed digest.
DUMP_SHA256 = {
    "bl": "eb4d4ebfe0d85f3ba60b1f386d82214cce54fcd1d6041d010bb54be42a32aa1a",
    "rs": "ee75c9470e37db86f0246306aa96c6bc9ab3f53863557483354ee1c86215a65d",
    "ss": "01359534d41c8a168f10609f4db01996b626a862353443bd99510c8c87a00b6a",
    "ra": "375e62005ebb7da7d0e7b784f2511d8ebb1890355c1e05b44636d1613c429cfb",
    "sn": "43cdd9e2316533c0e7326f79d31d727caa54c066f2ae5915d0a44b8e84ee6ed4",
    "sn2": "6acc05c395d55f279a0154a7ccb8ded452bc9d2097a4b777fb6d045a280d7d8a",
}


class TestDump:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dump_bytes_are_pinned(self, eqset, variant):
        text = pl.dump_plan(pl.build_plan(eqset, variant, Grid(16)))
        assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[variant]

    def test_roundtrip_counters(self, plans):
        doc = json.loads(pl.dump_plan(plans["bl"]))
        assert doc["counters"]["extra_arrays"] == 63
        assert doc["counters"]["ops_per_point"] == plans["bl"].counters.ops_per_point
        assert doc["policy"] == "bl"

    def test_byte_identical_across_builds(self, eqset):
        a = pl.dump_plan(pl.build_plan(eqset, "sn2", H))
        b = pl.dump_plan(pl.build_plan(eqset, "sn2", H))
        assert a == b

    def test_sn_and_sn2_differ_only_in_point_phase(self, plans):
        a = json.loads(pl.dump_plan(plans["sn"]))
        b = json.loads(pl.dump_plan(plans["sn2"]))
        assert a["phases"]["primitive"] == b["phases"]["primitive"]
        assert a["phases"]["work"] == b["phases"]["work"]
        assert a["counters"] == b["counters"]
        assert a["phases"]["point"] != b["phases"]["point"]


class TestValidation:
    @pytest.mark.parametrize("policy", ["fast", "SN2"])
    def test_unknown_policy(self, eqset, policy):
        with pytest.raises(PlanError, match="unknown storage policy"):
            pl.build_plan(eqset, policy, H)

    def test_unknown_policy_raises_on_every_call(self, eqset):
        # the memo keeps results, never exceptions
        for _ in range(2):
            with pytest.raises(PlanError, match="unknown storage policy"):
                pl.build_plan(eqset, "fast", H)

    def test_census_precondition(self, eqset):
        import dataclasses

        clipped = dataclasses.replace(eqset, derivatives=eqset.derivatives[:10])
        with pytest.raises(PlanError, match="63"):
            pl.build_plan(clipped, "bl", H)

    def test_array_read_before_it_is_written(self, eqset):
        import dataclasses

        *head, p, t = eqset.primitives
        assert (p.target, t.target) == ("p", "T")
        swapped = dataclasses.replace(eqset, primitives=(*head, t, p))
        with pytest.raises(PlanError, match="array 'p' read before it is written"):
            pl.build_plan(swapped, "sn", H)


def _inline_residuals(p):
    arr_defs = {s.target: s.expr for s in statements(p, "work")}
    loc_defs = {s.target: s.expr for s in statements(p, "point") if s.kind == "local"}

    def subst(node):
        if isinstance(node, ex.WorkRef) and node.array in arr_defs:
            return subst(ex.shift(arr_defs[node.array], node.offset))
        if isinstance(node, ex.LocalRef) and node.name in loc_defs:
            return subst(loc_defs[node.name])
        if isinstance(node, ex.Neg):
            return ex.neg(subst(node.child))
        if isinstance(node, ex.Add):
            return ex.add(*(subst(c) for c in node.children))
        if isinstance(node, ex.Mul):
            return ex.mul(*(subst(c) for c in node.children))
        if isinstance(node, ex.Div):
            return ex.div(subst(node.numerator), subst(node.denominator))
        if isinstance(node, ex.IntPow):
            return ex.intpow(subst(node.base), node.exponent)
        return node

    return {
        s.target: subst(s.expr)
        for s in statements(p, "point")
        if s.kind == "residual"
    }


class TestSemanticEquivalence:
    def test_all_variants_compute_the_same_function(self, plans):
        n = 8
        rng = np.random.default_rng(42)
        sol = {c: 1.0 + 0.2 * rng.standard_normal((n, n, n)) for c in range(5)}
        arr = {
            name: 0.7 + 0.15 * rng.standard_normal((n, n, n))
            for name in ("u0", "u1", "u2", "p", "T")
        }
        baseline = _inline_residuals(plans["bl"])
        points = [(0, 0, 0), (3, 5, 1), (7, 2, 6)]
        for v in list(VARIANTS)[1:]:
            inlined = _inline_residuals(plans[v])
            for target in ex.COMPONENT_NAMES:
                for point in points:
                    b = GridBindings(point, n, sol, arr)
                    want = ex.evaluate(baseline[target], b)
                    got = ex.evaluate(inlined[target], b)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (
                        v,
                        target,
                        point,
                    )

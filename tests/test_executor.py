"""Executor: phase orchestration, oracles, conservation, determinism."""

import numpy as np
import pytest

from fdlab import cbackend
from fdlab import equations as eq
from fdlab import executor as exe
from fdlab import expr as ex
from fdlab import plan as pl
from fdlab import stencils as st
from fdlab.errors import GridError, NumericalBlowupError, StateError
from fdlab.grid import HALO, FieldStore, Grid, grid_sum
from fdlab.plan import VARIANTS

from reference import evaluate_expression, split_terms


@pytest.fixture(scope="module")
def params():
    return eq.FlowParams()


@pytest.fixture(scope="module")
def eqset(params):
    return eq.build_equations(params)


@pytest.fixture(scope="module")
def grid8():
    return Grid(8)


@pytest.fixture(scope="module")
def plans8(eqset, grid8):
    return {v: pl.build_plan(eqset, v, grid8) for v in VARIANTS}


def _uniform_store(grid, params, u=(0.3, -0.2, 0.1), p=1.0):
    store = FieldStore(grid)
    rho = params.gamma_mach_sq * p
    store.set_interior("rho", rho)
    for i in range(3):
        store.set_interior(f"rhou{i}", rho * u[i])
    rho_e = p / (params.gamma - 1.0) + 0.5 * rho * sum(v * v for v in u)
    store.set_interior("rhoE", rho_e)
    return store


def _random_store(grid, seed):
    rng = np.random.default_rng(seed)
    store = FieldStore(grid)
    store.set_interior("rho", 1.0 + 0.2 * rng.random(grid.shape))
    for i in range(3):
        store.set_interior(f"rhou{i}", 0.3 * rng.standard_normal(grid.shape))
    store.set_interior("rhoE", 2.5 + 0.3 * rng.random(grid.shape))
    return store


class _StoreBindings(dict):
    """Scalar bindings pulled lazily from exchanged store fields."""

    def __init__(self, store, point):
        super().__init__()
        self.store = store
        self.point = point

    def __missing__(self, key):
        full = self.store.full(key.array)
        i, j, k = (HALO + self.point[d] + key.offset[d] for d in range(3))
        value = float(full[i, j, k])
        self[key] = value
        return value


class TestUniformState:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_residuals_vanish(self, plans8, grid8, params, variant):
        store = _uniform_store(grid8, params)
        residuals = exe.execute_plan(exe.bind(plans8[variant], store))
        for component, field in residuals.items():
            assert float(np.abs(field).max()) <= 1e-13, component


class TestPointwiseOracle:
    @pytest.mark.parametrize("variant", ["bl", "ra"])
    def test_matches_scalar_evaluation(self, plans8, grid8, eqset, variant):
        store = _random_store(grid8, seed=5)
        exe.execute_plan(exe.bind(plans8[variant], store))
        for component, residual in zip(ex.COMPONENT_NAMES, eqset.residuals):
            lowered = st.discretize(residual, grid8.h)
            for point in [(0, 0, 0), (3, 6, 1), (7, 7, 7)]:
                want = ex.evaluate(lowered, _StoreBindings(store, point))
                got = float(store.residual(component)[point])
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestCrossVariant:
    def test_all_variants_match_baseline(self, plans8, grid8):
        store = _random_store(grid8, seed=9)
        base = {
            c: np.array(v)
            for c, v in exe.execute_plan(exe.bind(plans8["bl"], store)).items()
        }
        scale = max(float(np.abs(v).max()) for v in base.values())
        for variant in list(VARIANTS)[1:]:
            got = exe.execute_plan(exe.bind(plans8[variant], store))
            worst = max(
                float(np.abs(got[c] - base[c]).max()) for c in ex.COMPONENT_NAMES
            )
            assert worst <= 1e-10 * scale, variant


class TestConservation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mass_and_momentum_sums_vanish(self, plans8, grid8, eqset, seed):
        store = _random_store(grid8, seed=seed)
        residuals = exe.execute_plan(exe.bind(plans8["bl"], store))
        for component, residual in list(zip(ex.COMPONENT_NAMES, eqset.residuals))[:4]:
            scale = 0.0
            for piece in split_terms(residual):
                field = evaluate_expression(st.discretize(piece, grid8.h), store)
                scale += grid_sum(np.abs(field))
            defect = abs(grid_sum(residuals[component]))
            assert defect <= 1e-9 * scale, component


class TestDeterminism:
    def test_rerun_is_bit_identical(self, plans8, grid8):
        first = {}
        for attempt in range(2):
            store = _random_store(grid8, seed=21)
            residuals = exe.execute_plan(exe.bind(plans8["sn"], store))
            blob = b"".join(
                residuals[c].tobytes() for c in ex.COMPONENT_NAMES
            )
            if attempt == 0:
                first["blob"] = blob
            else:
                assert blob == first["blob"]

    def test_partitioning_does_not_change_bits(
        self, plans8, grid8, monkeypatch, backends
    ):
        store = _random_store(grid8, seed=33)
        base = {
            c: np.array(v)
            for c, v in exe.execute_plan(exe.bind(plans8["bl"], store)).items()
        }
        # shrink numpy slabs to 2 planes; the k-ranges of 3 workers then
        # hold 2, 3 and 3 planes, so they split into slabs unevenly
        monkeypatch.setattr(exe, "_SLAB_BYTES", 2 * 8 * 8 * 8)
        assert len(exe._slabs(0, grid8.n, grid8.n)) == 4
        assert exe._slabs(2, 5, grid8.n) == [(2, 4), (4, 5)]
        for backend in backends():
            kernel = cbackend.KERNELS.lookup(plans8["bl"])
            assert kernel.backend == backend, kernel.reason
            for workers in (1, 3, 10):  # 10 workers make a team of 8
                bound = exe.bind(plans8["bl"], store, workers=workers)
                assert bound.threads == min(workers, grid8.n)
                got = exe.execute_plan(bound)
                for c in ex.COMPONENT_NAMES:
                    assert got[c].tobytes() == base[c].tobytes(), (backend, workers, c)


class TestHalos:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stale_halos_are_refreshed(self, plans8, grid8, backends, variant):
        # execute_plan must trust no halo it finds, even after an earlier
        # call on the same store left them all current
        plan = plans8[variant]
        fresh = exe.execute_plan(exe.bind(plan, _random_store(grid8, seed=13)))
        want = {c: fresh[c].tobytes() for c in ex.COMPONENT_NAMES}
        for backend in backends():
            store = _random_store(grid8, seed=13)
            bound = exe.bind(plan, store)
            exe.execute_plan(bound)
            for name in store.names():
                interior = store.interior(name).copy()
                store.full(name)[...] = np.nan
                store.interior(name)[...] = interior
            got = exe.execute_plan(bound)
            for c in ex.COMPONENT_NAMES:
                assert got[c].tobytes() == want[c], (backend, c)


class TestAllocation:
    def test_baseline_allocates_all_work_arrays(self, plans8, grid8, params):
        store = _uniform_store(grid8, params)
        before = len(store.names())
        exe.execute_plan(exe.bind(plans8["bl"], store))
        assert len(store.names()) == before + 63

    def test_inline_variants_allocate_none(self, plans8, grid8, params):
        for variant in ("ra", "sn", "sn2"):
            store = _uniform_store(grid8, params)
            before = len(store.names())
            exe.execute_plan(exe.bind(plans8[variant], store))
            assert len(store.names()) == before

    def test_gradient_variants_allocate_nine(self, plans8, grid8, params):
        for variant in ("rs", "ss"):
            store = _uniform_store(grid8, params)
            before = len(store.names())
            exe.execute_plan(exe.bind(plans8[variant], store))
            assert len(store.names()) == before + 9


class TestErrors:
    """Every case runs on both backends: the checks live in execute_plan."""

    def test_negative_density(self, plans8, grid8, params, backends):
        for backend in backends():
            store = _uniform_store(grid8, params)
            values = np.array(store.interior("rho"))
            values[2, 3, 4] = -1.0
            store.set_interior("rho", values)
            with pytest.raises(StateError, match=r"density.*\(2, 3, 4\)"):
                exe.execute_plan(exe.bind(plans8["bl"], store))

    def test_negative_pressure(self, plans8, grid8, params, backends):
        for backend in backends():
            store = _uniform_store(grid8, params)
            store.set_interior("rhoE", 1e-6)
            with pytest.raises(StateError, match="pressure"):
                exe.execute_plan(exe.bind(plans8["bl"], store))

    @pytest.mark.parametrize(
        "poison, message",
        [
            (
                {"rho": ((2, 3, 4), -1.0)},
                "non-positive density -1.0 at interior point (2, 3, 4)",
            ),
            (
                {"rhoE": ((5, 1, 6), -2.5)},
                "non-positive pressure -0.9999999999999998 at interior point (5, 1, 6)",
            ),
            (
                {"rhoE": ((0, 7, 2), np.nan)},
                "non-positive pressure nan at interior point (0, 7, 2)",
            ),
            # density is named first, even where pressure fails earlier
            (
                {"rho": ((6, 6, 6), -1.0), "rhoE": ((1, 0, 0), np.nan)},
                "non-positive density -1.0 at interior point (6, 6, 6)",
            ),
        ],
        ids=["density", "pressure", "nan-pressure", "density-first"],
    )
    def test_bad_state_is_named_exactly(
        self, plans8, grid8, params, backends, poison, message
    ):
        for backend in backends():
            store = _uniform_store(grid8, params, u=(0.0, 0.0, 0.0))
            for name, (point, value) in poison.items():
                field = np.array(store.interior(name))
                field[point] = value
                store.set_interior(name, field)
            with pytest.raises(StateError) as raised:
                bound = exe.bind(plans8["sn"], store, workers=2)
                exe.execute_plan(bound, step=3, stage=2)
            assert str(raised.value) == message + " (step 3, stage 2)", backend

    def test_healthy_stage_makes_no_positivity_pass(
        self, plans8, grid8, monkeypatch, backends
    ):
        # the primitive phase counts non-positive density and pressure;
        # the numpy search runs only when that count is not 0
        calls = []
        original = exe.check_positive

        def counted(values, quantity, *args):
            calls.append(quantity)
            return original(values, quantity, *args)

        monkeypatch.setattr(exe, "check_positive", counted)
        for backend in backends():
            calls.clear()
            for variant in ("bl", "sn"):
                store = _random_store(grid8, seed=4)
                bound = exe.bind(plans8[variant], store, workers=2)
                exe.execute_plan(bound, step=1, stage=1)
            assert calls == [], backend
            rho = np.array(store.interior("rho"))
            rho[1, 2, 3] = 0.0
            store.set_interior("rho", rho)
            with pytest.raises(StateError, match=r"density 0\.0 .* \(1, 2, 3\)"):
                exe.execute_plan(exe.bind(plans8["sn"], store), step=1, stage=1)
            assert calls == ["density"], backend

    def test_overflow_reports_blowup_with_step(self, plans8, grid8, backends):
        for backend in backends():
            store = FieldStore(grid8)
            store.set_interior("rho", 1.0)
            store.set_interior("rhou0", 1e150)
            store.set_interior("rhoE", 1e301)
            with pytest.raises(NumericalBlowupError, match=r"step 7"):
                exe.execute_plan(exe.bind(plans8["bl"], store), step=7)

    def test_residuals_are_searched_only_when_a_phase_counts_one(
        self, plans8, grid8, monkeypatch, backends
    ):
        # the phases count the non-finite residuals they store; the numpy
        # search for the first bad point runs only when that count is not 0
        calls = []
        original = exe._check_residuals

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(exe, "_check_residuals", counted)
        for backend in backends():
            calls.clear()
            store = _random_store(grid8, seed=4)
            exe.execute_plan(exe.bind(plans8["sn"], store, workers=2))
            assert calls == [], backend
            # an energy flux of 1e301 * 1e150 overflows near (3, 4, 5)
            store = _random_store(grid8, seed=4)
            for name, value in (("rhou0", 1e150), ("rhoE", 1e301)):
                field = np.array(store.interior(name))
                field[3, 4, 5] = value
                store.set_interior(name, field)
            with pytest.raises(NumericalBlowupError) as raised:
                bound = exe.bind(plans8["sn"], store, workers=2)
                exe.execute_plan(bound, step=1, stage=2)
            assert str(raised.value) == (
                "non-finite residual for rhoE at interior point (1, 4, 5)"
                " (step 1, stage 2)"
            ), backend
            assert len(calls) == 1, backend

    def _assert_bind_refused(self, plan, store_grid, backends):
        # refused before the store is touched: no work array is made and
        # no byte changes
        for backend in backends():
            store = _random_store(store_grid, seed=5)
            before = {name: store.full(name).tobytes() for name in store.names()}
            with pytest.raises(GridError, match="spacing"):
                exe.bind(plan, store)
            after = {name: store.full(name).tobytes() for name in store.names()}
            assert after == before, backend

    def test_spacing_mismatch(self, eqset, grid8, backends):
        plan = pl.build_plan(eqset, "bl", Grid(16))
        self._assert_bind_refused(plan, grid8, backends)

    def test_store_grid_mismatch(self, plans8, backends):
        self._assert_bind_refused(plans8["bl"], Grid(16), backends)

    def test_update_refuses_store_on_another_grid(self, eqset, grid8, backends):
        # update_solution takes only a BoundPlan, so refusing the bind is
        # what keeps an update off a store on another grid
        plan = pl.build_plan(eqset, "sn", Grid(16))
        self._assert_bind_refused(plan, grid8, backends)


class TestEvaluateExpression:
    def test_matches_rolled_stencil(self, grid8):
        store = _random_store(grid8, seed=2)
        lowered = st.discretize(ex.deriv(ex.solution(0), 1), grid8.h)
        got = evaluate_expression(lowered, store)
        rho = np.array(store.interior("rho"))
        want = np.zeros_like(rho)
        for shift, weight in st.first_derivative_stencil().scaled(grid8.h):
            want += weight * np.roll(rho, -shift, axis=1)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_bare_reference_is_a_view(self, grid8):
        store = _random_store(grid8, seed=2)
        view = evaluate_expression(ex.solution(0), store)
        assert view.base is not None
        np.testing.assert_array_equal(view, store.interior("rho"))

    def test_constant_expression_fills(self, grid8):
        store = _random_store(grid8, seed=2)
        field = evaluate_expression(ex.const(2.5), store)
        assert field.shape == grid8.shape
        assert np.all(field == 2.5)

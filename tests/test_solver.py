"""Time integration: the RK3 scheme, vortex setup, and the run driver."""

import hashlib
import math
import re

import numpy as np
import pytest

from fdlab import cbackend
from fdlab import grid as grid_module
from fdlab import solver as sv
from fdlab.equations import FlowParams, build_equations
from fdlab.expr import COMPONENT_NAMES
from fdlab.errors import GridError, NumericalBlowupError, StateError
from fdlab.grid import FieldStore, Grid, grid_sum, integral_diagnostics, read_snapshot
from fdlab.plan import VARIANTS, build_plan
from fdlab.power import MockSource
from fdlab.executor import bind
from fdlab.solver import (
    RunConfig,
    compute_timestep,
    init_tgv,
    rk3_scalar,
    rk3_step,
    run,
)

from reference import init_tgv_meshgrid, timestep_with_temporaries

PARAMS = FlowParams()


def _uniform_store(grid, values=(1.0, 0.3, -0.2, 0.1, 2.5)):
    store = FieldStore(grid)
    for name, value in zip(COMPONENT_NAMES, values):
        store.set_interior(name, value)
    return store


def _solution_bytes(store):
    return tuple(store.interior(name).tobytes() for name in COMPONENT_NAMES)


def _store_sha256(store):
    """sha256 of every padded array of the store, halos included."""
    digest = hashlib.sha256()
    for name in store.names():
        digest.update(store.full(name).tobytes(order="A"))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def store32():
    return init_tgv(Grid(32), PARAMS)


@pytest.fixture(scope="module")
def eqs():
    return build_equations(PARAMS)


class TestRKScheme:
    def test_one_step_exponential_decay(self):
        y = rk3_scalar(1.0, lambda v: -v, 0.1)
        assert abs(y - 0.9048333333333333) < 1e-15

    def test_third_order_convergence(self):
        def integrate(dt):
            y = 1.0
            for _ in range(round(1.0 / dt)):
                y = rk3_scalar(y, lambda v: -v, dt)
            return y

        exact = math.exp(-1.0)
        coarse = abs(integrate(0.1) - exact)
        fine = abs(integrate(0.05) - exact)
        order = math.log2(coarse / fine)
        assert 2.9 < order < 3.1


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.n == 64
        assert config.steps == 500
        assert config.policy == "bl"
        assert config.cfl == 0.4
        assert config.repeats == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": -1},
            {"repeats": 0},
            {"dt": -0.1},
            {"dt": None, "cfl": None},
            {"cfl": -1.0},
            {"snapshot_every": -1},
            {"workers": 0},
            {"dt": math.nan},
            {"dt": math.inf},
            {"cfl": math.nan},
            {"cfl": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_rejects_an_unknown_variant_on_construction(self):
        with pytest.raises(
            ValueError,
            match=r"^unknown variant 'fast'; known variants: bl, rs, ss, ra, sn, sn2$",
        ):
            RunConfig(policy="fast", n=8, steps=1)

    @pytest.mark.parametrize("n", [7, 8.5])
    def test_rejects_a_size_no_grid_accepts(self, n):
        with pytest.raises(GridError):
            RunConfig(n=n)


class TestInitTGV:
    def test_third_velocity_component_is_exactly_zero(self, store32):
        assert np.abs(store32.interior("rhou2")).max() == 0.0

    def test_pressure_at_origin(self, store32):
        rho = store32.interior("rho")[0, 0, 0]
        # recover p from the conserved state at the stagnation corner
        rhoE = store32.interior("rhoE")[0, 0, 0]
        momentum_sq = sum(
            store32.interior(f"rhou{i}")[0, 0, 0] ** 2 for i in range(3)
        )
        p = (PARAMS.gamma - 1.0) * (rhoE - 0.5 * momentum_sq / rho)
        assert abs(p - 71.80357142857143) < 1e-9

    def test_kinetic_energy(self, store32):
        ke = integral_diagnostics(store32)["kinetic_energy"]
        assert abs(ke - 0.125) < 1e-9

    def test_peak_velocity_on_axis(self, store32):
        i = 8  # x0 = pi/2 on the 32-point grid
        u0 = store32.interior("rhou0")[i, 0, 0] / store32.interior("rho")[i, 0, 0]
        assert u0 == 1.0

    def test_velocity_field_is_discretely_divergence_free(self, store32):
        assert integral_diagnostics(store32)["max_divergence"] < 1e-12

    def test_density_positive(self, store32):
        assert store32.interior("rho").min() > 0.0


OTHER_PARAMS = FlowParams(reynolds=800.0, mach=0.3, gamma=1.67)


class TestSetupMatchesReference:
    @pytest.mark.parametrize("params", [PARAMS, OTHER_PARAMS])
    @pytest.mark.parametrize("n", [8, 13, 32, 64])
    def test_init_is_byte_identical(self, n, params):
        got, want = init_tgv(Grid(n), params), init_tgv_meshgrid(Grid(n), params)
        for name in want.names():
            assert got.full(name).tobytes() == want.full(name).tobytes(), name

    @pytest.mark.parametrize("params", [PARAMS, OTHER_PARAMS])
    @pytest.mark.parametrize("n", [8, 13, 32])
    def test_timestep_is_bit_identical_on_perturbed_states(self, n, params):
        store = init_tgv(Grid(n), params)
        rng = np.random.default_rng(n)
        for _ in range(8):
            for name in COMPONENT_NAMES:
                field = store.interior(name)
                field *= 1.0 + 1e-3 * rng.standard_normal(field.shape)
            for cfl in (0.4, 0.77):
                got = compute_timestep(store, params, cfl)
                assert got.hex() == timestep_with_temporaries(store, params, cfl).hex()


class TestComputeTimestep:
    def test_acoustic_limit_at_initial_state(self):
        store = init_tgv(Grid(32), PARAMS)
        dt = compute_timestep(store, PARAMS, 0.4)
        # peak signal speed is |u| = 1 plus sound speed 1/M = 10
        assert abs(dt - 0.4 * store.grid.h / 11.0) < 1e-15
        assert abs(dt - 0.007139983303613166) < 1e-12

    def test_scales_with_cfl(self):
        store = init_tgv(Grid(16), PARAMS)
        assert compute_timestep(store, PARAMS, 0.8) == pytest.approx(
            2.0 * compute_timestep(store, PARAMS, 0.4), rel=1e-15
        )


class TestRK3Step:
    def test_zero_residual_leaves_solution_bit_identical(
        self, eqs, monkeypatch, backends
    ):
        # the update reads the residuals from the store, not from the
        # dict execute_plan returns
        grid = Grid(8)
        plan = build_plan(eqs, "bl", grid)

        def zero_residuals(bound, step=None, stage=None):
            store = bound.store
            for name in COMPONENT_NAMES:
                store.residual(name)[...] = 0.0
            return {name: store.residual(name) for name in COMPONENT_NAMES}

        monkeypatch.setattr(sv, "execute_plan", zero_residuals)
        for backend in backends():
            store = _uniform_store(grid)
            for name in COMPONENT_NAMES:
                store.residual(name)[...] = 1.0
            before = _solution_bytes(store)
            rk3_step(bind(plan, store, workers=2), dt=0.01)
            assert _solution_bytes(store) == before, backend

    def test_uniform_state_barely_drifts(self, eqs):
        # a constant state is an exact steady solution; the stencil sums
        # round to ~1e-16 per tap, so a few steps move nothing visible
        grid = Grid(8)
        store = _uniform_store(grid)
        plan = build_plan(eqs, "sn", grid)
        reference = {
            name: store.interior(name).copy() for name in COMPONENT_NAMES
        }
        bound = bind(plan, store)
        for step in range(1, 4):
            rk3_step(bound, dt=1e-3, step=step)
        for name, initial in reference.items():
            scale = max(np.abs(initial).max(), 1.0)
            drift = np.abs(store.interior(name) - initial).max()
            assert drift <= 1e-13 * scale, name

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_non_positive_dt(self, eqs, dt):
        grid = Grid(8)
        plan = build_plan(eqs, "bl", grid)
        with pytest.raises(ValueError, match="dt"):
            rk3_step(bind(plan, _uniform_store(grid)), dt=dt)

    def test_deterministic_across_reruns(self, eqs):
        grid = Grid(16)
        plan = build_plan(eqs, "rs", grid)
        dt = 0.005
        outcomes = []
        for _ in range(2):
            store = init_tgv(grid, PARAMS)
            bound = bind(plan, store)
            for step in range(1, 6):
                rk3_step(bound, dt=dt, step=step)
            outcomes.append(_solution_bytes(store))
        assert outcomes[0] == outcomes[1]

    def test_mass_and_momentum_conserved(self, eqs):
        grid = Grid(16)
        store = init_tgv(grid, PARAMS)
        plan = build_plan(eqs, "bl", grid)
        dt = compute_timestep(store, PARAMS, 0.4)
        initial = {
            name: grid_sum(store.interior(name))
            for name in ("rho", "rhou0", "rhou1", "rhou2")
        }
        bound = bind(plan, store)
        for step in range(1, 21):
            rk3_step(bound, dt=dt, step=step)
        mass_scale = abs(initial["rho"])
        for name, start in initial.items():
            drift = abs(grid_sum(store.interior(name)) - start)
            assert drift <= 1e-9 * mass_scale, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_halo_exchanges_per_step(self, eqs, monkeypatch, backends, variant):
        # 3 stages x (5 solution fields, 5 primitives, and the diagonal
        # velocity gradients where a plan stores them: 3 or none)
        expected = 39 if variant in ("bl", "rs", "ss") else 30
        grid = Grid(8)
        plan = build_plan(eqs, variant, grid)
        calls = []
        exchange = grid_module.halo_exchange_periodic

        def counting(field):
            calls.append(field.shape)
            return exchange(field)

        monkeypatch.setattr(grid_module, "halo_exchange_periodic", counting)
        for backend in backends():
            store = init_tgv(grid, PARAMS)
            calls.clear()
            rk3_step(bind(plan, store), dt=1e-3, step=1)
            assert len(calls) == expected, backend

    def test_variants_agree_after_steps(self, eqs):
        grid = Grid(16)
        dt = 0.005
        stores = {}
        for variant in VARIANTS:
            store = init_tgv(grid, PARAMS)
            bound = bind(build_plan(eqs, variant, grid), store)
            for step in range(1, 4):
                rk3_step(bound, dt=dt, step=step)
            stores[variant] = store
        baseline = stores["bl"]
        scale = max(
            np.abs(baseline.interior(name)).max() for name in COMPONENT_NAMES
        )
        for variant, store in stores.items():
            for name in COMPONENT_NAMES:
                deviation = np.abs(
                    store.interior(name) - baseline.interior(name)
                ).max()
                assert deviation <= 1e-10 * scale, (variant, name)


class TestRun:
    def test_zero_steps_records_once_and_leaves_state_alone(self):
        result = run(RunConfig(n=16, steps=0, policy="bl"))
        assert len(result.records) == 1
        assert result.records[0].iteration == 0
        assert "runtime_s" in result.summary
        fresh = init_tgv(Grid(16), PARAMS)
        assert _solution_bytes(result.store) == _solution_bytes(fresh)

    def test_null_source_run(self):
        result = run(RunConfig(n=16, steps=3, policy="sn"))
        assert [r.iteration for r in result.records] == [0, 1, 2, 3]
        assert all(r.power is None for r in result.records)
        assert all(r.cumulative_energy is None for r in result.records)
        assert result.summary["runtime_s"] > 0.0
        assert "total_energy_j" not in result.summary

    def test_mock_power_source_yields_energy_summary(self):
        result = run(
            RunConfig(n=16, steps=3, policy="bl"),
            source=MockSource(lambda t: 100.0),
        )
        summary = result.summary
        assert summary["mean_power_w"] == pytest.approx(100.0)
        assert summary["total_energy_j"] == pytest.approx(
            100.0 * summary["runtime_s"], rel=1e-9
        )
        assert summary["energy_per_iteration_j"] == pytest.approx(
            summary["total_energy_j"] / 3.0
        )

    def test_records_stream_to_sink(self):
        sink = []
        result = run(RunConfig(n=16, steps=2, policy="bl"), record_sink=sink.append)
        assert sink == result.records

    def test_failed_run_still_flushed_completed_records(self):
        sink = []
        config = RunConfig(n=16, steps=50, policy="bl", dt=10.0)
        with pytest.raises((StateError, NumericalBlowupError)):
            run(config, record_sink=sink.append)
        assert len(sink) >= 1
        assert sink[0].iteration == 0

    def test_bad_stage_state_names_step_and_stage(self, monkeypatch):
        # the state stage 1 leaves is first read by stage 2's evaluation
        calls = []
        original = sv.execute_plan

        def poisoning(bound, **kwargs):
            calls.append(kwargs)
            if len(calls) == 2:
                rho = np.array(bound.store.interior("rho"))
                rho[3, 4, 5] = -1.0
                bound.store.set_interior("rho", rho)
            return original(bound, **kwargs)

        monkeypatch.setattr(sv, "execute_plan", poisoning)
        with pytest.raises(
            StateError,
            match=r"density -1\.0 at interior point \(3, 4, 5\) \(step 1, stage 2\)",
        ):
            run(RunConfig(n=16, steps=2, policy="sn"))
        assert len(calls) == 2

    def test_final_state_is_tested_once_after_the_loop(self, monkeypatch):
        original = sv.rk3_step

        def poisoning(bound, dt, **kwargs):
            original(bound, dt, **kwargs)
            if kwargs["step"] == 2:
                rho = np.array(bound.store.interior("rho"))
                rho[3, 4, 5] = -1.0
                bound.store.set_interior("rho", rho)

        monkeypatch.setattr(sv, "rk3_step", poisoning)
        sink = []
        with pytest.raises(StateError, match=r"density .* \(3, 4, 5\) \(step 2\)"):
            run(RunConfig(n=16, steps=2, policy="sn"), record_sink=sink.append)
        assert [r.iteration for r in sink] == [0, 1, 2]

    def test_run_binds_its_plan_once(self, monkeypatch):
        # one kernel lookup and at most one pointer table per run, not one
        # per evaluation and update
        lookups, tables = [], []
        lookup = cbackend.KernelCache.lookup
        pointers = cbackend.Kernel.pointers

        def counted_lookup(self, plan):
            lookups.append(plan)
            return lookup(self, plan)

        def counted_pointers(self, arrays):
            tables.append(arrays)
            return pointers(self, arrays)

        monkeypatch.setattr(cbackend.KernelCache, "lookup", counted_lookup)
        monkeypatch.setattr(cbackend.Kernel, "pointers", counted_pointers)
        run(RunConfig(n=8, steps=3, policy="bl"))
        assert len(lookups) == 1
        assert len(tables) <= 1

    def test_each_step_evaluates_through_the_module_global(self, monkeypatch):
        # perfbench's tracer wraps solver.rk3_step and solver.execute_plan
        # and reads each evaluation's span under its step's span
        steps = []
        rk3_step_ = sv.rk3_step
        execute_plan_ = sv.execute_plan

        def stepping(*args, **kwargs):
            steps.append(0)
            return rk3_step_(*args, **kwargs)

        def evaluating(*args, **kwargs):
            steps[-1] += 1
            return execute_plan_(*args, **kwargs)

        monkeypatch.setattr(sv, "rk3_step", stepping)
        monkeypatch.setattr(sv, "execute_plan", evaluating)
        run(RunConfig(n=8, steps=2, policy="sn"))
        assert steps == [3, 3]

    def test_snapshots_written_at_interval(self, tmp_path):
        config = RunConfig(
            n=16, steps=4, policy="bl", snapshot_every=2, out_dir=str(tmp_path)
        )
        result = run(config)
        paths = sorted(tmp_path.glob("snapshot_bl_step*.bin"))
        assert [p.name for p in paths] == [
            "snapshot_bl_step000002.bin",
            "snapshot_bl_step000004.bin",
        ]
        n, step, fields = read_snapshot(paths[-1])
        assert (n, step) == (16, 4)
        assert set(fields) == set(COMPONENT_NAMES)
        np.testing.assert_array_equal(fields["rho"], result.store.interior("rho"))

    def test_worker_count_does_not_change_results(self):
        single = run(RunConfig(n=16, steps=2, policy="sn", workers=1))
        threaded = run(RunConfig(n=16, steps=2, policy="sn", workers=2))
        assert _solution_bytes(single.store) == _solution_bytes(threaded.store)

    #: sha256 of the five solution interiors after run(n=16, steps=3),
    #: pinned before the RK update moved into generated code. bl, ss, sn
    #: and sn2 end in the same bits; rs and ra, which re-expand
    #: derivatives at each use, end in others.
    FINAL_STATE_SHA256 = {
        "bl": "b3c202329c06ae2bdbc56893bc8de877042f8241595ab31bf48cdd7cd780213d",
        "rs": "4f2db61a9432a48eb9573529fd3c66aaa5620b7ff32bbad26144f69797daad68",
        "ss": "b3c202329c06ae2bdbc56893bc8de877042f8241595ab31bf48cdd7cd780213d",
        "ra": "a2e5eccf7b452a0c5f79ac706aa1ba4de7c468debfaac956dad6ef33fabe118a",
        "sn": "b3c202329c06ae2bdbc56893bc8de877042f8241595ab31bf48cdd7cd780213d",
        "sn2": "b3c202329c06ae2bdbc56893bc8de877042f8241595ab31bf48cdd7cd780213d",
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_final_state_bits_are_pinned(self, backends, variant):
        for backend in backends():
            for workers in (1, 2, 3):  # 3 splits 16 planes unevenly
                config = RunConfig(n=16, steps=3, policy=variant, workers=workers)
                digest = hashlib.sha256(b"".join(_solution_bytes(run(config).store)))
                want = self.FINAL_STATE_SHA256[variant]
                assert digest.hexdigest() == want, (backend, workers)

    #: sha256 of every array of init_tgv's store, pinned when the
    #: vortex was still evaluated on full 3-D meshgrids.
    INIT_STORE_SHA256 = {
        8: "d6ece33be4af96f79df754a8568e8e95938f17db796dcb9ca5724b5f29b4e0f3",
        13: "007966c2cab7e2b6ea0b7d4312d88d40fb7c13ba9a055b4677456de86716ea17",
        32: "57f430df3144d7abd66fb8aa9dbfd77c7c67152587499499dcb94aebbbc0ef4e",
    }
    #: compute_timestep(..., cfl=0.4).hex() on the initial state, pinned
    #: when every intermediate was a fresh temporary.
    INITIAL_DT_HEX = {
        13: "0x1.20253a364efb1p-6",
        32: "0x1.d3ed0ac872fd1p-8",
    }
    #: The same on the state that run(n=16, steps=2, policy="ra") leaves.
    STEPPED_DT_HEX = "0x1.d3eeaa896140bp-7"

    @pytest.mark.parametrize("n", sorted(INIT_STORE_SHA256))
    def test_initial_store_bits_are_pinned(self, n):
        store = init_tgv(Grid(n), PARAMS)
        assert _store_sha256(store) == self.INIT_STORE_SHA256[n]
        if n in self.INITIAL_DT_HEX:
            dt = compute_timestep(store, PARAMS, 0.4)
            assert dt.hex() == self.INITIAL_DT_HEX[n]

    def test_stepped_timestep_bits_are_pinned(self, backends):
        for backend in backends():
            store = run(RunConfig(n=16, steps=2, policy="ra")).store
            dt = compute_timestep(store, PARAMS, 0.4)
            assert dt.hex() == self.STEPPED_DT_HEX, backend

    def test_equal_configs_share_one_plan(self):
        first = run(RunConfig(n=16, steps=0, policy="sn"))
        second = run(RunConfig(n=16, steps=0, policy="sn"))
        assert first.plan is second.plan
        for other in (
            RunConfig(n=16, steps=0, policy="sn", params=FlowParams(reynolds=800.0)),
            RunConfig(n=8, steps=0, policy="sn"),
        ):
            plan = run(other).plan
            assert plan is not first.plan and plan != first.plan

    def test_non_finite_residual_names_the_same_point_on_both_backends(
        self, monkeypatch, backends
    ):
        # an energy flux of 1e301 * 1e150 overflows next to one point
        # whose density and pressure are still positive
        calls = []
        original = sv.execute_plan

        def poisoning(bound, **kwargs):
            calls.append(kwargs["stage"])
            if len(calls) == 2:
                for name, value in (("rhou0", 1e150), ("rhoE", 1e301)):
                    field = np.array(bound.store.interior(name))
                    field[3, 4, 5] = value
                    bound.store.set_interior(name, field)
            return original(bound, **kwargs)

        monkeypatch.setattr(sv, "execute_plan", poisoning)
        messages = {}
        for backend in backends():
            calls.clear()
            with pytest.raises(NumericalBlowupError) as raised:
                run(RunConfig(n=16, steps=2, policy="sn"))
            messages[backend] = str(raised.value)
        assert re.fullmatch(
            r"non-finite residual for \w+ at interior point \(\d+, \d+, \d+\)"
            r" \(step 1, stage 2\)",
            messages["numpy"],
        ), messages["numpy"]
        assert len(set(messages.values())) == 1, messages

    def test_explicit_dt_is_used(self):
        result = run(RunConfig(n=16, steps=0, policy="bl", dt=0.003))
        assert result.dt == 0.003


class TestKineticEnergyDecay:
    def test_monotone_decay_on_production_grid(self):
        grid = Grid(64)
        store = init_tgv(grid, PARAMS)
        plan = build_plan(build_equations(PARAMS), "bl", grid)
        dt = compute_timestep(store, PARAMS, 0.4)
        energies = [integral_diagnostics(store)["kinetic_energy"]]
        bound = bind(plan, store)
        for step in range(1, 101):
            rk3_step(bound, dt=dt, step=step)
            energies.append(integral_diagnostics(store)["kinetic_energy"])
        slack = 1e-12 * energies[0]
        drops = [b <= a + slack for a, b in zip(energies, energies[1:])]
        assert all(drops), f"first rise at step {drops.index(False) + 1}"

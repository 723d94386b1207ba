"""Grid geometry, halo exchange, field store, sums, snapshots."""

import math
import shutil

import numpy as np
import pytest

from fdlab import cbackend
from fdlab.errors import GridError
from fdlab.executor import bind
from fdlab.grid import (
    HALO,
    FieldStore,
    Grid,
    grid_sum,
    halo_exchange_periodic,
    integral_diagnostics,
    read_snapshot,
    write_snapshot,
)
from fdlab.solver import RunConfig, rk3_step, run


class TestGrid:
    def test_spacing_times_n_is_two_pi(self):
        for n in (8, 16, 24, 32, 48, 64):
            g = Grid(n)
            product = g.h * n
            assert abs(product - 2.0 * math.pi) <= np.spacing(2.0 * math.pi)

    def test_rejects_small_or_bad_n(self):
        with pytest.raises(GridError, match="at least 8"):
            Grid(7)
        with pytest.raises(GridError):
            Grid(16.0)

    def test_shapes_and_coordinates(self):
        g = Grid(16)
        assert g.shape == (16, 16, 16)
        assert g.padded_shape == (24, 24, 24)
        x = g.coordinates()
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(2.0 * math.pi - g.h)


def _indexed_field(n):
    """Padded field whose interior value encodes the interior index."""
    field = np.zeros((n + 2 * HALO,) * 3, order="F")
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    field[HALO:-HALO, HALO:-HALO, HALO:-HALO] = i + 100 * j + 10000 * k
    return field


class TestHaloExchange:
    def test_wraps_one_axis(self):
        n = 8
        field = _indexed_field(n)
        halo_exchange_periodic(field)
        # halo at interior index -1 equals interior value at n-1
        assert field[HALO - 1, HALO, HALO] == field[HALO + n - 1, HALO, HALO]
        assert field[HALO + n, HALO, HALO] == field[HALO, HALO, HALO]

    def test_corner_wrap(self):
        n = 8
        field = _indexed_field(n)
        halo_exchange_periodic(field)
        want = field[HALO + n - 4, HALO + n - 4, HALO + n - 4]
        assert field[0, 0, 0] == want

    def test_idempotent(self):
        field = _indexed_field(8)
        once = halo_exchange_periodic(field.copy(order="F"))
        twice = halo_exchange_periodic(once.copy(order="F"))
        assert once.tobytes() == twice.tobytes()

    def test_random_field_slabs_match_exactly(self):
        n = 12
        rng = np.random.default_rng(3)
        field = np.zeros((n + 2 * HALO,) * 3, order="F")
        field[HALO:-HALO, HALO:-HALO, HALO:-HALO] = rng.standard_normal((n, n, n))
        halo_exchange_periodic(field)
        interior = field[HALO:-HALO, HALO:-HALO, HALO:-HALO]
        np.testing.assert_array_equal(field[:HALO, HALO:-HALO, HALO:-HALO], interior[-HALO:])
        np.testing.assert_array_equal(field[-HALO:, HALO:-HALO, HALO:-HALO], interior[:HALO])
        np.testing.assert_array_equal(
            field[HALO:-HALO, HALO:-HALO, :HALO], interior[:, :, -HALO:]
        )

    def test_interior_untouched(self):
        field = _indexed_field(8)
        before = field[HALO:-HALO, HALO:-HALO, HALO:-HALO].copy()
        halo_exchange_periodic(field)
        np.testing.assert_array_equal(
            field[HALO:-HALO, HALO:-HALO, HALO:-HALO], before
        )

    def test_compiled_and_numpy_bytes_equal(self, backends):
        # halos poisoned with NaN first: every halo value must be a copy
        poisoned = {}
        for n in (8, 13, 32, 64):
            rng = np.random.default_rng(n)
            field = np.full((n + 2 * HALO,) * 3, np.nan, order="F")
            field[HALO:-HALO, HALO:-HALO, HALO:-HALO] = rng.standard_normal((n,) * 3)
            poisoned[n] = field
        got = {}
        ran = []
        for backend in backends():
            assert cbackend.KERNELS.exchange().backend == backend
            ran.append(backend)
            for n, field in poisoned.items():
                field = field.copy(order="F")
                assert halo_exchange_periodic(field) is field
                interior = field[HALO:-HALO, HALO:-HALO, HALO:-HALO]
                np.testing.assert_array_equal(field, np.pad(interior, HALO, mode="wrap"))
                got[backend, n] = field.tobytes()
        for n in poisoned:
            assert len({got[backend, n] for backend in ran}) == 1, n

    def test_other_layouts_take_the_numpy_loop(self, monkeypatch):
        calls = []
        spy = cbackend.Exchange(function=lambda *args: calls.append(args))
        monkeypatch.setattr(cbackend.KERNELS, "exchange", lambda: spy)
        halo_exchange_periodic(_indexed_field(8))
        assert len(calls) == 1  # the spy stands in for fd_exchange
        rng = np.random.default_rng(5)
        # a C-order cube and a Fortran-order cuboid
        for shape, order in (((8, 8, 8), "C"), ((8, 9, 10), "F")):
            interior = rng.standard_normal(shape)
            want = np.pad(interior, HALO, mode="wrap")
            field = np.zeros(want.shape, order=order)
            field[HALO:-HALO, HALO:-HALO, HALO:-HALO] = interior
            halo_exchange_periodic(field)
            np.testing.assert_array_equal(field, want)
        assert len(calls) == 1

    @pytest.mark.skipif(shutil.which(cbackend.COMPILER) is None, reason="no compiler")
    def test_rk3_step_neither_builds_nor_loads_a_library(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path))
        result = run(RunConfig(n=8, steps=1, policy="sn", repeats=1))
        assert cbackend.KERNELS.exchange().backend == "c"
        loads = []
        monkeypatch.setattr(
            cbackend.KernelCache, "_library", lambda self, source: loads.append(source)
        )
        rk3_step(bind(result.plan, result.store), result.dt, step=2)
        assert loads == []

    def test_rejects_unpadded(self):
        with pytest.raises(GridError, match="padded"):
            halo_exchange_periodic(np.zeros((8, 8, 8)))


class TestFieldStore:
    def test_base_allocation(self):
        store = FieldStore(Grid(8))
        names = set(store.names())
        for name in ("rho", "rhou0", "rhoE", "u0", "p", "T", "res_rho"):
            assert name in names
        assert len(names) == 20

    def test_work_allocation_idempotent(self):
        store = FieldStore(Grid(8))
        store.ensure_work(("d_a", "d_b"))
        store.ensure_work(("d_a", "d_b"))
        assert store.names()[-2:] == ("d_a", "d_b")
        assert len(store.names()) == 22
        assert store.full("d_a").shape == (16, 16, 16)

    def test_layout_is_axis0_fastest(self):
        store = FieldStore(Grid(8))
        assert store.full("rho").flags.f_contiguous

    def test_unknown_field(self):
        store = FieldStore(Grid(8))
        with pytest.raises(GridError, match="unknown field"):
            store.full("missing")


class TestGridSum:
    def test_unit_field(self):
        store = FieldStore(Grid(16))
        store.set_interior("rho", 1.0)
        assert grid_sum(store.interior("rho")) == 4096.0

    def test_compensated_accumulation(self):
        values = np.zeros((8, 8, 8))
        values[0, 0, 0] = 1e16
        values[1, 0, 0] = 1.0
        values[2, 0, 0] = -1e16
        assert grid_sum(values) == 1.0


class TestDiagnostics:
    def test_uniform_state(self):
        g = Grid(16)
        store = FieldStore(g)
        store.set_interior("rho", 2.0)
        store.set_interior("rhou0", 0.6)
        d = integral_diagnostics(store)
        assert d["total_mass"] == pytest.approx(2.0 * (2.0 * math.pi) ** 3, rel=1e-12)
        assert d["kinetic_energy"] == pytest.approx(0.09, rel=1e-12)
        assert d["max_divergence"] <= 1e-13

    def test_divergence_free_mode_cancels(self):
        g = Grid(16)
        store = FieldStore(g)
        x = g.coordinates()
        x0, x1, _ = np.meshgrid(x, x, x, indexing="ij")
        store.set_interior("rho", 1.0)
        store.set_interior("rhou0", np.sin(x0) * np.cos(x1))
        store.set_interior("rhou1", -np.cos(x0) * np.sin(x1))
        store.set_interior("rhou2", 0.0)
        assert integral_diagnostics(store)["max_divergence"] <= 1e-13


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        g = Grid(8)
        store = FieldStore(g)
        rng = np.random.default_rng(11)
        want = {}
        for name in ("rho", "rhoE"):
            want[name] = rng.standard_normal(g.shape)
            store.set_interior(name, want[name])
        path = tmp_path / "state.bin"
        write_snapshot(path, store, ("rho", "rhoE"), step=42)
        n, step, fields = read_snapshot(path)
        assert (n, step) == (8, 42)
        assert list(fields) == ["rho", "rhoE"]
        for name in fields:
            np.testing.assert_array_equal(fields[name], want[name])

    def test_layout_order(self, tmp_path):
        g = Grid(8)
        store = FieldStore(g)
        values = np.arange(512, dtype=float).reshape(g.shape, order="F")
        store.set_interior("rho", values)
        path = tmp_path / "state.bin"
        write_snapshot(path, store, ("rho",), step=0)
        flat = np.fromfile(path, dtype="<f8")
        # axis 0 fastest: the first entries walk the first axis
        assert flat[0] == values[0, 0, 0]
        assert flat[1] == values[1, 0, 0]
        assert flat[8] == values[0, 1, 0]

    def test_size_mismatch(self, tmp_path):
        g = Grid(8)
        store = FieldStore(g)
        path = tmp_path / "state.bin"
        write_snapshot(path, store, ("rho",), step=0)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(GridError, match="mismatch"):
            read_snapshot(path)

"""Periodic 3D structured grid: padded field storage, halo exchange, sums.

Every field lives in one padded allocation of shape (N+8)^3 with axis 0
fastest (Fortran layout), so interior indexing in the point phase is
branch-free and stencil taps are plain view shifts. Halo width is 4,
wide enough for every footprint the planner can emit.

``halo_exchange_periodic`` is the one exchange. A store's field runs the
compiled ``fd_exchange`` of ``cbackend.KERNELS`` when that cache has one
(it follows the kernels: no compiler, no compiled exchange); any other
array, and every array without a compiler, runs the numpy loop, which is
the reference the compiled copies match byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equations import PRIMITIVE_ARRAYS
from .errors import GridError
from .expr import COMPONENT_NAMES
from .stencils import first_derivative_stencil

HALO = 4
DOMAIN_LENGTH = 2.0 * math.pi

#: The RK accumulators, one per solution component, that every store holds.
ACCUMULATORS = tuple("acc_" + name for name in COMPONENT_NAMES)


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid on [0, 2pi)^3 with n points per axis."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise GridError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 8:
            raise GridError(f"grid needs at least 8 points per axis, got {self.n}")

    @property
    def h(self) -> float:
        return DOMAIN_LENGTH / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n,) * 3

    @property
    def padded_shape(self) -> tuple[int, int, int]:
        return (self.n + 2 * HALO,) * 3

    def coordinates(self) -> np.ndarray:
        """Interior point positions along one axis (same for all three)."""
        return np.arange(self.n) * self.h


def halo_exchange_periodic(field: np.ndarray) -> np.ndarray:
    """Fill all six halo slabs with wrapped interior data, in place.

    Sequential per-axis copies: by the time axis 1 runs, axis 0's halos
    already hold interior images, so edge and corner regions come out
    right without a separate pass. A cubic, Fortran-order, writeable
    float64 field with at least HALO interior points per axis makes these
    copies in compiled code when ``cbackend.KERNELS`` has it.
    """
    if field.ndim != 3 or min(field.shape) < 2 * HALO + 1:
        raise GridError(f"expected a padded 3d field, got shape {field.shape}")
    p = field.shape[0]
    if (
        field.shape == (p, p, p)
        and p >= 3 * HALO
        and field.dtype == np.float64
        and field.flags.f_contiguous
        and field.flags.writeable
    ):
        from . import cbackend  # imported here: cbackend imports this module

        compiled = cbackend.KERNELS.exchange().function
        if compiled is not None:
            compiled(field.ctypes.data, p - 2 * HALO)
            return field
    for axis in range(3):
        view = field.swapaxes(0, axis)
        n = view.shape[0] - 2 * HALO
        view[:HALO] = view[n : n + HALO]
        view[n + HALO :] = view[HALO : 2 * HALO]
    return field


_INTERIOR = (slice(HALO, -HALO),) * 3


class FieldStore:
    """Named padded arrays: solution, primitives, residuals, RK
    accumulators, and work arrays allocated on demand per plan.

    Exclusively owned by one driver at a time. The store keeps no record
    of which halos are current: ``execute_plan`` refreshes them at fixed
    points of every evaluation, taken from the plan.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._arrays: dict[str, np.ndarray] = {}
        for name in COMPONENT_NAMES:
            self._allocate(name)
        for name in PRIMITIVE_ARRAYS:
            self._allocate(name)
        for name in COMPONENT_NAMES:
            self._allocate("res_" + name)
        for name in ACCUMULATORS:
            self._allocate(name)

    def _allocate(self, name: str) -> None:
        self._arrays[name] = np.zeros(self.grid.padded_shape, order="F")

    def ensure_work(self, names: tuple[str, ...]) -> None:
        """Allocate the plan's work arrays; repeated calls are no-ops."""
        for name in names:
            if name not in self._arrays:
                self._allocate(name)

    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def full(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise GridError(f"unknown field {name!r}") from None

    def interior(self, name: str) -> np.ndarray:
        return self.full(name)[_INTERIOR]

    def set_interior(self, name: str, values) -> None:
        self.interior(name)[...] = values

    def residual(self, component: str) -> np.ndarray:
        return self.interior("res_" + component)

    def exchange(self, name: str) -> None:
        halo_exchange_periodic(self.full(name))


def grid_sum(field: np.ndarray) -> float:
    """Error-free accumulation over all entries of the view."""
    return math.fsum(np.asarray(field, dtype=float).ravel().tolist())


def _first_derivative_field(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    for shift, weight in first_derivative_stencil().scaled(h):
        out += weight * np.roll(values, -shift, axis=axis)
    return out


def integral_diagnostics(store: FieldStore) -> dict[str, float]:
    """Interior integrals used by validation runs.

    total_mass is the volume integral of density; kinetic_energy is the
    volume average of rho*|u|^2/2; max_divergence applies the first
    derivative stencil to the velocities recovered from the conserved
    fields.
    """
    grid = store.grid
    h = grid.h
    rho = store.interior("rho")
    momentum = [store.interior(f"rhou{i}") for i in range(3)]
    ke_field = 0.5 * (momentum[0] ** 2 + momentum[1] ** 2 + momentum[2] ** 2) / rho
    divergence = np.zeros(grid.shape)
    for axis in range(3):
        divergence += _first_derivative_field(momentum[axis] / rho, axis, h)
    return {
        "total_mass": h**3 * grid_sum(rho),
        "kinetic_energy": grid_sum(ke_field) / grid.n**3,
        "max_divergence": float(np.max(np.abs(divergence))),
    }


def write_snapshot(path, store: FieldStore, names, step: int) -> None:
    """Raw dump: interiors concatenated in listed order, axis 0 fastest,
    little-endian 64-bit reals, plus a sidecar text header."""
    names = tuple(names)
    with open(path, "wb") as fh:
        for name in names:
            fh.write(store.interior(name).ravel(order="F").astype("<f8").tobytes())
    with open(f"{path}.hdr", "w", encoding="ascii") as fh:
        fh.write(f"n {store.grid.n}\n")
        fh.write(f"step {step}\n")
        fh.write("fields " + " ".join(names) + "\n")


def read_snapshot(path) -> tuple[int, int, dict[str, np.ndarray]]:
    header: dict[str, str] = {}
    with open(f"{path}.hdr", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.strip().partition(" ")
            header[key] = rest
    n = int(header["n"])
    step = int(header["step"])
    names = header["fields"].split()
    flat = np.fromfile(path, dtype="<f8")
    if flat.size != len(names) * n**3:
        raise GridError(f"snapshot size mismatch for {path}")
    fields = {}
    for index, name in enumerate(names):
        chunk = flat[index * n**3 : (index + 1) * n**3]
        fields[name] = chunk.reshape((n, n, n), order="F")
    return n, step, fields

"""Shared fixtures and binding helpers for the test suite."""

import math
import shutil

import pytest

from fdlab import cbackend
from fdlab import expr as ex

HALO_OFFSETS = [
    (i, j, k)
    for i in range(-ex.MAX_OFFSET, ex.MAX_OFFSET + 1)
    for j in range(-ex.MAX_OFFSET, ex.MAX_OFFSET + 1)
    for k in range(-ex.MAX_OFFSET, ex.MAX_OFFSET + 1)
]


def bind_arrays(h, point, fields):
    """Sample callables onto every halo offset around one grid point.

    ``fields`` maps array names to functions of (x0, x1, x2). The result
    binds the ``ex.array(name, offset)`` leaf of every offset in the halo
    cube.
    """
    out = {}
    x0, x1, x2 = point
    for name, func in fields.items():
        for o in HALO_OFFSETS:
            out[ex.array(name, o)] = func(
                x0 + o[0] * h, x1 + o[1] * h, x2 + o[2] * h
            )
    return out


def bind_solution(h, point, comps):
    """Same as bind_arrays for solution components keyed by index."""
    return bind_arrays(
        h, point, {ex.COMPONENT_NAMES[comp]: func for comp, func in comps.items()}
    )


def statements(plan, group):
    """The plan's statements in one of dump_plan's groups: 'primitive' is
    the first phase, 'work' the phases between, 'point' the last."""
    phases = {
        "primitive": plan.phases[:1],
        "work": plan.phases[1:-1],
        "point": plan.phases[-1:],
    }[group]
    return tuple(s for phase in phases for s in phase.statements)


def spacing(n):
    return 2.0 * math.pi / n


class GridBindings(dict):
    """Lazy point bindings backed by periodic numpy fields.

    ``solutions`` maps component index to an (N,N,N) array and ``arrays``
    maps array name to the same. Lookups wrap around the boundary.
    """

    def __init__(self, point, n, solutions=None, arrays=None, locals_=None):
        super().__init__()
        self.point = point
        self.n = n
        self.fields = {ex.COMPONENT_NAMES[c]: f for c, f in (solutions or {}).items()}
        self.fields.update(arrays or {})
        for name, value in (locals_ or {}).items():
            self[ex.local(name)] = value

    def __missing__(self, key):
        if not isinstance(key, ex.WorkRef):
            raise KeyError(key)
        field = self.fields[key.array]
        off = key.offset
        i, j, k = self.point
        value = field[
            (i + off[0]) % self.n, (j + off[1]) % self.n, (k + off[2]) % self.n
        ]
        self[key] = value
        return value


@pytest.fixture
def backends(monkeypatch, tmp_path):
    """Iterate to run a test body on the compiled backend, when the
    compiler is installed, and then on the numpy reference.

    The numpy pass swaps in a kernel cache whose compiler does not exist,
    which is the automatic fallback path.
    """

    def each():
        if shutil.which(cbackend.COMPILER) is not None:
            yield "c"
        monkeypatch.setattr(
            cbackend,
            "KERNELS",
            cbackend.KernelCache(tmp_path, compiler="fdlab-missing-compiler"),
        )
        yield "numpy"

    return each

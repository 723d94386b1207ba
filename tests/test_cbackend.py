"""Compiled backend: bit-identity with numpy, fallback, and caching."""

import dataclasses
import hashlib
import json
import platform
import re
import shutil
import subprocess

import numpy as np
import pytest

from fdlab import bench, cbackend
from fdlab import executor as exe
from fdlab.equations import FlowParams, build_equations
from fdlab.grid import FieldStore, Grid
from fdlab import expr as ex
from fdlab.plan import VARIANTS, Statement, build_plan
from fdlab.solver import RunConfig, rk3_step, run

MISSING = "fdlab-missing-compiler"

needs_compiler = pytest.mark.skipif(
    shutil.which(cbackend.COMPILER) is None,
    reason=f"{cbackend.COMPILER} is not installed",
)


@pytest.fixture(scope="module")
def eqset():
    return build_equations(FlowParams())


def _random_store(grid, seed):
    rng = np.random.default_rng(seed)
    store = FieldStore(grid)
    store.set_interior("rho", 1.0 + 0.2 * rng.random(grid.shape))
    for i in range(3):
        store.set_interior(f"rhou{i}", 0.3 * rng.standard_normal(grid.shape))
    store.set_interior("rhoE", 2.5 + 0.3 * rng.random(grid.shape))
    return store


def _result_bytes(plan, grid, workers):
    """Residual bytes of one evaluation, then solution bytes after one
    full RK3 step, both from the same random state."""
    store = _random_store(grid, seed=17)
    residuals = exe.execute_plan(exe.bind(plan, store, workers))
    got = {f"res_{c}": residuals[c].tobytes() for c in ex.COMPONENT_NAMES}
    store = _random_store(grid, seed=17)
    rk3_step(exe.bind(plan, store, workers), dt=1e-4, step=1)
    got.update({c: store.interior(c).tobytes() for c in ex.COMPONENT_NAMES})
    return got


def _count_compiles(monkeypatch):
    calls = []
    original = cbackend._compile

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cbackend, "_compile", counted)
    return calls


@needs_compiler
@pytest.mark.parametrize("n", [8, 12, 13])  # 13 leaves a scalar remainder
@pytest.mark.parametrize("variant", VARIANTS)
def test_residuals_byte_equal_numpy(eqset, monkeypatch, tmp_path, variant, n):
    # the residuals check the phases; the solution after one step, fd_update
    grid = Grid(n)
    plan = build_plan(eqset, variant, grid)
    kernel = cbackend.KERNELS.lookup(plan)
    assert kernel.backend == "c", kernel.reason
    compiled = {w: _result_bytes(plan, grid, w) for w in (1, 3)}
    monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path, MISSING))
    reference = _result_bytes(plan, grid, 1)
    assert cbackend.KERNELS.lookup(plan).backend == "numpy"
    assert len(reference) == 10
    for workers, got in compiled.items():
        for name, want in reference.items():
            assert got[name] == want, (workers, name)


@needs_compiler
@pytest.mark.skipif(shutil.which("objdump") is None, reason="objdump is not installed")
@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 mnemonics only")
@pytest.mark.parametrize("variant", ["ra", "sn"])
def test_point_loop_is_vectorised(eqset, tmp_path, variant):
    plan = build_plan(eqset, variant, Grid(16))
    kernel = cbackend.KernelCache(tmp_path).lookup(plan)
    assert kernel.backend == "c", kernel.reason
    (library,) = tmp_path.glob("*.so")
    for function in ("fd_point", "fd_update"):
        listing = subprocess.run(
            ["objdump", "-d", f"--disassemble={function}", str(library)],
            capture_output=True, text=True, check=True,
        ).stdout
        kinds = re.findall(r"\bv?(?:add|sub|mul|div)([ps])d\b", listing)
        assert kinds.count("p") > 0 and kinds.count("s") == 0, (
            f"{function}: {kinds.count('p')} packed, {kinds.count('s')} scalar"
        )


@needs_compiler
def test_one_pool_serves_every_launch(eqset, monkeypatch):
    made = []

    class Counted(exe.ThreadPoolExecutor):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(exe, "ThreadPoolExecutor", Counted)
    exe._pool.cache_clear()
    try:
        grid = Grid(8)
        plan = build_plan(eqset, "bl", grid)  # 65 phases and fd_update
        bound = exe.bind(plan, _random_store(grid, seed=3), workers=2)
        for step in (1, 2):
            rk3_step(bound, dt=1e-4, step=step)
    finally:
        exe._pool.cache_clear()
    assert made == [2]


#: sha256 of generate_source(build_plan(eqset, variant, Grid(16))). A
#: change here changes every kernel-cache key, so the next run of each
#: variant compiles again.
SOURCE_SHA256 = {
    "bl": "15d00269cf4edf6b1be375821ab716e4ff4104b6924a4fd73fd618698f5434db",
    "rs": "b162a402b4d47e58edbba5d936d3682e2fc73fbc262576f6ad9563e0d3bdf955",
    "ss": "5b1d1baebefa46c8e605e234ecb77e25933e853e7f1f0a40f62cf86fece3ef5b",
    "ra": "fed7cd11bce39ac3dca442cdc1cbcd4cf31700f61d65641c70dbc0553b6d9dbc",
    "sn": "aaa18e267080944c6320ff89f0028398c4b337ac99ec7856da27a5482ad774cf",
    "sn2": "2503f3005db00b6875792bb437726cc0613b0781bf03fdc31bb9f167a159c469",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_generated_source_is_pinned(eqset, variant):
    source = cbackend.generate_source(build_plan(eqset, variant, Grid(16)))
    assert hashlib.sha256(source.encode()).hexdigest() == SOURCE_SHA256[variant]


@needs_compiler
def test_run_builds_the_kernel_before_the_first_record(monkeypatch, tmp_path):
    monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path))
    libraries = {}

    def sink(record):
        libraries[record.iteration] = len(list(tmp_path.glob("*.so")))

    run(RunConfig(n=8, steps=1, policy="sn", repeats=1), record_sink=sink)
    assert libraries == {0: 2, 1: 2}  # the kernel and the halo exchange


def test_missing_compiler_falls_back_with_reason(monkeypatch, tmp_path):
    config = RunConfig(n=8, steps=2, policy="sn", repeats=1, cfl=0.4)
    compiled = run(config).store
    monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path, MISSING))
    report = bench.run_matrix(config, ["sn"])
    out = tmp_path / "out"
    out.mkdir()
    bench.emit_reports(report, out, json_path=out / "provenance.json")
    doc = json.loads((out / "provenance.json").read_text())["backend"]
    assert doc["ran"] == "numpy"
    assert doc["kernels"]["sn"]["backend"] == "numpy"
    assert MISSING in doc["fallback_reason"]
    assert doc["compiler"] is None
    assert doc["exchange"]["backend"] == "numpy"
    assert MISSING in doc["exchange"]["reason"]
    fallback = run(config).store
    for name in ("rho", "rhou0", "rhou1", "rhou2", "rhoE"):
        assert fallback.interior(name).tobytes() == compiled.interior(name).tobytes()


@needs_compiler
def test_provenance_names_compiler_and_library(monkeypatch, tmp_path):
    monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path))
    report = bench.run_matrix(RunConfig(n=8, steps=1, policy="sn", repeats=1), ["sn"])
    doc = report.backend
    assert doc["ran"] == "c" and doc["fallback_reason"] is None
    assert doc["compiler"] == cbackend.compiler_version(cbackend.COMPILER)
    assert "-ffp-contract=off" in doc["flags"]
    assert "-fopenmp-simd" in doc["flags"]
    assert doc["exchange"]["backend"] == "c" and "reason" not in doc["exchange"]
    libraries = {cbackend._sha256_file(path) for path in tmp_path.glob("*.so")}
    assert libraries == {doc["kernels"]["sn"]["sha256"], doc["exchange"]["sha256"]}


@needs_compiler
def test_second_lookup_does_not_compile(eqset, monkeypatch, tmp_path):
    cache = cbackend.KernelCache(tmp_path)
    calls = _count_compiles(monkeypatch)
    grid = Grid(8)
    first = cache.lookup(build_plan(eqset, "sn", grid))
    again = cache.lookup(build_plan(eqset, "sn", grid))  # equal, not identical
    assert first.backend == "c" and again is first
    assert len(calls) == 1


@needs_compiler
def test_disk_cache_is_reused_after_memo_cleared(eqset, monkeypatch, tmp_path):
    plan = build_plan(eqset, "sn2", Grid(8))
    first = cbackend.KernelCache(tmp_path).lookup(plan)
    calls = _count_compiles(monkeypatch)
    second = cbackend.KernelCache(tmp_path).lookup(plan)
    assert second.backend == "c" and second is not first
    assert second.sha256 == first.sha256
    assert calls == []


@needs_compiler
def test_compiler_error_falls_back(eqset, monkeypatch, tmp_path):
    monkeypatch.setattr(cbackend, "FLAGS", cbackend.FLAGS + ("-fno-such-flag",))
    plan = build_plan(eqset, "ss", Grid(8))
    kernel = cbackend.KernelCache(tmp_path).lookup(plan)
    assert kernel.backend == "numpy"
    assert "-fno-such-flag" in kernel.reason
    assert list(tmp_path.iterdir()) == []


def test_source_uses_exact_literals_and_left_folds(eqset):
    source = cbackend.generate_source(build_plan(eqset, "bl", Grid(8)))
    assert "(0x1.9999999999998p-2)" in source  # gamma - 1, from 0.3999999999999999
    assert "fd_pow2(v_u0)" in source
    assert "((fd_pow2(v_u0) + fd_pow2(v_u1)) + fd_pow2(v_u2))" in source
    # 65 phases and fd_update, one i-loop each; only fd_point stores residuals
    assert len(re.findall(r"^(?:long|void) fd_\w+\(double \*const \*A", source, re.M)) == 66
    assert source.count("#pragma omp simd") == 66
    assert source.count("#pragma omp simd reduction(+:nonfinite)") == 1
    assert source.count("nonfinite += !__builtin_isfinite(v_res_") == 5
    # fd_primitive counts the points where density or pressure is not positive
    assert source.count("#pragma omp simd reduction(+:nonpositive)") == 1
    assert "nonpositive += !(a_rho[c] > 0.0) | !(v_p > 0.0);" in source


def test_plan_the_generator_cannot_express_runs_on_numpy(eqset, tmp_path):
    # A work statement that taps its own target has no single-pass C form.
    plan = build_plan(eqset, "rs", Grid(8))
    primitive, work, *rest = plan.phases
    first = work.statements[0]
    tapped = ex.add(first.expr, ex.array(first.target, (1, 0, 0)))
    tapped_stmt = Statement("array", first.target, tapped)
    work = dataclasses.replace(work, statements=(tapped_stmt,))
    odd = dataclasses.replace(plan, phases=(primitive, work, *rest))
    kernel = cbackend.KernelCache(tmp_path).lookup(odd)
    assert kernel.backend == "numpy"
    assert kernel.reason.startswith("code generation:")
    assert first.target in kernel.reason

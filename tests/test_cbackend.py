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
from fdlab.solver import RunConfig, run

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


def _residual_bytes(plan, grid, workers):
    store = _random_store(grid, seed=17)
    residuals = exe.execute_plan(plan, store, workers=workers)
    return {c: residuals[c].tobytes() for c in ex.COMPONENT_NAMES}


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
    grid = Grid(n)
    plan = build_plan(eqset, variant, grid.h)
    kernel = cbackend.KERNELS.lookup(plan, n)
    assert kernel.backend == "c", kernel.reason
    compiled = {w: _residual_bytes(plan, grid, w) for w in (1, 3)}
    monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path, MISSING))
    reference = _residual_bytes(plan, grid, 1)
    assert cbackend.KERNELS.lookup(plan, n).backend == "numpy"
    for workers, got in compiled.items():
        for component in ex.COMPONENT_NAMES:
            assert got[component] == reference[component], (workers, component)


@needs_compiler
@pytest.mark.skipif(shutil.which("objdump") is None, reason="objdump is not installed")
@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 mnemonics only")
@pytest.mark.parametrize("variant", ["ra", "sn"])
def test_point_loop_is_vectorised(eqset, tmp_path, variant):
    plan = build_plan(eqset, variant, Grid(16).h)
    kernel = cbackend.KernelCache(tmp_path).lookup(plan, 16)
    assert kernel.backend == "c", kernel.reason
    (library,) = tmp_path.glob("*.so")
    listing = subprocess.run(
        ["objdump", "-d", "--disassemble=fd_point", str(library)],
        capture_output=True, text=True, check=True,
    ).stdout
    kinds = re.findall(r"\bv?(?:add|sub|mul|div)([ps])d\b", listing)
    assert kinds.count("p") > 0 and kinds.count("s") == 0, (
        f"{kinds.count('p')} packed, {kinds.count('s')} scalar"
    )


#: sha256 of generate_source(build_plan(eqset, variant, Grid(16).h), 16). A
#: change here changes every kernel-cache key, so the next run of each
#: variant compiles again.
SOURCE_SHA256 = {
    "bl": "8ec3a20f8343f8d1e877364126d8289744cb4cc3beabb62c5e3d632968ae72d7",
    "rs": "f27a500ae77e66a96971d28b1829194dd5e23d0254a86f5eb103380d2d9bb387",
    "ss": "a32df245441159563b0490365b322dc6191353c528285a59ae54ea95f4a7507a",
    "ra": "4ad14a87da719c62be84a178891ab0360292787020894600433d6e5560dc02fc",
    "sn": "c37db1378d730f7dfda92997ca2fc2a1c1b7ce37a535ec2259ae3c3682ce508d",
    "sn2": "89eb8bbca25b7e32a6ae4bee1ed14e9384a68a9b83663ae6a36f11e8abc300b7",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_generated_source_is_pinned(eqset, variant):
    source = cbackend.generate_source(build_plan(eqset, variant, Grid(16).h), 16)
    assert hashlib.sha256(source.encode()).hexdigest() == SOURCE_SHA256[variant]


@needs_compiler
def test_run_builds_the_kernel_before_the_first_record(monkeypatch, tmp_path):
    monkeypatch.setattr(cbackend, "KERNELS", cbackend.KernelCache(tmp_path))
    libraries = {}

    def sink(record):
        libraries[record.iteration] = len(list(tmp_path.glob("*.so")))

    run(RunConfig(n=8, steps=1, policy="sn", repeats=1), record_sink=sink)
    assert libraries == {0: 1, 1: 1}


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
    (library,) = tmp_path.glob("*.so")
    assert doc["kernels"]["sn"]["sha256"] == cbackend._sha256_file(library)


@needs_compiler
def test_second_lookup_does_not_compile(eqset, monkeypatch, tmp_path):
    cache = cbackend.KernelCache(tmp_path)
    calls = _count_compiles(monkeypatch)
    h = Grid(8).h
    first = cache.lookup(build_plan(eqset, "sn", h), 8)
    again = cache.lookup(build_plan(eqset, "sn", h), 8)  # equal, not identical
    assert first.backend == "c" and again is first
    assert len(calls) == 1


@needs_compiler
def test_disk_cache_is_reused_after_memo_cleared(eqset, monkeypatch, tmp_path):
    plan = build_plan(eqset, "sn2", Grid(8).h)
    first = cbackend.KernelCache(tmp_path).lookup(plan, 8)
    calls = _count_compiles(monkeypatch)
    second = cbackend.KernelCache(tmp_path).lookup(plan, 8)
    assert second.backend == "c" and second is not first
    assert second.sha256 == first.sha256
    assert calls == []


@needs_compiler
def test_compiler_error_falls_back(eqset, monkeypatch, tmp_path):
    monkeypatch.setattr(cbackend, "FLAGS", cbackend.FLAGS + ("-fno-such-flag",))
    plan = build_plan(eqset, "ss", Grid(8).h)
    kernel = cbackend.KernelCache(tmp_path).lookup(plan, 8)
    assert kernel.backend == "numpy"
    assert "-fno-such-flag" in kernel.reason
    assert list(tmp_path.iterdir()) == []


def test_source_uses_exact_literals_and_left_folds(eqset):
    source = cbackend.generate_source(build_plan(eqset, "bl", Grid(8).h), 8)
    assert "(0x1.9999999999998p-2)" in source  # gamma - 1, from 0.3999999999999999
    assert "fd_pow2(v_u0)" in source
    assert "((fd_pow2(v_u0) + fd_pow2(v_u1)) + fd_pow2(v_u2))" in source
    assert source.count("void fd_") == 63 + 2
    assert source.count("#pragma omp simd") == 63 + 2  # one i-loop per function


def test_plan_the_generator_cannot_express_runs_on_numpy(eqset, tmp_path):
    # A work statement that taps its own target has no single-pass C form.
    plan = build_plan(eqset, "rs", Grid(8).h)
    primitive, work, *rest = plan.phases
    first = work.statements[0]
    tapped = ex.add(first.expr, ex.array(first.target, (1, 0, 0)))
    tapped_stmt = Statement("array", first.target, tapped)
    work = dataclasses.replace(work, statements=(tapped_stmt,))
    odd = dataclasses.replace(plan, phases=(primitive, work, *rest))
    kernel = cbackend.KernelCache(tmp_path).lookup(odd, 8)
    assert kernel.backend == "numpy"
    assert kernel.reason.startswith("code generation:")
    assert first.target in kernel.reason

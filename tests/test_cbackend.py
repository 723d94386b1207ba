"""Compiled backend: bit-identity with numpy, fallback, and caching."""

import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

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

    def listing(function):
        return subprocess.run(
            ["objdump", "-d", f"--disassemble={function}", str(library)],
            capture_output=True, text=True, check=True,
        ).stdout

    for function in ("fd_point", "fd_update"):
        body = listing(f"{function}_range")
        kinds = re.findall(r"\bv?(?:add|sub|mul|div)([ps])d\b", body)
        assert kinds.count("p") > 0 and kinds.count("s") == 0, (
            f"{function}: {kinds.count('p')} packed, {kinds.count('s')} scalar"
        )
        assert "<GOMP_parallel@plt>" in listing(function), function


def test_compiled_threads_need_no_pool(eqset, monkeypatch, backends):
    # a compiled call threads itself, one call per phase and stage; only
    # the numpy reference fans out, on one pool per worker count
    made = []

    class Counted(exe.ThreadPoolExecutor):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

    def counted(function, name, calls):
        def call(*args):
            calls.append(name)
            return function(*args)

        return call

    monkeypatch.setattr(exe, "ThreadPoolExecutor", Counted)
    grid = Grid(8)
    plan = build_plan(eqset, "bl", grid)  # 65 phases and fd_update
    for backend in backends():
        exe._pool.cache_clear()
        made.clear()
        calls = []
        try:
            bound = exe.bind(plan, _random_store(grid, seed=3), workers=2)
            assert cbackend.KERNELS.lookup(plan).backend == backend
            bound = dataclasses.replace(
                bound,
                phases=tuple(
                    counted(f, p.name, calls) for f, p in zip(bound.phases, plan.phases)
                ),
                update=counted(bound.update, "fd_update", calls),
            )
            for step in (1, 2):
                rk3_step(bound, dt=1e-4, step=step)
        finally:
            exe._pool.cache_clear()
        assert calls == [*(p.name for p in plan.phases), "fd_update"] * 6, backend
        assert made == ([] if backend == "c" else [2]), backend


@needs_compiler
def test_a_smaller_team_still_covers_every_plane():
    # libgomp may make a team smaller than asked (here capped at one
    # thread); the shares follow the team's size, so no plane is skipped
    script = (
        "import hashlib; from fdlab import RunConfig, run\n"
        "store = run(RunConfig(n=8, steps=1, policy='sn', workers=2)).store\n"
        "names = ('rho', 'rhou0', 'rhou1', 'rhou2', 'rhoE')\n"
        "blob = b''.join(store.interior(c).tobytes() for c in names)\n"
        "print(hashlib.sha256(blob).hexdigest())\n"
    )
    src = str(Path(cbackend.__file__).resolve().parents[1])
    env = {**os.environ, "OMP_THREAD_LIMIT": "1", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    store = run(RunConfig(n=8, steps=1, policy="sn", workers=1)).store
    blob = b"".join(store.interior(c).tobytes() for c in ex.COMPONENT_NAMES)
    assert done.stdout.strip() == hashlib.sha256(blob).hexdigest()


@needs_compiler
@pytest.mark.parametrize("variant", [*VARIANTS, "exchange"])
def test_sources_compile_without_warnings(eqset, variant):
    # a malformed clause would otherwise only send the run to numpy
    if variant == "exchange":
        source = cbackend.EXCHANGE_SOURCE
    else:
        source = cbackend.generate_source(build_plan(eqset, variant, Grid(8)))
    done = subprocess.run(
        [cbackend.COMPILER, *cbackend.FLAGS, "-fsyntax-only", "-Wall", "-Wextra",
         "-Werror", "-x", "c", "-"],
        input=source, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


#: sha256 of generate_source(build_plan(eqset, variant, Grid(16))). A
#: change here changes every kernel-cache key, so the next run of each
#: variant compiles again.
SOURCE_SHA256 = {
    "bl": "5d9f72d4c7b274aeeca97c7b9af6f5557d00c138057faecc58f505cf7effb5f7",
    "rs": "c1094889cdd01ca0012382429c1dd78651d7d9628668e0cc72091ba3e75b1a25",
    "ss": "aa5dd0f8e7486e8f6cf884029f9fca3b74692905aaedc7c4eab24f0c2867f271",
    "ra": "200ae9333d411d5928d9504047029023358f1e758c75bbd02e2a2deaf6e0ab93",
    "sn": "0869f86a1a9640ed9a5ca026d0ad0ddc2f1cf2d3031ffca943cfba9c4f5d4500",
    "sn2": "48b96ac9435401f2fcb1db9bcfd4e23c14ef4558a21fcd56ffb0517a4117c417",
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
    assert "-fopenmp" in doc["flags"]
    assert doc["exchange"]["backend"] == "c" and "reason" not in doc["exchange"]
    libraries = {cbackend._sha256_file(path) for path in tmp_path.glob("*.so")}
    assert libraries == {doc["kernels"]["sn"]["sha256"], doc["exchange"]["sha256"]}


@needs_compiler
def test_second_lookup_does_not_compile(eqset, monkeypatch, tmp_path):
    cache = cbackend.KernelCache(tmp_path)
    calls = _count_compiles(monkeypatch)
    grid = Grid(8)
    first = cache.lookup(build_plan(eqset, "sn", grid))
    # equal, not identical: the memo would hand back the same plan
    again = cache.lookup(build_plan.__wrapped__(eqset, "sn", grid))
    assert first.backend == "c" and again is first
    assert len(calls) == 1


def test_an_equal_plan_is_hashed_once_and_finds_the_same_kernel(tmp_path):
    grid = Grid(8)
    plan = build_plan(build_equations(FlowParams()), "ra", grid)
    fresh = build_plan.__wrapped__(build_equations.__wrapped__(FlowParams()), "ra", grid)
    assert fresh is not plan and fresh == plan
    assert hash(fresh) == hash(plan)
    assert vars(fresh)["_hash"] == hash(fresh)  # kept on the plan
    cache = cbackend.KernelCache(tmp_path, MISSING)
    assert cache.lookup(fresh) is cache.lookup(plan)


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
    # 65 phases and fd_update, one i-loop each in its range body and one
    # team in its exported wrapper; only fd_point stores residuals
    assert len(re.findall(r"^(?:long|void) fd_\w+\(double \*const \*A", source, re.M)) == 66
    assert source.count("#pragma omp simd") == 66
    assert source.count("#pragma omp parallel num_threads(threads)") == 66
    assert len(re.findall(r"^static __attribute__\(\(noipa\)\) ", source, re.M)) == 66
    assert source.count("#pragma omp simd reduction(+:nonfinite)") == 1
    assert source.count("num_threads(threads) reduction(+:nonfinite)") == 1
    assert source.count("nonfinite += !__builtin_isfinite(v_res_") == 5
    # fd_primitive counts the points where density or pressure is not positive
    assert source.count("#pragma omp simd reduction(+:nonpositive)") == 1
    assert source.count("num_threads(threads) reduction(+:nonpositive)") == 1
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

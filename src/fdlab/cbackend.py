"""Compiled C backend: one C function per ``plan.phases`` entry, built with gcc.

The generator walks each statement's expression tree the way the numpy
slab evaluator does and writes it as one C expression per statement, so
the compiled kernel performs the same IEEE operations in the same order:

* n-ary sums and products fold left to right with explicit parentheses,
  exactly as ``_SlabEval._fold`` does;
* ``IntPow`` is repeated multiplication, ``(b*b)*b``;
* ``Neg`` is unary minus, ``Div`` is ``/``;
* constants are exact hex literals, rationals converted in Python first.

Compiled without ``-ffast-math`` and with ``-ffp-contract=off`` (gcc
contracts ``a*b + c`` into a fused multiply-add by default, which rounds
once instead of twice), the residuals are bit-identical to numpy's.

The innermost (i) loop carries ``#pragma omp simd``, so gcc vectorises
it. The pragma asserts that iterations are independent, and they are:
every array has one ``restrict`` pointer and ``_Emitter.array`` refuses a
phase that reads its own target before writing it or at an offset, so
each iteration touches only its own point of the arrays it writes. The
only reduction is an integer count (below), which is exact in any
order. Each lane then performs the scalar code's IEEE operations in the
same order, so the bits do not change; a scalar epilogue runs the points
left over when n is not a multiple of the vector width.

Every phase function takes the array of base pointers of the padded
Fortran-order fields, a range ``[k0, k1)`` of interior planes along axis
2 and a thread count. Its loop nest is a static range body,
``{name}_range``; the exported function calls it directly when
``threads <= 1`` and otherwise from each thread of an OpenMP team of
that size (``num_threads`` overrides ``OMP_NUM_THREADS``), each on a
contiguous share of the planes. Every point is computed the same way
whichever thread owns it, so the bits do not depend on the thread count.
A phase function returns how many non-finite values it stored into
residual arrays, tested on the value still in its register, and how
many points have an array of ``phase.positive`` not positive (in
``fd_primitive``, ρ or p), summed over the team. A plan carries the grid
its stencil weights were scaled for, and the generator reads n from it,
so the grid size stays a compile-time constant of the kernel.

The translation unit ends with ``fd_update``, one RK stage's update,
threaded the same way: ``acc = (acc*a_k) + res`` (a copy when a_k is
0), then ``sol = sol + (bdt*acc)``, the numpy reference's operations in
its order. All functions index one pointer table: the plan's arrays,
then the accumulators.

The halo exchange is compiled too, from the fixed translation unit
``EXCHANGE_SOURCE``: ``fd_exchange(f, n)`` makes numpy's per-axis copies
of ``grid.halo_exchange_periodic`` in the same order, so the bytes are
equal. It does not depend on any plan, so one library serves every grid
size, and ``KernelCache.exchange`` builds and loads it like a kernel.

Built libraries are cached on disk under a per-user directory in the
system temp dir, keyed by the sha256 of the generated source plus the
compiler's version line and the flags, and loaded kernels are memoised in
process by plan. When the compiler is missing or fails (a missing
libgomp fails the link), lookup returns a kernel without functions and
the reason why; the executor then runs the numpy reference evaluator.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as ex
from .expr import ZERO_OFFSET
from .grid import ACCUMULATORS, HALO
from .plan import KernelPlan

COMPILER = "gcc"

#: -ffp-contract=off keeps a*b+c as two roundings, as numpy computes it;
#: -fopenmp honours the i-loop's `omp simd` and the threaded wrappers'
#: `omp parallel`, and links libgomp.
FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-fopenmp", "-shared", "-fPIC"
)

# With constant trip counts gcc unrolls small grids' loops completely,
# which tripled bl's compile time at n=8 without making it faster. It
# sits on the j-loop only: gcc accepts one pragma per loop, and the i-loop
# carries `omp simd`.
_NO_UNROLL = "#pragma GCC unroll 1"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class UnsupportedPlan(Exception):
    """The plan needs something the generator cannot express."""


class CompilerUnavailable(Exception):
    """The compiler is missing or failed; the message says why."""


# ---------------------------------------------------------------- codegen


def _literal(value: float) -> str:
    if not np.isfinite(value):
        raise UnsupportedPlan(f"non-finite constant {value!r}")
    return f"({float(value).hex()})"


def _ident(name: str) -> str:
    if not _IDENTIFIER.match(name):
        raise UnsupportedPlan(f"name {name!r} is not a C identifier")
    return name


class _Emitter:
    """C expressions for one phase function over padded stride ``p``."""

    def __init__(self, p: int, pointers: dict[str, int], targets: set[str]):
        self.p = p
        self.pointers = pointers  # array name -> slot in the pointer table
        self.targets = targets  # arrays this phase writes
        self.read: set[str] = set()
        self.in_register: dict[str, str] = {}  # targets written so far
        self.powers: set[int] = set()

    def array(self, name: str, offset) -> str:
        # Every array gets one restrict pointer, so a phase may read what
        # it writes only at the point itself, after writing it.
        if name in self.targets:
            if name not in self.in_register or offset != ZERO_OFFSET:
                raise UnsupportedPlan(
                    f"{name!r} is read at offset {offset} in the phase that"
                    " writes it, before or away from its own write"
                )
            return self.in_register[name]
        if name not in self.pointers:
            raise UnsupportedPlan(f"array {name!r} has no storage")
        self.read.add(name)
        o0, o1, o2 = offset
        shift = o0 + self.p * (o1 + self.p * o2)
        if shift == 0:
            return f"a_{_ident(name)}[c]"
        return f"a_{_ident(name)}[c {'+' if shift > 0 else '-'} {abs(shift)}]"

    def __call__(self, node: ex.Expr) -> str:
        if isinstance(node, ex.Constant):
            return _literal(node.value)
        if isinstance(node, ex.RationalConstant):
            return _literal(node.numerator / node.denominator)
        if isinstance(node, ex.WorkRef):
            return self.array(node.array, node.offset)
        if isinstance(node, ex.LocalRef):
            return f"l_{_ident(node.name)}"
        if isinstance(node, ex.Neg):
            return f"(-{self(node.child)})"
        if isinstance(node, (ex.Add, ex.Mul)):
            op = " + " if isinstance(node, ex.Add) else " * "
            acc = self(node.children[0])
            for child in node.children[1:]:
                acc = f"({acc}{op}{self(child)})"
            return acc
        if isinstance(node, ex.Div):
            return f"({self(node.numerator)} / {self(node.denominator)})"
        if isinstance(node, ex.IntPow):
            if ex.is_constant(node.base):
                return _literal(ex.constant_value(node.base) ** node.exponent)
            self.powers.add(node.exponent)
            return f"fd_pow{node.exponent}({self(node.base)})"
        raise UnsupportedPlan(f"cannot generate code for {node!r}")


def _power_function(exponent: int) -> str:
    steps = "".join("    r = r * b;\n" for _ in range(exponent - 2))
    return (
        f"static inline double fd_pow{exponent}(double b)\n"
        f"{{\n    double r = b * b;\n{steps}    return r;\n}}\n"
    )


def _function(signature, decls, body, n, reduction="") -> str:
    """A C function of `signature` running `body` at every interior point
    of planes [k0, k1), with the point's padded index in ``c``."""
    p = n + 2 * HALO
    origin = HALO * (1 + p + p * p)  # padded index of interior point (0, 0, 0)
    return "\n".join(
        [
            signature,
            "{",
            *decls,
            "    for (long k = k0; k < k1; ++k) {",
            f"        {_NO_UNROLL}",
            f"        for (long j = 0; j < {n}; ++j) {{",
            f"            const long row = {origin} + {p}L * j + {p * p}L * k;",
            f"            #pragma omp simd{reduction}",
            f"            for (long i = 0; i < {n}; ++i) {{",
            "                const long c = row + i;",
            *(f"                {line}" for line in body),
            "            }",
            "        }",
            "    }",
        ]
    )


def _range_signature(returns: str, name: str, params: str) -> str:
    # noipa keeps one copy of the loop nest under its own name, compiled
    # for any range as an exported function is: gcc neither inlines it
    # into the wrapper nor clones it per caller.
    return (
        f"static __attribute__((noipa)) {returns} {name}_range({params},"
        " long k0, long k1)"
    )


def _threaded(returns: str, name: str, params: str, args: str, count=None) -> str:
    """The exported function `name`: its range body ``{name}_range`` over
    planes [k0, k1), called directly when ``threads <= 1`` and otherwise
    once by each thread of an OpenMP team of `threads`, on the thread's
    share of the planes (``executor._spans``' split). The shares follow
    the team's actual size, so every plane is covered when the team
    comes out smaller than asked. `params` and `args` are the parameters
    before k0 and k1; a function that counts returns the sum of its
    bodies' `count`."""
    call = f"{name}_range({args}, "
    direct = (
        [f"        {call}k0, k1);", "        return;"]
        if returns == "void"
        else [f"        return {call}k0, k1);"]
    )
    share = "k0 + (k1 - k0) * t / m, k0 + (k1 - k0) * (t + 1) / m"
    lines = [
        f"{returns} {name}({params}, long k0, long k1, long threads)",
        "{",
        "    if (threads <= 1) {",
        *direct,
        "    }",
    ]
    if count:
        lines.append(f"    long {count} = 0;")
    clause = f" reduction(+:{count})" if count else ""
    lines += [
        f"    #pragma omp parallel num_threads(threads){clause}",
        "    {",
        "        const long t = omp_get_thread_num();",
        "        const long m = omp_get_num_threads();",
        f"        {f'{count} += ' if count else ''}{call}{share});",
        "    }",
    ]
    if returns != "void":
        lines.append(f"    return {count or 0};")
    return "\n".join([*lines, "}", ""])


def _phase_function(phase, n, pointers, powers) -> str:
    """The phase's range body, running its statements at every point of
    planes [k0, k1), and its threaded wrapper; locals and arrays written
    here live in registers. It returns how many non-finite values it
    stored into residual arrays, plus how many points have an array of
    ``phase.positive`` not positive (``!(v > 0)``, so NaN counts)."""
    statements = phase.statements
    emit = _Emitter(n + 2 * HALO, pointers, {s.array for s in statements} - {None})
    # One count per function, named for what fd_primitive and fd_point count.
    count = "nonpositive" if phase.positive else "nonfinite"
    body = []
    written = []
    for stmt in statements:
        value = emit(stmt.expr)
        target = stmt.array
        if target is None:
            body.append(f"const double l_{_ident(stmt.target)} = {value};")
            continue
        register = f"v_{_ident(target)}"
        body.append(f"const double {register} = {value};")
        body.append(f"a_{target}[c] = {register};")
        if stmt.kind == "residual":
            body.append(f"{count} += !__builtin_isfinite({register});")
        emit.in_register[target] = register
        written.append(target)
    if phase.positive:
        tests = [f"!({emit.array(a, ZERO_OFFSET)} > 0.0)" for a, _ in phase.positive]
        body.append(f"{count} += {' | '.join(tests)};")
    powers |= emit.powers
    decls = [
        f"    const double *restrict a_{array} = A[{pointers[array]}];"
        for array in sorted(emit.read, key=pointers.get)
    ] + [f"    double *restrict a_{t} = A[{pointers[t]}];" for t in written]
    counted = phase.positive or any(s.kind == "residual" for s in statements)
    return "\n".join(
        [
            _function(
                _range_signature("long", phase.name, "double *const *A"),
                [*decls, f"    long {count} = 0;"],
                body,
                n,
                f" reduction(+:{count})" if counted else "",
            ),
            f"    return {count};",
            "}",
            "",
            _threaded(
                "long", phase.name, "double *const *A", "A", count if counted else None
            ),
        ]
    )


def _pointer_table(plan: KernelPlan) -> tuple[str, ...]:
    """The arrays every function of the plan's kernel indexes, by slot:
    the plan's arrays, then the RK accumulators."""
    return (*plan.arrays, *ACCUMULATORS)


def _update_function(n, pointers) -> str:
    """``fd_update`` and its range body: one RK stage's update at every
    point of planes [k0, k1), with the numpy reference's operations in
    its order:
    ``acc = (acc*a_k) + res`` (a copy when a_k is 0), then
    ``sol = sol + (bdt*acc)``."""
    decls = []
    for prefix in ("", "res_", "acc_"):
        const = "const " if prefix == "res_" else ""
        for array in (prefix + name for name in ex.COMPONENT_NAMES):
            decls.append(f"    {const}double *restrict a_{array} = A[{pointers[array]}];")
    body = []
    for name in ex.COMPONENT_NAMES:
        body += [
            f"const double s_{name} = a_k == 0.0 ? a_res_{name}[c]"
            f" : ((a_acc_{name}[c] * a_k) + a_res_{name}[c]);",
            f"a_acc_{name}[c] = s_{name};",
            f"a_{name}[c] = (a_{name}[c] + (bdt * s_{name}));",
        ]
    params = "double *const *A, double a_k, double bdt"
    signature = _range_signature("void", "fd_update", params)
    return "\n".join(
        [
            _function(signature, decls, body, n),
            "}",
            "",
            _threaded("void", "fd_update", params, "A, a_k, bdt"),
        ]
    )


def generate_source(plan: KernelPlan) -> str:
    """The complete C translation unit for the plan on its n^3 grid."""
    n = plan.grid.n
    table = _pointer_table(plan)
    pointers = {name: slot for slot, name in enumerate(table)}
    powers: set[int] = set()
    functions = [
        _phase_function(phase, n, pointers, powers)
        for phase in plan.phases
    ] + [_update_function(n, pointers)]
    header = (
        f"/* fdlab kernel: policy {plan.policy}, n={n}, h={plan.grid.h!r}.\n"
        f"   Pointer table: {' '.join(table)} */\n"
        "#include <omp.h>\n"
    )
    return "\n".join(
        [header, *(_power_function(e) for e in sorted(powers)), *functions]
    )


#: ``fd_exchange(f, n)``: ``grid.halo_exchange_periodic`` of one cubic
#: padded Fortran-order field of n >= HALO interior points per axis, the
#: numpy loop's copies in its order. Axis 0 fills the halos of the
#: interior (j, k) rows only and axis 1 those of the interior k planes,
#: because the later axes overwrite the rest with copies of these.
EXCHANGE_SOURCE = f"""/* fdlab periodic halo exchange, halo width {HALO}. */
#include <string.h>

#define H {HALO}L

void fd_exchange(double *f, long n)
{{
    const long p = n + 2 * H;
    const long plane = p * p;
    for (long k = H; k < n + H; ++k) {{
        for (long j = H; j < n + H; ++j) {{
            double *row = f + p * j + plane * k;
            memcpy(row, row + n, H * sizeof *f);
            memcpy(row + n + H, row + H, H * sizeof *f);
        }}
    }}
    for (long k = H; k < n + H; ++k) {{
        double *slab = f + plane * k;
        memcpy(slab, slab + p * n, H * p * sizeof *f);
        memcpy(slab + p * (n + H), slab + p * H, H * p * sizeof *f);
    }}
    memcpy(f, f + plane * n, H * plane * sizeof *f);
    memcpy(f + plane * (n + H), f + plane * H, H * plane * sizeof *f);
}}
"""


# ---------------------------------------------------------------- building


@functools.cache
def compiler_version(compiler: str) -> str:
    """First line of `compiler --version`; raises CompilerUnavailable."""
    try:
        done = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.SubprocessError) as err:
        raise CompilerUnavailable(f"{compiler} --version failed: {err}") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise CompilerUnavailable(
            f"{compiler} --version exited {done.returncode}: {done.stderr.strip()}"
        )
    return done.stdout.splitlines()[0].strip()


def _compile(compiler: str, source_path: Path, library_path: Path) -> None:
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", str(library_path), str(source_path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
    except (OSError, subprocess.SubprocessError) as err:
        raise CompilerUnavailable(f"{compiler} failed to run: {err}") from None
    if done.returncode != 0:
        lines = (done.stderr or done.stdout).strip().splitlines()
        raise CompilerUnavailable(
            f"{compiler} exited {done.returncode}: " + " | ".join(lines[:5])
        )


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def default_cache_dir() -> Path:
    return Path(tempfile.gettempdir()) / f"fdlab-kernels-{os.getuid()}"


@dataclass
class Kernel:
    """A plan's compiled phase functions, or the reason there are none.

    ``functions`` follow ``plan.phases`` and ``update`` is ``fd_update``,
    all indexing ``table``; None means the numpy reference evaluator and
    update run this plan, and ``reason`` says why.
    """

    policy: str
    n: int
    table: tuple[str, ...] = ()
    functions: tuple | None = None
    update: object = None
    sha256: str | None = None
    reason: str | None = None

    @property
    def backend(self) -> str:
        return "numpy" if self.functions is None else "c"

    def pointers(self, arrays: dict[str, np.ndarray]):
        """The kernel's pointer table in these padded arrays, after
        checking that each one has the layout the compiled code indexes."""
        shape = (self.n + 2 * HALO,) * 3
        table = (ctypes.c_void_p * len(self.table))()
        for slot, name in enumerate(self.table):
            array = arrays[name]
            if array.dtype != np.float64 or array.shape != shape or not (
                array.flags.f_contiguous and array.flags.writeable
            ):
                raise ValueError(
                    f"field {name!r} is not a writable Fortran-order float64"
                    f" array of shape {shape}"
                )
            table[slot] = array.ctypes.data
        return table


@dataclass
class Exchange:
    """The loaded ``fd_exchange``, or the reason there is none, in which
    case ``grid.halo_exchange_periodic`` runs its numpy loop."""

    function: object = None
    sha256: str | None = None
    reason: str | None = None

    @property
    def backend(self) -> str:
        return "numpy" if self.function is None else "c"


class KernelCache:
    """Loaded kernels by plan, backed by a directory of libraries.

    A plan carries its grid, so it is the whole key. The plan hashes its
    tree once, and ``build_plan`` hands every run the same plan object,
    so a lookup finds its key by identity; a fresh but equal plan is
    hashed once and then compared node by node, about a millisecond.
    """

    def __init__(self, directory: Path | None = None, compiler: str = COMPILER):
        self._directory = Path(directory) if directory else None
        self.compiler = compiler
        self._kernels: dict[KernelPlan, Kernel] = {}
        self._exchange: Exchange | None = None
        self._lock = threading.Lock()

    @property
    def directory(self) -> Path:
        # Resolved on first use: gettempdir() probes the disk.
        if self._directory is None:
            self._directory = default_cache_dir()
        return self._directory

    def lookup(self, plan: KernelPlan) -> Kernel:
        with self._lock:
            kernel = self._kernels.get(plan)
            if kernel is None:
                kernel = self._load(plan)
                self._kernels[plan] = kernel
        return kernel

    def exchange(self) -> Exchange:
        """The compiled halo exchange, built or loaded on first use."""
        exchange = self._exchange
        if exchange is None:
            with self._lock:
                if self._exchange is None:
                    self._exchange = self._load_exchange()
                exchange = self._exchange
        return exchange

    def _load_exchange(self) -> Exchange:
        try:
            library, library_path = self._library(EXCHANGE_SOURCE)
        except (CompilerUnavailable, OSError) as err:
            return Exchange(reason=str(err))
        function = library.fd_exchange
        function.argtypes = (ctypes.c_void_p, ctypes.c_long)
        function.restype = None
        return Exchange(function, _sha256_file(library_path))

    def _load(self, plan: KernelPlan) -> Kernel:
        kernel = Kernel(plan.policy, plan.grid.n)
        try:
            source = generate_source(plan)
        except UnsupportedPlan as err:
            kernel.reason = f"code generation: {err}"
            return kernel
        try:
            library, library_path = self._library(source)
        except (CompilerUnavailable, OSError) as err:
            kernel.reason = str(err)
            return kernel
        functions = []
        for phase in plan.phases:
            function = getattr(library, phase.name)
            function.argtypes = (ctypes.c_void_p, *(ctypes.c_long,) * 3)
            function.restype = ctypes.c_long
            functions.append(function)
        update = library.fd_update
        update.argtypes = (
            ctypes.c_void_p, ctypes.c_double, ctypes.c_double, *(ctypes.c_long,) * 3
        )
        update.restype = None
        kernel.table = _pointer_table(plan)
        kernel.functions = tuple(functions)
        kernel.update = update
        kernel.sha256 = _sha256_file(library_path)
        return kernel

    def _library(self, source: str) -> tuple[ctypes.CDLL, Path]:
        """The loaded library of `source` and its path; raises
        CompilerUnavailable or OSError."""
        library_path = self._build(source, compiler_version(self.compiler))
        return ctypes.CDLL(str(library_path)), library_path

    def _build(self, source: str, version: str) -> Path:
        """Path of the cached library for `source`, compiling it if absent.

        The key covers the source, the compiler's version line and the
        flags. A build goes to a temporary name and is renamed into place,
        so concurrent builders never load a half-written library.
        """
        key = hashlib.sha256(
            "\0".join([source, version, " ".join(FLAGS)]).encode()
        ).hexdigest()
        self.directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if self.directory.stat().st_uid != os.getuid():
            # Loading a library someone else could write would run their code.
            raise CompilerUnavailable(f"cache {self.directory} belongs to another user")
        library_path = self.directory / f"{key}.so"
        if library_path.exists():
            return library_path
        fd, temp = tempfile.mkstemp(prefix=key[:16], suffix=".c", dir=self.directory)
        source_path = Path(temp)
        temp_library = source_path.with_suffix(".so")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            _compile(self.compiler, source_path, temp_library)
            os.replace(source_path, library_path.with_suffix(".c"))
            os.replace(temp_library, library_path)
        finally:
            source_path.unlink(missing_ok=True)
            temp_library.unlink(missing_ok=True)
        return library_path

    def describe(self, plans) -> dict:
        """Provenance of the kernels that ran the given plans, and of the
        halo exchange; plans never looked up are left out, and the
        exchange is None when it was never loaded."""
        kernels = {}
        for plan in plans:
            with self._lock:
                kernel = self._kernels.get(plan)
            if kernel is None:
                continue
            kernels[kernel.policy] = {"n": kernel.n, **_provenance(kernel)}
        try:
            version = compiler_version(self.compiler)
        except CompilerUnavailable:
            version = None
        reasons = [k["reason"] for k in kernels.values() if "reason" in k]
        exchange = self._exchange
        return {
            "ran": "+".join(sorted({k["backend"] for k in kernels.values()})) or "none",
            "compiler": version,
            "flags": list(FLAGS),
            "cache_dir": str(self.directory),
            "kernels": kernels,
            "fallback_reason": reasons[0] if reasons else None,
            "exchange": None if exchange is None else _provenance(exchange),
        }


def _provenance(loaded: Kernel | Exchange) -> dict:
    """Which backend runs `loaded`, and its library's sha256 or the
    reason it fell back to numpy."""
    entry = {"backend": loaded.backend}
    if loaded.sha256:
        entry["sha256"] = loaded.sha256
    if loaded.reason:
        entry["reason"] = loaded.reason
    return entry


#: The process-wide cache that executor.bind looks kernels up in and
#: grid.halo_exchange_periodic its exchange.
KERNELS = KernelCache()

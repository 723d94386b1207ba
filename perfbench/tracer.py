"""Spans and call counts recorded around fdlab's module-level functions.

The program looks these functions up by module-global name at call time,
so replacing the module attribute for the duration of a run puts a
wrapper on every call without touching the program's code. Each wrapper
is removed again when its context ends, so untraced runs execute the
original functions.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

#: (module, attribute) pairs the traced run wraps. The span name is
#: "<module>.<attribute>", so the module is the layer.
TRACED = (
    ("solver", "build_equations"),
    ("solver", "build_plan"),
    ("solver", "init_tgv"),
    ("solver", "compute_timestep"),
    ("solver", "rk3_step"),
    ("solver", "execute_plan"),
    ("solver", "monitor_sample"),
    ("grid", "halo_exchange_periodic"),
)


@contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace fdlab.<module_name>.<attr> by make_wrapper(original) for the
    duration of the context, restoring the original even on error."""
    module = importlib.import_module(f"fdlab.{module_name}")
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class ExchangeCounter:
    """Counts halo exchanges. It reads no clock, so it stays installed for
    untraced runs too, where it feeds the exact exchange-count check."""

    def __init__(self):
        self.count = 0

    def _wrap(self, original):
        @functools.wraps(original)
        def counted(field_array):
            self.count += 1
            return original(field_array)

        return counted

    def installed(self):
        return patched("grid", "halo_exchange_periodic", self._wrap)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; a span's parent is the span that was
    open on the same thread when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name, attrs)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _wrapper(self, name: str):
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return traced

        return make

    @contextmanager
    def installed(self):
        """Wrap every TRACED function until the context ends."""
        with ExitStack() as stack:
            for module_name, attr in TRACED:
                stack.enter_context(
                    patched(module_name, attr, self._wrapper(f"{module_name}.{attr}"))
                )
            yield self

    def children(self) -> dict[int | None, list[Span]]:
        index: dict[int | None, list[Span]] = {}
        for span in self.spans:
            index.setdefault(span.parent, []).append(span)
        return index


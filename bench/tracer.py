"""Out-of-program span tracer for taxisim.

The tracer wraps public taxisim functions at the module attributes through
which the package itself calls them ("import sites"), so the program under
test is not edited. Each call becomes a span (name, start, end, parent,
thread) on a thread-local stack; spans are kept in memory and written out
once, at the end of a benchmark run.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# (module of taxisim, attribute, layer). A span is named "<module>.<attribute>"
# after its call site; its layer is the module that owns the called function,
# so time spent inside grid stencils counts for grid wherever they are called.
SITES = (
    ("cli", "run", "stepper"),
    ("cli", "run_sweep", "sweep"),
    ("sweep", "run", "stepper"),
    ("stepper", "step", "stepper"),
    ("stepper", "stable_dt", "stepper"),
    ("stepper", "laplacian", "grid"),
    ("stepper", "gradient", "grid"),
    ("stepper", "rhs_u", "model"),
    ("model", "laplacian", "grid"),
    ("model", "taxis_divergence", "grid"),
    ("diagnostics", "record", "diagnostics"),
    ("diagnostics", "laplacian", "grid"),
    ("cli", "classify", "diagnostics"),
    ("sweep", "classify", "diagnostics"),
    ("cli", "write_timeseries", "fileio"),
    ("cli", "write_sweep_table", "fileio"),
)

# The benchmark opens one root span per CLI command; its self time is the
# cli layer (argument parsing, config loading, printing).
ROOT = "cli.main"
LAYER_OF = {f"{mod}.{attr}": layer for mod, attr, layer in SITES}
LAYER_OF[ROOT] = "cli"

# Scalar results kept on the span: the step size stable_dt proposed and the
# step size step finally took. Their ratio gives the dt halvings.
_VALUE_OF = {
    "stepper.stable_dt": float,
    "stepper.step": lambda state: float(state.last_dt),
}


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "start", "end", "value")

    def __init__(self, sid, parent, name, thread, start, end=0.0, value=None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.value = value

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records a span called name."""
        value_of = _VALUE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].sid if stack else None
            span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if value_of is not None:
                span.value = value_of(result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers at every site in SITES; restore on exit."""
        saved = []
        try:
            for mod_name, attr, _ in SITES:
                module = importlib.import_module(f"taxisim.{mod_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{mod_name}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("sid", "parent", "name", "thread", "start", "end", "value"))
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.writerow((s.sid, "" if s.parent is None else s.parent, s.name,
                              s.thread, repr(s.start), repr(s.end),
                              "" if s.value is None else repr(s.value)))


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_length(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }

"""Spans around the calls into each spectra-cert module, recorded from outside.

Wrappers replace a public function at every module attribute that holds it
(``birman_schwinger.largest_singular_value`` as well as
``numerics.largest_singular_value``), because callers look the name up in
their own module.  Spans are kept in memory; ``Recorder.spans`` is written out
by the worker when the run ends.  A target missing from the package is
reported as absent, not as an error, so the trace keeps working after a later
change deletes a function.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

PACKAGE_MODULES = (
    "cli",
    "conditions",
    "birman_schwinger",
    "spectral",
    "multipliers",
    "numerics",
    "potentials",
)

# (home module, public function, is a generator whose next() calls are timed)
TARGETS = (
    ("cli", "run", False),
    ("cli", "parse_config", False),
    ("conditions", "build_report", False),
    ("conditions", "rollnik_norm", False),
    ("conditions", "frank_l32", False),
    ("conditions", "subordination_a_pointwise", False),
    ("conditions", "lambda_constant", False),
    ("conditions", "b_constants", False),
    ("birman_schwinger", "sector_matrices", True),
    ("birman_schwinger", "assemble_bs", False),
    ("birman_schwinger", "hs_norm", False),
    ("numerics", "largest_singular_value", False),
    ("numerics", "smallest_singular_value", False),
    ("numerics", "eig_complex", False),
    ("spectral", "discretize_radial", False),
    ("spectral", "spectrum", False),
    ("spectral", "pseudospectrum", False),
    ("spectral", "singular_sequence_decay", False),
    ("multipliers", "identity_term_rows", False),
    ("multipliers", "radi_identity_terms", False),
    ("multipliers", "magnetic_identity_smoke", False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 at top level
    job: str


class Recorder:
    """In-memory span list with a stack that links each span to its caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.items: dict[str, int] = {}
        self.job = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time each next() of the generator as one span; count the items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.items[name] = self.items.get(name, 0) + 1
                yield item

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed seconds, call count and self seconds.

        Self time is a span's duration minus the durations of its children;
        the package is single-threaded at the Python level, so children never
        overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            dur = span.end - span.start
            entry["s"] += dur
            entry["calls"] += 1
            entry["self_s"] += dur - child_time[i]
        return out


def patch_everywhere(
    modules: dict[str, ModuleType], home: str, attr: str, make: Callable[[Callable], Callable]
) -> list[tuple[ModuleType, str, Callable]]:
    """Replace ``home.attr`` at every module attribute bound to it.

    Returns the (module, name, original) triples to restore, or an empty list
    when the target does not exist.
    """
    original = getattr(modules[home], attr, None)
    if original is None:
        return []
    wrapper = make(original)
    patched = []
    for mod in modules.values():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                patched.append((mod, name, original))
    return patched


def restore(patched: list[tuple[ModuleType, str, Callable]]) -> None:
    for mod, name, original in reversed(patched):
        setattr(mod, name, original)


def install(recorder: Recorder, modules: dict[str, ModuleType]):
    """Wrap every target; returns (absent target names, patches to restore)."""
    absent: list[str] = []
    patched: list[tuple[ModuleType, str, Callable]] = []
    for home, attr, is_generator in TARGETS:
        name = f"{home}.{attr}"
        wrap = recorder.wrap_generator if is_generator else recorder.wrap
        done = patch_everywhere(modules, home, attr, lambda fn, n=name, w=wrap: w(n, fn))
        if done:
            patched.extend(done)
        else:
            absent.append(name)
    return absent, patched

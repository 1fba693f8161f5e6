"""Spans recorded around calls into the library, and their per-layer sums.

The benchmark never edits library source.  It wraps the functions that
``deformed_lindblad.runner`` imports from the other modules (plus
``dissipator.validate_density``, which ``integrate`` calls through its
module globals) for the length of a traced run, and it wraps the calls its
own workload code makes.  Every span keeps its name, start, end, parent and
case id in memory; nothing is written until the run ends.

A span's layer is the library module its function lives in (``phasespace``,
``dissipator``, ``coherent_states``, ``morse``, ``runner``); spans the
benchmark opens around a whole case belong to the ``bench`` layer.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

PACKAGE = "deformed_lindblad"
BENCH_LAYER = "bench"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str


def layer_of(name: str) -> str:
    """Layer part of a span name such as ``phasespace.wigner_closed``."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.case))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch the runner's imported library functions for the duration."""
        from deformed_lindblad import dissipator, runner

        patched: list[tuple[object, str, object]] = []
        for name, obj in list(vars(runner).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith(PACKAGE + ".")
                and obj.__module__ != runner.__name__
            ):
                patched.append((runner, name, obj))
        patched.append((dissipator, "validate_density", dissipator.validate_density))
        try:
            for module, name, obj in patched:
                setattr(module, name, self.wrap(obj))
            yield
        finally:
            for module, name, obj in reversed(patched):
                setattr(module, name, obj)


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered((s.start, s.end), kids)
        for s, kids in zip(spans, children)
    ]


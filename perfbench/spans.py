"""In-memory spans recorded around calls into a package, from outside it.

`instrument` swaps the module and class attributes that callers look up for
timing wrappers and puts every original back when it exits, also when the
traced code raises. The traced package's files never change.

A span records its name, start, end and the span that was open when it
started (its parent). A span's self time is its duration minus the summed
durations of its child spans; spans are kept per thread, so children never
overlap within one stack.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans and per-name call, total and self time while active."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.stats: dict[str, LayerStats] = {}
        self.counts: Counter[str] = Counter()
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> list:
        """Open a span; returns the frame `exit` closes."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        # [id, parent id, start, summed child durations]
        frame = [next(self._ids), parent, 0.0, 0.0]
        stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[3]
        self.spans.append((frame[0], frame[1], name, frame[2], end))

    @contextmanager
    def span(self, name: str):
        frame = self.enter()
        try:
            yield
        finally:
            self.exit(frame, name)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced and their time counts nowhere."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def self_time_sum(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def write(self, path: Path) -> None:
        """One JSON list per span: id, parent id, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


@dataclass(frozen=True)
class Layer:
    """One function or method to time.

    `owner` is the module or class that defines `attr`. For a module-level
    function, every already-imported module of the package that holds the same
    object under the same name is patched too, since that is where its callers
    look it up. `name_of` may pick the span name from the call's arguments;
    `before` and `after` may count work from the arguments and the result.
    An `after` hook runs inside a `trace.bookkeeping` span, so its own cost
    is not charged to the caller's self time.
    """

    owner: Any
    attr: str
    name: str
    name_of: Callable[[dict], str] | None = None
    before: Callable[[Tracer, dict], None] | None = None
    after: Callable[[Tracer, dict, Any], None] | None = None


def _wrap(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    signature = inspect.signature(fn)
    needs_args = layer.name_of or layer.before or layer.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs).arguments if needs_args else {}
        name = layer.name_of(bound) if layer.name_of else layer.name
        if layer.before:
            layer.before(tracer, bound)
        frame = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, name)
        if layer.after:
            with tracer.span("trace.bookkeeping"):
                layer.after(tracer, bound, result)
        return result

    return wrapper


def _sites(layer: Layer, package: str) -> list[Any]:
    """Every object whose attribute `layer.attr` callers may look up."""
    original = layer.owner.__dict__[layer.attr]
    if inspect.isclass(layer.owner):
        return [layer.owner]
    return [m for m in _package_modules(package) if m.__dict__.get(layer.attr) is original]


def _package_modules(package: str) -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


@contextmanager
def instrument(tracer: Tracer, layers: list[Layer], package: str):
    """Wrap every layer's call sites for the duration of the block.

    On exit every original attribute is put back, also when the block
    raises. A wrapper still reachable afterwards, from a patched class or
    from any module of the package (one imported during the block may have
    bound it), raises RuntimeError.
    """
    saved: list[tuple[Any, str, Any]] = []
    wrappers: set[int] = set()
    try:
        for layer in layers:
            wrapper = _wrap(tracer, layer, layer.owner.__dict__[layer.attr])
            wrappers.add(id(wrapper))
            for site in _sites(layer, package):
                saved.append((site, layer.attr, site.__dict__[layer.attr]))
                setattr(site, layer.attr, wrapper)
        yield
    finally:
        for site, attr, original in reversed(saved):
            setattr(site, attr, original)
        owners = _package_modules(package) + [s for s, _, _ in saved if inspect.isclass(s)]
        left = sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners
            for attr, value in list(vars(owner).items())
            if id(value) in wrappers
        )
        if left:
            raise RuntimeError(f"wrapped attributes not restored: {left}")

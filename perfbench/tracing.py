"""Spans and counts recorded from outside the program.

A ``Tracer`` replaces module and class attributes of ``autotier`` with
wrappers for as long as it is installed, and puts every original back on
exit. It wraps the binding the caller looks up at call time (for example
``autotier.calibration.collect_samples``, which ``run_session`` resolves
through its module globals), so nothing under ``src/`` changes. A layer
whose attribute no longer exists is recorded as absent, not as an error.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# (args, kwargs, result) -> amount added to the layer's counter.
Tally = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # dotted below the module, e.g. "AutoTieringPolicy.on_monitor"
    name: str  # span name, or counter name when ``span`` is False
    span: bool = True
    counter: str | None = None
    tally: Tally | None = None


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top level

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(layer: Layer) -> tuple[Any, str]:
    """Owner object and attribute name; AttributeError/ImportError if gone."""
    owner: Any = importlib.import_module(layer.module)
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """Install wrappers for ``layers`` on enter; restore the originals on exit."""

    def __init__(self, layers: tuple[Layer, ...]):
        self.layers = layers
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer in self.layers:
                try:
                    owner, attr = _resolve(layer)
                except (ImportError, AttributeError):
                    self.absent.append(f"{layer.module}.{layer.attr}")
                    continue
                original = getattr(owner, attr)
                wrapper = self._span_wrapper(layer, original) if layer.span else (
                    self._count_wrapper(layer.name, original)
                )
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(layer.name, start, end, parent)
            if layer.tally is not None:
                counts[layer.counter] += layer.tally(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def finished_spans(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return list(self.spans)  # type: ignore[arg-type]


@dataclass
class LayerTotals:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: total seconds, self seconds (minus child spans) and calls."""
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s, children in zip(spans, child_seconds):
        t = out[s.name]
        t.seconds += s.seconds
        t.self_seconds += s.seconds - children
        t.calls += 1
    return out


def write_spans(spans: list[Span], path) -> None:
    """One CSV line per span: name, start, end (seconds since the first span), parent."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        f.write("index,name,start_s,end_s,parent\n")
        for i, s in enumerate(spans):
            f.write(f"{i},{s.name},{s.start - origin:.9f},{s.end - origin:.9f},{s.parent}\n")

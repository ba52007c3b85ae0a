"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of ``nullsol`` at the module attribute
where the calling code looks them up (``nullsol.variety.enclose`` is what
``subdivision_search`` calls, for example) and restores them afterwards.
It never edits the program.  A wrap point whose module or attribute is
missing is skipped; a layer with no wrap point left is reported absent.

A span records name, layer, start, end, parent span and input id; self
time is its duration minus the durations of its child spans.  Calls to
the two hottest leaves (interval enclosure and lattice frequency
vectors) are not stored one by one: their count and time are added to
the enclosing span, which keeps memory flat however many boxes a run
processes.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class WrapPoint:
    layer: str
    module: str
    attr: str             # "name" or "Class.method"
    leaf: bool = False    # aggregate calls instead of storing spans


WRAP_POINTS = (
    WrapPoint("cli", "nullsol.cli", "main"),
    WrapPoint("parser", "nullsol.cli", "parse"),
    WrapPoint("parser", "nullsol.cli", "print_canonical"),
    WrapPoint("classifier", "nullsol.cli", "classify"),
    WrapPoint("lattice", "nullsol.cli", "periodic_test"),
    WrapPoint("lattice", "nullsol.classifier", "LatticeSpec.frequency_vector", leaf=True),
    WrapPoint("symbols", "nullsol.cli", "x_content"),
    WrapPoint("symbols", "nullsol.classifier", "x_content"),
    WrapPoint("symbols", "nullsol.classifier", "imaginary_slice"),
    WrapPoint("symbols", "nullsol.classifier", "degree_test"),
    WrapPoint("symbols", "nullsol.classifier", "restrict_to_time"),
    WrapPoint("emptiness", "nullsol", "decide_emptiness"),
    WrapPoint("emptiness", "nullsol.classifier", "decide_emptiness"),
    WrapPoint("groebner", "nullsol.variety", "unit_ideal_test"),
    WrapPoint("boundedness", "nullsol.variety", "boundedness_radius"),
    WrapPoint("boundedness", "nullsol.classifier", "boundedness_radius"),
    WrapPoint("subdivision", "nullsol.variety", "subdivision_search"),
    WrapPoint("intervals", "nullsol.variety", "enclose", leaf=True),
    WrapPoint("witness", "nullsol.classifier", "build_witness"),
    WrapPoint("witness", "nullsol.classifier", "build_periodic_witness"),
    WrapPoint("witness", "nullsol.cli", "build_witness"),
    WrapPoint("witness", "nullsol.cli", "verify_residual"),
)

# The benchmark's own span around each input (call plus serialization).
ROOT = "input"


@dataclass
class _Frame:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    child_s: float = 0.0


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    input_id: int
    self_s: float


@dataclass
class Tracer:
    points: tuple[WrapPoint, ...] = WRAP_POINTS
    spans: list[Span] = field(default_factory=list)
    leaf_calls: Counter = field(default_factory=Counter)
    leaf_s: Counter = field(default_factory=Counter)
    results: dict[str, list] = field(default_factory=dict)  # per layer
    present: set[str] = field(default_factory=set)
    input_id: int = -1
    _next_id: int = 0
    _stack: list[_Frame] = field(default_factory=list)
    _restore: list = field(default_factory=list)

    @property
    def layers(self) -> list[str]:
        return sorted({p.layer for p in self.points} | {ROOT})

    @property
    def absent(self) -> list[str]:
        return [layer for layer in self.layers if layer != ROOT and layer not in self.present]

    # -- installing wrappers -------------------------------------------

    def install(self) -> None:
        for point in self.points:
            owner, name, original = _resolve(point)
            if original is None:
                continue
            wrapper = self._leaf(point, original) if point.leaf else self._span(point, original)
            setattr(owner, name, wrapper)
            self._restore.append((owner, name, original))
            self.present.add(point.layer)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def open(self, name: str, layer: str) -> None:
        parent = self._stack[-1].id if self._stack else None
        self._stack.append(_Frame(self._next_id, name, layer, time.perf_counter(), parent))
        self._next_id += 1

    def close(self) -> float:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans.append(Span(frame.id, frame.name, frame.layer, frame.start, end,
                               frame.parent, self.input_id, duration - frame.child_s))
        return duration

    def _span(self, point: WrapPoint, original):
        name = f"{point.module}.{point.attr}"
        results = self.results.setdefault(point.layer, [])

        def traced(*args, **kwargs):
            self.open(name, point.layer)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close()
            results.append(_summary(out))
            return out
        return traced

    def _leaf(self, point: WrapPoint, original):
        layer = point.layer

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                if self._stack:
                    self._stack[-1].child_s += duration
                self.leaf_calls[layer] += 1
                self.leaf_s[layer] += duration
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self._next_id = 0
        self.leaf_calls.clear()
        self.leaf_s.clear()
        for results in self.results.values():
            results.clear()

    # -- summaries ---------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Self time per layer; leaf time counts for the leaf's layer."""
        out: Counter = Counter()
        for span in self.spans:
            out[span.layer] += span.self_s
        out.update(self.leaf_s)
        return out

    def calls(self) -> Counter:
        out = Counter(span.layer for span in self.spans)
        out.update(self.leaf_calls)
        return out

    def inclusive_seconds(self, layer: str) -> float:
        """Time inside outermost spans of a layer, children included."""
        by_id = {span.id: span for span in self.spans}

        def nested(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.layer == layer:
                    return True
                parent = by_id.get(parent.parent)
            return False

        return sum(span.end - span.start for span in self.spans
                   if span.layer == layer and not nested(span))

    def results_of(self, layer: str) -> list:
        """Summaries of the results the layer's wrapped calls returned."""
        return self.results.get(layer, [])


def _summary(out):
    """What the layer metrics need from a result, without keeping it alive
    (a subdivision result can hold thousands of boxes)."""
    stats = getattr(out, "stats", None)
    if isinstance(stats, dict):
        return getattr(out, "kind", None), dict(stats)
    if out is None or isinstance(out, (bool, int, Fraction)):
        return out
    return type(out).__name__


def _resolve(point: WrapPoint):
    """(owner, attribute name, current value), or a None value if missing."""
    try:
        owner = importlib.import_module(point.module)
    except ImportError:
        return None, None, None
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, name, None)
    if not callable(original):
        return None, None, None
    return owner, name, original

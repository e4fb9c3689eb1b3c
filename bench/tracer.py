"""In-memory span recorder that wraps phasebal's public names from outside.

``Tracer.install`` replaces each ``(module, attribute)`` target with a
wrapper that records one span per call: name, start, end, parent span and
pass id. Targets that no longer exist are listed in ``missing`` and skipped,
so a refactor that removes or stops calling a function turns its metrics
into zeros instead of crashing the run. The wrappers only observe: they pass
arguments and results through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "pass_id", "parent", "start", "end", "attrs")

    def __init__(self, name: str, pass_id: str, parent: int) -> None:
        self.name = name
        self.pass_id = pass_id
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.pass_id, self.parent, self.start, self.end, self.attrs]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        """``targets``: iterable of (module, attribute, span name, annotate),
        where ``annotate(args, kwargs, result) -> dict`` may be None."""
        self.missing = []
        for module_name, attr, span_name, annotate in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name, annotate))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.pass_id, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                try:
                    span.attrs.update(annotate(args, kwargs, result))
                except Exception:  # an annotation must never break the traced call
                    span.attrs["annotate_failed"] = True
            return result

        return traced


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class SpanView:
    """Aggregates over one pass's spans.

    Totals count only the outermost span of a name, so a function reached
    through two wrapped names is not counted twice. Self time is a span's
    duration minus the durations of its direct children, which do not
    overlap because the program is single-threaded.
    """

    def __init__(self, spans: list[Span], indices: list[int]) -> None:
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_time: dict[int, float] = defaultdict(float)
        for i in indices:
            span = spans[i]
            if not self._nested_in_same_name(i):
                self.by_name[span.name].append(i)
            if span.parent >= 0:
                self.child_time[span.parent] += span.duration

    def _nested_in_same_name(self, i: int) -> bool:
        name, parent = self.spans[i].name, self.spans[i].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.by_name.get(name, ()))

    def self_time(self, name: str) -> float:
        return sum(
            self.spans[i].duration - self.child_time.get(i, 0.0) for i in self.by_name.get(name, ())
        )

    def durations(self, name: str) -> list[float]:
        return [self.spans[i].duration for i in self.by_name.get(name, ())]

    def attr_sum(self, name: str, key: str) -> float:
        return sum(self.spans[i].attrs.get(key, 0) for i in self.by_name.get(name, ()))

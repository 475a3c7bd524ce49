"""Spans around the public functions of the `psmsynth` modules.

`Tracer.install` rebinds every public function defined in a traced module to
a timing wrapper, in that module and in every other traced module that
imported it by name, and `Tracer.remove` puts the originals back.  Nothing
inside the package changes.

A call opens a span, and is counted, when it crosses into another layer or
when a metric group or probe names its function; other calls inside the same
layer pass straight through.  Durations exclude the time spent in probes, so
probes cost run time but do not change the numbers.  A layer's self time is
its spans' time minus the time of the spans they caused.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Mapping

# Module short name -> layer.  `expr` and `timeunits` are helpers of `model`.
LAYER_OF = {
    "cli": "cli", "dsl": "dsl", "model": "model", "expr": "model",
    "timeunits": "model", "dfg": "dfg", "fds": "fds", "cost": "cost",
    "fsm": "fsm", "kernels": "kernels", "dse": "dse",
}
LAYERS = ("cli", "dsl", "model", "dfg", "fds", "cost", "fsm", "kernels", "dse")

# Spans kept in memory for the trace file; later ones are counted only.
SPAN_LIMIT = 100_000

Probe = Callable[[tuple, dict, object, float], None]


class Tracer:
    def __init__(self, modules: Iterable, groups: Mapping[str, Iterable[str]],
                 probes: Mapping[str, Probe]):
        self.modules = list(modules)
        self.group_of: dict[str, list[str]] = defaultdict(list)
        for name, funcs in groups.items():
            for func in funcs:
                self.group_of[func].append(name)
        self.probes = dict(probes)
        self._saved: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()  # spans opened per function
        self.layer_self: dict[str, float] = defaultdict(float)
        self.group_time: dict[str, float] = defaultdict(float)
        self._group_depth: Counter = Counter()
        self._stack: list[list] = []  # [qualname, layer, start, child, probe mark, span id]
        self._probe_time = 0.0
        self.top_level = 0.0  # summed duration of spans with no parent
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.span_count = 0

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)  # would time only its creation
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", LAYER_OF[short], obj))
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def remove(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # --- spans ----------------------------------------------------------------

    def _wrap(self, qualname: str, layer: str, fn):
        spanned = qualname in self.group_of or qualname in self.probes
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not spanned and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return self._span(qualname, layer, fn, args, kwargs)

        return wrapper

    def _span(self, qualname, layer, fn, args, kwargs):
        self.calls[qualname] += 1
        span_id = self.span_count
        self.span_count += 1
        groups = self.group_of.get(qualname, ())
        for g in groups:
            self._group_depth[g] += 1
        frame = [qualname, layer, 0.0, 0.0, self._probe_time, span_id]
        self._stack.append(frame)
        frame[2] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = (end - start) - (self._probe_time - frame[4])
            self.layer_self[layer] += duration - frame[3]
            for g in groups:
                self._group_depth[g] -= 1
                if self._group_depth[g] == 0:
                    self.group_time[g] += duration
            if self._stack:
                parent = self._stack[-1]
                parent[3] += duration
                parent_id = parent[5]
            else:
                self.top_level += duration
                parent_id = -1
            if span_id < SPAN_LIMIT:
                self.spans.append((span_id, parent_id, qualname, start, end))
        probe = self.probes.get(qualname)
        if probe is not None:
            mark = time.perf_counter()
            probe(args, kwargs, result, duration)
            self._probe_time += time.perf_counter() - mark
        return result

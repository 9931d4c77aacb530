"""In-memory trace spans around bsradar's layer functions.

A traced run replaces, for its duration, the module attributes through
which the layers are reached:

* every function ``bsradar.pipeline`` imports from another bsradar module,
  plus ``process_cube`` and ``run_pipeline`` themselves;
* ``bsradar.detection.cfar_noise_floor``, so CFAR splits into the floor and
  the thresholding;
* the public calls the benchmark makes on ``bsradar`` and ``bsradar.cubeio``.

Each call records a span ``[name, start, end, parent, bytes]`` in a list;
nothing is written until the run ends.  A span's self time is its duration
minus its direct children's; a layer's time is the self time of the spans
whose function its module defines, so the metric names stay put when a
later change renames or batches functions inside a layer.

``generate_chirp`` (the 64 KB matched-filter replica, ~1 ms) is not
wrapped: it feeds detection, and leaving it to its caller keeps
``simulate.*`` about scene synthesis only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

UNTRACED = {"generate_chirp"}
BENCHMARK_CALLS = {
    "bsradar": ("run_pipeline", "process_cube", "synthesize_datacube"),
    "bsradar.cubeio": ("save_cube", "load_cube"),
}
ROOT = "op"  # the benchmark's own span around one operation


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            getattr(value, f.name).nbytes
            for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), np.ndarray)
        )
    return 0


class Tracer:
    """Span recorder; ``install`` wraps the layer functions, ``remove`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrapped: dict = {}
        self._patched: list[tuple] = []

    def _wrap(self, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        count_bytes = layer == "simulate"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_bytes:
                span[4] = sum(map(_nbytes, args)) + sum(map(_nbytes, kwargs.values()))
                span[4] += _nbytes(out)
            return out

        self._wrapped[fn] = traced
        return traced

    def _patch(self, module, attr: str) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(original))

    def install(self, bsradar) -> None:
        pipeline = bsradar.pipeline
        for attr, value in list(vars(pipeline).items()):
            if (
                inspect.isfunction(value)
                and value.__module__.startswith("bsradar.")
                and value.__module__ != pipeline.__name__
                and attr not in UNTRACED
            ):
                self._patch(pipeline, attr)
        for attr in ("process_cube", "run_pipeline"):
            self._patch(pipeline, attr)
        if hasattr(bsradar.detection, "cfar_noise_floor"):
            self._patch(bsradar.detection, "cfar_noise_floor")
        modules = {"bsradar": bsradar, "bsradar.cubeio": bsradar.cubeio}
        for module, attrs in BENCHMARK_CALLS.items():
            for attr in attrs:
                self._patch(modules[module], attr)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self):
        """The benchmark's span around one operation; yields its index."""
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([ROOT, perf_counter(), 0.0, -1, 0])
        try:
            yield index
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def aggregate(spans: list[list], roots: list[int]) -> dict:
    """Sums over the spans under ``roots``: per function and per layer.

    Returns ``{"fn": {name: [self_s, calls, bytes]}, "layer": {...}, "op_s": ...}``.
    """
    own = self_times(spans)
    fn: dict = defaultdict(lambda: [0.0, 0, 0])
    layer: dict = defaultdict(lambda: [0.0, 0, 0])
    members = set(roots)
    for i, s in enumerate(spans):  # a child is recorded after its parent
        if i not in members and s[3] in members:
            members.add(i)
            for key, table in ((s[0], fn), (s[0].split(".")[0], layer)):
                table[key][0] += own[i]
                table[key][1] += 1
                table[key][2] += s[4]
    return {
        "fn": dict(fn),
        "layer": dict(layer),
        "op_s": sum(spans[r][2] - spans[r][1] for r in roots),
        "glue_s": sum(own[r] for r in roots),
    }

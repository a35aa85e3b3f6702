"""Timing and spans around the benchmark's calls into `occlugrasp`.

Every call the workloads make into the package goes through `Calls.run`.
Untraced, it only forwards the call. Traced, it records one span per call:
name, start, end, parent span and scene id. Spans stay in memory until the
benchmark writes them out at the end of the run.

A span's name is `<module>.<call>`; the module part names the layer that the
per-layer metrics are reported for.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# harness time inside a scene that is not a call into the package
HARNESS = "bench"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    scene_id: str
    name: str
    start: float
    end: float

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Calls:
    """Forwards calls into the package and times scenes; records spans when tracing."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self.failed_call: str | None = None
        self.scene_s = 0.0
        self._scene_id = "setup"  # spans recorded before the first scene belong to set-up
        self._parent: int | None = None
        self._aside = 0.0

    def run(self, name: str, fn, *args, **kwargs):
        """Call `fn`; remember `name` if it raises, so failures name their stage."""
        start = perf_counter() if self.trace else 0.0
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed_call = name
            raise
        finally:
            if self.trace:
                self._record(name, start, perf_counter(), self._parent)

    def time_scene(self, scene_id: str, fn, *args) -> None:
        """Run one scene and set `scene_s` to its wall time minus harness bookkeeping.

        `scene_s` is set even when `fn` raises; `failed_call` then names the
        call that raised.
        """
        self._scene_id = scene_id
        self._aside = 0.0
        self.failed_call = None
        root = len(self.spans) if self.trace else None
        if self.trace:
            # placeholder, replaced once the scene ends
            self.spans.append(Span(root, None, scene_id, f"{HARNESS}.scene", 0.0, 0.0))
        self._parent = root
        start = perf_counter()
        try:
            fn(*args)
        finally:
            end = perf_counter()
            self._parent = None
            self.scene_s = end - start - self._aside
            if self.trace:
                self.spans[root] = Span(root, None, scene_id, f"{HARNESS}.scene", start, end)

    @contextmanager
    def aside(self):
        """Harness bookkeeping inside a scene (digests, check samples): not scene time."""
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._aside += end - start
            if self.trace:
                self._record(f"{HARNESS}.aside", start, end, self._parent)

    def _record(self, name: str, start: float, end: float, parent: int | None) -> None:
        self.spans.append(Span(len(self.spans), parent, self._scene_id, name, start, end))

    def write(self, path, t0: float) -> None:
        """Write the spans as JSON lines, times in seconds since `t0`."""
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.span_id, "parent": s.parent, "scene": s.scene_id, "name": s.name,
                       "start": s.start - t0, "end": s.end - t0}
                fh.write(json.dumps(rec) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per module: each span's duration minus what its children cover.

    Bookkeeping spans (`bench.aside`) are left out, so the totals add up to
    the scenes' measured time.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name == f"{HARNESS}.aside":
            continue
        out[s.module] += (s.end - s.start) - _covered(children.get(s.span_id, []))
    return dict(out)


def durations(spans: list[Span]) -> dict[str, list[float]]:
    """Wall time of every call, grouped by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        out[s.name].append(s.end - s.start)
    return dict(out)

"""Spans around rissim's public entry points, installed from outside the package.

A Tracer replaces each traced function in every loaded module that binds
it, so calls through re-exports, intra-package imports (e.g.
`rissim.optimizer.element_phasor_matrix`, `rissim.planner.hpbw`) and the
benchmark's own imports are timed; uninstall() restores the originals.
Spans nest strictly (the benchmark is single-threaded), and a span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

# Layer name per traced function, keyed by (defining module, function name).
LAYERS = {
    ("rissim.linkbudget", "element_phasor_matrix"): "linkbudget.kernel",
    ("rissim.linkbudget", "coherent_sums"): "linkbudget.apply",
    ("rissim.optimizer", "optimize_config"): "optimizer.search",
    ("rissim.sweep", "sweep_power"): "sweep.grid",
    ("rissim.sweep", "emulate_measurement_grid"): "sweep.emulate",
    ("rissim.sweep", "hpbw"): "sweep.hpbw",
    ("rissim.planner", "focus_ellipse"): "planner.ellipse",
    ("rissim.planner", "plan_updates"): "planner.loop",
    ("rissim.io_cli", "write_power_grid_csv"): "io_cli.write",
    ("rissim.io_cli", "write_schedule_csv"): "io_cli.write",
    ("rissim.io_cli", "write_config_csv"): "io_cli.write",
    ("rissim.io_cli", "write_layout_csv"): "io_cli.write",
    ("rissim.io_cli", "export_heatmap"): "io_cli.write",
}

# Simulated time resolution of plan_updates (its time_step_s argument).
PLANNER_TIME_STEP_S = 1e-3


class Span:
    __slots__ = ("name", "start", "duration", "child_time", "counts", "parent")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_time = 0.0
        self.counts: dict[str, float] = {}
        self.start = time.perf_counter()
        self.duration = 0.0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    """Records spans in memory; closed spans are kept in `spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._open)
        self._open = s
        try:
            yield s
        finally:
            s.duration = time.perf_counter() - s.start
            self._open = s.parent
            if s.parent is not None:
                s.parent.child_time += s.duration
            self.spans.append(s)

    def enclosing(self, name: str) -> "Span | None":
        s = self._open
        while s is not None and s.name != name:
            s = s.parent
        return s

    def install(self) -> None:
        """Wrap every traced function wherever a loaded module binds it."""
        originals = {}
        for (module_name, attr), layer in LAYERS.items():
            fn = getattr(sys.modules[module_name], attr)
            originals[id(fn)] = (fn, self._wrap(layer, attr, fn))
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, layer: str, attr: str, fn):
        count = _COUNTERS.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as s:
                before = _stream_position(attr, args)
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, s, args, kwargs, result, before)
            return result

        return traced


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _stream_position(attr: str, args):
    if attr.startswith("write_") and len(args) > 1 and hasattr(args[1], "tell"):
        return args[1].tell()
    return None


def _count_kernel(tracer, s, args, kwargs, result, before):
    n, m = result.shape
    s.add("phasors", n * m)
    s.add("bytes_out", 16 * n * m)  # complex128 output, computed not measured
    hpbw_span = tracer.enclosing("sweep.hpbw")
    if hpbw_span is not None:
        hpbw_span.add("points", n)


def _count_optimize(tracer, s, args, kwargs, result, before):
    s.counts["elements"] = len(result)


def _count_grid(tracer, s, args, kwargs, result, before):
    s.add("cells", result.values.size)


def _count_emulate(tracer, s, args, kwargs, result, before):
    sounder = _arg(args, kwargs, 3, "sounder")
    cells = result.values.size
    s.add("cells", cells)
    # normal draws of the record-level sounder: Q records x (n2 + 1) taps x re/im
    s.add("normals", cells * sounder.averages * (sounder.window_stop + 1) * 2)


def _count_plan(tracer, s, args, kwargs, result, before):
    traj = _arg(args, kwargs, 1, "trajectory")
    pts = traj.waypoints
    length = sum(
        ((b.x - a.x) ** 2 + (b.y - a.y) ** 2 + (b.z - a.z) ** 2) ** 0.5 for a, b in zip(pts, pts[1:])
    )
    step = kwargs.get("time_step_s", args[3] if len(args) > 3 else PLANNER_TIME_STEP_S)
    s.add("steps", int(length / traj.speed_mps / step + 1e-9))
    s.add("events", len(result.events))


def _count_stream_write(tracer, s, args, kwargs, result, before):
    if before is not None:
        s.add("bytes", args[1].tell() - before)


def _count_heatmap(tracer, s, args, kwargs, result, before):
    s.add("bytes", os.path.getsize(_arg(args, kwargs, 3, "path")))


_COUNTERS = {
    "element_phasor_matrix": _count_kernel,
    "optimize_config": _count_optimize,
    "sweep_power": _count_grid,
    "emulate_measurement_grid": _count_emulate,
    "plan_updates": _count_plan,
    "write_power_grid_csv": _count_stream_write,
    "write_schedule_csv": _count_stream_write,
    "write_config_csv": _count_stream_write,
    "write_layout_csv": _count_stream_write,
    "export_heatmap": _count_heatmap,
}


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    @contextmanager
    def span(self, name: str):
        yield None


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s and the summed counts."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        t["calls"] += 1
        t["self_s"] += s.duration - s.child_time
        t["total_s"] += s.duration
        for key, value in s.counts.items():
            t[key] = t.get(key, 0.0) + value
    return out


def top_level_time(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)

"""Span tracing of symplag's public functions, installed from outside the package.

`Tracer.install` replaces every public function of every symplag module with a
wrapper, in each module that binds it (so `integrate_frame` is wrapped both in
`symplag.frames` and in `symplag.cli`, where the CLI imported it).  A wrapper
records one span per call -- name, start, end, parent span, solve id -- while a
solve is active, and calls straight through otherwise.  `uninstall` restores
the original bindings.

`core.symplectic_defect` runs once per RK4 step (tens of thousands of calls per
solve), so it is counted, not spanned.  Everything in symplag runs in one
thread: no layer queues or waits, so spans carry busy time only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Per-layer metrics: span name -> fields reported for it.
LAYERS = {
    "frames.integrate_frame": ("s", "self_s", "calls", "reprojections"),
    "core.symplectic_defect": ("calls",),
    "generators.umbilic_immersion": ("s",),
    "frames.reduction_pipeline": ("s", "self_s", "calls", "errors"),
    "frames.numerical_maurer_cartan": ("s", "calls"),
    "frames.extract_invariants": ("s", "calls"),
    "grids.diff4": ("s", "calls", "bytes"),
    "frames.congruence_defect": ("s", "self_s", "calls"),
    "frames.save_immersion": ("s", "bytes"),
    "frames.load_immersion": ("s", "bytes"),
    "grids.save_grid": ("s", "bytes"),
    "frames.theta_from_invariants": ("s",),
    "frames.flatness_residual": ("s", "calls"),
    "frames.lagrangian_defect": ("s",),
    "invariants.inteq_residual": ("s", "calls"),
    "generators.family_triple": ("s",),
    "cli.run": ("s", "self_s"),
}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "errors": "count",
               "reprojections": "count", "bytes": "bytes"}
# diff4 bytes are array sizes handed to the stencil, not bytes measured moving.
UNIT_OVERRIDES = {"grids.diff4.bytes": "bytes_computed"}

COUNTED = "core.symplectic_defect"
INTEGRATE = "frames.integrate_frame"
# Argument whose size a call reports as `bytes`: file size on disk for I/O,
# input `nbytes` for diff4.
FILE_ARGS = {"frames.save_immersion": "path", "frames.load_immersion": "path",
             "grids.save_grid": "path"}
ARRAY_ARGS = {"grids.diff4": "values"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name produced by `Tracer.metrics`, with its unit."""
    out = {}
    for span, fields in LAYERS.items():
        for f in fields:
            name = f"{span}.{f}"
            out[name] = UNIT_OVERRIDES.get(name, FIELD_UNITS[f])
    return out


@dataclass
class Span:
    name: str
    solve: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    bytes: int = 0
    defect_calls: int = 0  # symplectic_defect calls made through symplag.frames
    steps: int = 0  # RK4 steps the grid implies (integrate_frame only)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))  # (solve, name) -> calls
    solve: int | None = None
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    # -- installation ---------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions of the given symplag modules in place."""
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("symplag")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                if name == COUNTED:
                    # one counter per binding module, so calls made by the
                    # frame sweep are told apart from group-element validation
                    wrapper = self._counter(obj, name, mod.__name__ == "symplag.frames")
                else:
                    if obj not in wrappers:
                        wrappers[obj] = self._spanner(obj, name)
                    wrapper = wrappers[obj]
                setattr(mod, attr, wrapper)
                self._installed.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def _spanner(self, fn, name):
        file_arg = FILE_ARGS.get(name)
        array_arg = ARRAY_ARGS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.solve is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.solve, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if file_arg or array_arg or name == INTEGRATE:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    a = bound.arguments
                    if file_arg and os.path.exists(a[file_arg]):
                        span.bytes = os.path.getsize(a[file_arg])
                    if array_arg:
                        span.bytes = int(getattr(a[array_arg], "nbytes", 0))
                    if name == INTEGRATE:
                        g = a["theta"].geometry
                        sweeps = 2 if a["compute_path_defect"] else 1
                        span.steps = sweeps * (g.nx * g.ny - 1)
        return wrapper

    def _counter(self, fn, name, from_sweep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.solve is not None:
                self.counts[(self.solve, name)] += 1
                if from_sweep and self._stack:
                    top = self.spans[self._stack[-1]]
                    if top.name == INTEGRATE:
                        top.defect_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the traced solves.

        Times (`.s` inclusive, `.self_s` inclusive minus time covered by
        child spans) are medians over solves of the per-solve sum; counts and
        bytes are means per solve.
        """
        solves = sorted({s.solve for s in self.spans} | {k[0] for k in self.counts})
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        per = {sid: defaultdict(float) for sid in solves}
        for i, s in enumerate(self.spans):
            acc = per[s.solve]
            dur = s.end - s.start
            acc[f"{s.name}.s"] += dur
            acc[f"{s.name}.self_s"] += dur - child_time[i]
            acc[f"{s.name}.calls"] += 1
            acc[f"{s.name}.errors"] += s.error
            acc[f"{s.name}.bytes"] += s.bytes
            if s.name == INTEGRATE:
                acc[f"{s.name}.reprojections"] += s.defect_calls - s.steps
        for (sid, name), n in self.counts.items():
            per[sid][f"{name}.calls"] += n
        out = {}
        for name, unit in layer_metric_units().items():
            vals = [per[sid][name] for sid in solves] or [0.0]
            out[name] = statistics.median(vals) if unit == "s" else statistics.fmean(vals)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line; counted calls as trailing lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "solve": s.solve, "parent": s.parent,
                                     "start": s.start, "end": s.end, "error": s.error,
                                     "bytes": s.bytes}) + "\n")
            for (sid, name), n in sorted(self.counts.items()):
                fh.write(json.dumps({"name": name, "solve": sid, "calls": n}) + "\n")

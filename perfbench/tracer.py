"""Layer tracer for the traced benchmark run; timed runs never import it.

`Tracer.install` wraps, from outside the package, every public function and
public method of the `mixedtopo` modules, in every module namespace that
binds it, and the `numpy.linalg` kernels the package calls. A layer is the
module that defines a function (`gaussian`, `egp`, ...) or one linalg kernel
(`linalg.eigh`, ...).

A span is recorded at each layer boundary only: a call into a layer other
than the caller's. Calls inside one layer are counted but not timed, which
keeps the per-k model evaluations of the scan cheap to trace. A span opened
by a `TaskRunner` worker thread with nothing open in that thread takes as
parent the innermost span of the main thread, which waits in
`TaskRunner.run`. Self time is a span's duration minus what its children
cover: the sum of same-thread children, which nest, and the union of
cross-thread children, which may overlap one another.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

MODULES = ("model", "gaussian", "egp", "geometry", "uhlmann", "serialize", "config", "cli")
LINALG_KERNELS = ("eigh", "eigvalsh", "svd", "slogdet", "det")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch(a) -> int:
    return math.prod(np.shape(a)[:-2])


def _path_size(args, kwargs, index=0, name="path") -> int:
    return os.path.getsize(_arg(args, kwargs, index, name))


# Per-call counters: (layer-qualified function name) -> fn(args, kwargs, result)
# returning {counter: increment}.
COUNTERS = {
    "model.BlochModel.matrix": lambda a, k, r: {"model.matrices": 1},
    "gaussian.correlation_from_hfict_line": lambda a, k, r: {
        "gaussian.correlation_builds": 1,
        "gaussian.correlation_cells3": len(_arg(a, k, 0, "line")) ** 3},
    "gaussian.FictitiousHamiltonianGrid.half_margin": lambda a, k, r: {"gaussian.gap_checks": 1},
    "gaussian.load_matrix_grid": lambda a, k, r: {"gaussian.bytes_read": _path_size(a, k)},
    "egp.gaussian_trace_diagonal_unitary": lambda a, k, r: {
        "egp.chains": 1, "egp.trace_modes": len(_arg(a, k, 1, "thetas"))},
    "geometry.states_on_grid": lambda a, k, r: {
        "geometry.frames": len(_arg(a, k, 1, "kxs")) * len(_arg(a, k, 2, "kys"))},
    "geometry.states_on_line": lambda a, k, r: {"geometry.frames": len(_arg(a, k, 1, "ks"))},
    "geometry.winding_of_phase_profile": lambda a, k, r: {"geometry.windings": 1},
    "geometry.chern_number": lambda a, k, r: {"geometry.windings": 1},
    "uhlmann.uhlmann_phase_profile": lambda a, k, r: {
        "uhlmann.profiles": 1,
        "uhlmann.path_points": r[1] * len(_arg(a, k, 4, "transverse"))},
    "serialize.write_csv": lambda a, k, r: {"serialize.bytes_written": _path_size(a, k)},
    "serialize.write_json": lambda a, k, r: {"serialize.bytes_written": _path_size(a, k)},
    "linalg.eigh": lambda a, k, r: {"linalg.eigh.matrices": _batch(a[0])},
    "linalg.eigvalsh": lambda a, k, r: {"linalg.eigvalsh.matrices": _batch(a[0])},
    "linalg.svd": lambda a, k, r: {"linalg.svd.matrices": _batch(a[0])},
    "linalg.det": lambda a, k, r: {"linalg.det.matrices": _batch(a[0])},
    "linalg.slogdet": lambda a, k, r: {
        "linalg.slogdet.matrices": _batch(a[0]),
        "linalg.slogdet.n3": _batch(a[0]) * np.shape(a[0])[-1] ** 3},
}


class Span(NamedTuple):
    id: int
    name: int  # index into Tracer.names
    layer: str
    thread: int
    parent: int  # -1 for a root span
    cross: bool  # parent is open in another thread
    start: float
    end: float
    child: float  # time covered by same-thread children


class Tracer:
    """Spans and counters kept in memory until `report`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._stacks: dict[int, list] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    # ------------------------------------------------------------ wrapping

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
            return stack

    def _count(self, counter, args, kwargs, result):
        increments = counter(args, kwargs, result)
        with self._lock:
            for key, value in increments.items():
                self.counts[key] += value

    def _span(self, stack, fn, layer, name_id, args, kwargs):
        sid = next(self._ids)
        tid = threading.get_ident()
        if stack:
            parent, cross = stack[-1][0], False
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent, cross = (main[-1][0], True) if main else (-1, False)
        frame = [sid, layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][2] += end - start
            self.spans.append(Span(sid, name_id, layer, tid, parent, cross, start, end, frame[2]))

    def wrap(self, fn, layer: str, name: str):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(stack, fn, layer, name_id, args, kwargs)
            if counter is not None:
                tracer._count(counter, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the package's public functions and methods and the linalg kernels."""
        import importlib

        import mixedtopo

        modules = {name: importlib.import_module(f"mixedtopo.{name}") for name in MODULES}
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                layer = module.__name__.rsplit(".", 1)[-1]
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for namespace in (mixedtopo, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(namespace, attr, wrapped[id(obj)])
        for kernel in LINALG_KERNELS:
            fn = getattr(np.linalg, kernel)
            setattr(np.linalg, kernel, self.wrap(fn, f"linalg.{kernel}", f"linalg.{kernel}"))

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, layer, name))
            elif isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self.wrap(value.__func__, layer, name)))

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[int, float]:
        """Self time per span id."""
        own = {s.id: (s.end - s.start) - s.child for s in self.spans}
        cross = defaultdict(list)
        for s in self.spans:
            if s.cross:
                cross[s.parent].append((s.start, s.end))
        for parent, intervals in cross.items():
            covered, reach = 0.0, -math.inf
            for start, end in sorted(intervals):
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            own[parent] -= covered
        return own

    def report(self) -> dict[str, float]:
        """Per-layer busy seconds (self time) and counters."""
        busy = defaultdict(float)
        own = self.self_times()
        for s in self.spans:
            busy[s.layer] += own[s.id]
        out = {f"{layer}.busy_s": t for layer, t in busy.items()}
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        out["trace.self_sum_s"] = sum(busy.values())
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, parent, thread, layer, name, start, end, self."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tthread\tlayer\tname\tstart_s\tend_s\tself_s\n")
            for s in sorted(self.spans):
                f.write(f"{s.id}\t{s.parent}\t{s.thread}\t{s.layer}\t{self.names[s.name]}\t"
                        f"{s.start:.9f}\t{s.end:.9f}\t{own[s.id]:.9f}\n")

"""Timing wrappers installed from outside around each layer's public calls.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
imports every ``repro`` module, then replaces the functions and methods
listed in :data:`BOUNDARIES` with wrappers that count calls and measure
time.  Module-level functions are rebound in *every* module that imported
them by name (a walk over ``sys.modules``), and methods are replaced on
the defining class and on every subclass that overrides them.

Three kinds of boundary:

``span``
    Coarse calls (an experiment, a cache build, an ``SMTCore.run``, an
    HTTP handler, ...).  Each call records a span (name, start, end,
    parent span, thread) and feeds the layer's count and self time.
``aggregate``
    Per-access calls (the hierarchy walk, set/policy operations,
    telemetry ``emit``).  Only count, total and self time are kept.
``count``
    Calls too hot or too small to time (per-set allocation, RNG
    derivation).  Only the count is kept; their time stays with the
    enclosing layer.

Self time is attributed per thread: a thread-local stack holds the open
frames, and a frame's self time is its duration minus the time of the
frames opened inside it.  A call into a layer that is already the
innermost open frame (``PLCache.fill`` calling ``Cache.fill``,
``evaluate_transmission`` calling ``edit_distance``) is passed straight
through, so each outermost call counts once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

SPAN = "span"
AGGREGATE = "aggregate"
COUNT = "count"


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module`` + ``target`` (``func`` or ``Class.method``)."""

    module: str
    target: str
    #: Count key; several boundaries may share one.
    name: str
    #: Layer the call's self time is charged to (None for ``count``).
    layer: Optional[str]
    kind: str


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.experiments.registry", "run_experiment", "experiment", "experiment", SPAN),
    Boundary("repro.cache.cache", "Cache.__init__", "cache.build", "cache.build", SPAN),
    Boundary("repro.cache.cache_set", "CacheSet.__init__", "cache.set.alloc", None, COUNT),
    Boundary("repro.engine.fast_set", "FastSet.__init__", "cache.set.alloc", None, COUNT),
    Boundary("repro.common.rng", "derive_rng", "rng.derive", None, COUNT),
    Boundary("repro.cpu.smt", "SMTCore.run", "cpu.smt.run", "cpu.smt", SPAN),
    Boundary("repro.cache.hierarchy", "CacheHierarchy.access", "cache.hierarchy.access", "cache.hierarchy", AGGREGATE),
    Boundary("repro.cache.hierarchy", "CacheHierarchy.flush", "cache.hierarchy.flush", "cache.hierarchy", AGGREGATE),
    Boundary("repro.cache.cache", "Cache.lookup", "cache.set.ops", "cache.set.ops", AGGREGATE),
    Boundary("repro.cache.cache", "Cache.fill", "cache.set.ops", "cache.set.ops", AGGREGATE),
    Boundary("repro.cache.cache", "Cache.invalidate", "cache.set.ops", "cache.set.ops", AGGREGATE),
    Boundary("repro.telemetry.bus", "TelemetryBus.emit", "telemetry.emit", "telemetry", AGGREGATE),
    Boundary("repro.analysis.ber", "evaluate_transmission", "analysis", "analysis", SPAN),
    Boundary("repro.analysis.edit_distance", "edit_distance", "analysis", "analysis", SPAN),
    Boundary("repro.channels.wb.protocol", "run_wb_channel", "channels.wb.run", "channels.wb", SPAN),
    Boundary("repro.channels.wb.calibration", "calibrate_decoder", "channels.wb.calibrate", "channels.wb", SPAN),
    Boundary("repro.runner.pool", "execute_tasks", "runner.execute", "runner", SPAN),
    Boundary("repro.service.http", "ServiceHandler.do_GET", "service.http", "service.http", SPAN),
    Boundary("repro.service.http", "ServiceHandler.do_POST", "service.http", "service.http", SPAN),
    Boundary("repro.service.http", "ServiceApp.submit", "service.app", "service.app", SPAN),
    Boundary("repro.service.http", "ServiceApp.result_bytes", "service.app", "service.app", SPAN),
    Boundary("repro.service.http", "ServiceApp.healthz", "service.app", "service.app", SPAN),
    Boundary("repro.service.store", "ResultStore.get_bytes", "service.store.get", "service.store.get", SPAN),
    Boundary("repro.service.store", "ResultStore.put", "service.store.put", "service.store.put", SPAN),
)

#: Every count key a trace reports, zero or not.
COUNT_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(b.name for b in BOUNDARIES))
#: Every layer a trace reports self time for.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(b.layer for b in BOUNDARIES if b.layer is not None)
)


def _self_key(layer: str) -> str:
    return layer + "#self_ns"


#: Accumulator key: sets declared by the caches built.
_SETS_DECLARED = "sets#declared"


class _PerThread(threading.local):
    """Open frames and accumulators of the current thread.

    ``acc`` holds both call counts (keyed by count name) and self time
    in nanoseconds (keyed by :func:`_self_key`), so the hot path fetches
    one thread-local attribute.
    """

    def __init__(self, registry: list) -> None:
        self.stack: List[list] = []
        self.acc: Dict[str, int] = defaultdict(int)
        self.thread = threading.current_thread().name
        # list.append is atomic, so threads register without a lock.
        registry.append(self.acc)


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so every importer of a name is found."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith(".__main__"):
            continue
        importlib.import_module(info.name)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in found:
                found.append(item)
    return found


class Tracer:
    """In-memory spans and per-layer counters for one traced process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._registry: list = []
        self._tls = _PerThread(self._registry)
        self._spans: List[tuple] = []
        self._next_span = itertools.count(1).__next__
        self._origin_ns = time.perf_counter_ns()
        #: id(cache) -> serial, reassigned whenever a new cache is built,
        #: so a recycled id never aliases a dead cache's sets.
        self._cache_serial: Dict[int, int] = {}
        self._next_cache = itertools.count().__next__
        self._sets_touched: set = set()
        self.rebound_modules = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in every module and class that holds it."""
        _import_all_repro_modules()
        for boundary in BOUNDARIES:
            module = sys.modules[boundary.module]
            if "." in boundary.target:
                self._wrap_method(module, boundary)
            else:
                self._wrap_function(module, boundary)
        self._wrap_set_fills()

    def _make_wrapper(self, fn: Callable, boundary: Boundary) -> Callable:
        tls = self._tls
        name = boundary.name
        if boundary.kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tls.acc[name] += 1
                return fn(*args, **kwargs)

            return counted

        layer = boundary.layer
        self_key = _self_key(layer)
        clock = time.perf_counter_ns
        # A frame is [layer, child time, span id, receiver]; the receiver
        # lets the set-level fill recorder identify the cache.
        if boundary.kind == AGGREGATE:

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                stack = tls.stack
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0, 0, args[0]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    acc = tls.acc
                    acc[name] += 1
                    acc[self_key] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed

            return aggregated

        is_build = name == "cache.build"
        spans = self._spans
        next_span = self._next_span

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tls.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = 0
            for outer in reversed(stack):
                if outer[2]:
                    parent = outer[2]
                    break
            frame = [layer, 0, next_span(), args[0] if args else None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if is_build:
                    self._record_build(args[0])
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                acc = tls.acc
                acc[name] += 1
                acc[self_key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                spans.append(
                    (frame[2], name, start, start + elapsed, parent, tls.thread)
                )

        return spanned

    def _record_build(self, cache) -> None:
        self._cache_serial[id(cache)] = self._next_cache()
        self._tls.acc[_SETS_DECLARED] += cache.num_sets

    def _wrap_method(self, module, boundary: Boundary) -> None:
        class_name, method = boundary.target.split(".")
        base = getattr(module, class_name)
        for cls in _subclasses(base):
            original = cls.__dict__.get(method)
            if original is not None:
                setattr(cls, method, self._make_wrapper(original, boundary))

    def _wrap_function(self, module, boundary: Boundary) -> None:
        # ``vars(module)`` rather than getattr: a package re-export can
        # shadow a same-named submodule (repro.analysis.edit_distance).
        original = vars(module)[boundary.target]
        wrapper = self._make_wrapper(original, boundary)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(holder, attribute, wrapper)
                    self.rebound_modules += 1

    def _wrap_set_fills(self) -> None:
        """Record which sets ever received a fill, keyed by (cache, set index).

        Set-level fills run inside the cache-level ``fill`` frame, whose
        receiver identifies the cache.  The cache's own ``set_index`` is
        never called here: the randomized-mapping defense re-keys inside it.
        """
        tls = self._tls
        serials = self._cache_serial
        touched = self._sets_touched
        for module_name, class_name in (
            ("repro.cache.cache_set", "CacheSet"),
            ("repro.engine.fast_set", "FastSet"),
        ):
            cls = getattr(sys.modules[module_name], class_name)
            original = cls.__dict__["fill"]

            def recorder(set_obj, *args, __fill=original, **kwargs):
                stack = tls.stack
                if stack and stack[-1][0] == "cache.set.ops":
                    serial = serials.get(id(stack[-1][3]))
                    if serial is not None:
                        touched.add((serial, kwargs.get("set_index")))
                return __fill(set_obj, *args, **kwargs)

            functools.update_wrapper(recorder, original)
            cls.fill = recorder

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _merged(self) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        for acc in list(self._registry):
            for key, value in list(acc.items()):
                merged[key] += value
        return merged

    def counts(self) -> Dict[str, int]:
        merged = self._merged()
        return {name: merged[name] for name in COUNT_NAMES}

    def self_seconds(self) -> Dict[str, float]:
        merged = self._merged()
        return {layer: merged[_self_key(layer)] / 1e9 for layer in LAYERS}

    def to_dict(self) -> Dict[str, object]:
        origin = self._origin_ns
        return {
            "workload": self.workload,
            "counts": self.counts(),
            "self_s": self.self_seconds(),
            "sets": {
                "declared": self._merged()[_SETS_DECLARED],
                "touched": len(self._sets_touched),
            },
            "rebound_modules": self.rebound_modules,
            "spans": [
                {
                    "id": span_id,
                    "name": name,
                    "start_s": (start - origin) / 1e9,
                    "end_s": (end - origin) / 1e9,
                    "parent": parent,
                    "thread": thread,
                    "workload": self.workload,
                }
                for span_id, name, start, end, parent, thread in list(self._spans)
            ],
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

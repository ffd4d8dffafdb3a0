"""Built-in bus subscribers: windowed counters, trace recorder, profiler.

These are the composable consumers the tentpole asks for; the online
detectors in :mod:`repro.telemetry.detectors` build on the same windowing
discipline but keep their own (much smaller) state.
"""

from __future__ import annotations

import json
import time as _time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.telemetry.bus import Subscriber
from repro.telemetry.events import AGGREGATE_OWNER, CacheEvent, EventKind

_HIT = EventKind.HIT
_MISS = EventKind.MISS
_EVICT = EventKind.EVICT
_WRITEBACK = EventKind.WRITEBACK
_FLUSH = EventKind.FLUSH
_FAULT = EventKind.FAULT


@dataclass
class WindowCounts:
    """Event tallies for one (window, level, owner) cell."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    writebacks: int = 0
    flushes: int = 0
    #: Injected-fault markers (:data:`~repro.telemetry.events.EventKind.FAULT`)
    #: from :mod:`repro.faults`; zero on fault-free runs.
    faults: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses / accesses; 0.0 for an untouched cell."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "WindowCounts") -> None:
        """Accumulate ``other`` into this cell."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.writebacks += other.writebacks
        self.flushes += other.flushes
        self.faults += other.faults


#: One completed window: ``(level, owner) -> WindowCounts``.
Window = Dict[Tuple[int, int], WindowCounts]


class WindowedCounters(Subscriber):
    """Per-level, per-owner counters sliced into fixed logical windows.

    A window spans ``window`` consecutive logical-clock ticks (demand
    accesses).  Windows are contiguous: clock ranges in which no event
    arrived still produce (empty) windows, so ``series()`` values are
    evenly spaced in logical time — which is what the online detectors
    and any plotting need.

    A bus ``mark`` (stats reset) restarts the windowing: the open window
    is discarded and the next event begins window 0 of a new epoch,
    mirroring :meth:`repro.cache.stats.CacheStats.reset`.
    """

    def __init__(self, window: int = 256) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.windows: List[Window] = []
        self._origin: Optional[int] = None
        self._current_id = 0
        self._current: Window = {}

    # ------------------------------------------------------------------
    # Subscriber surface
    # ------------------------------------------------------------------
    def on_event(self, event: CacheEvent) -> None:
        if self._origin is None:
            self._origin = event.time
        window_id = (event.time - self._origin) // self.window
        if window_id != self._current_id:
            self._flush_through(window_id)
        kind = event.kind
        owners = (
            (AGGREGATE_OWNER,)
            if event.owner is None
            else (event.owner, AGGREGATE_OWNER)
        )
        for owner in owners:
            key = (event.level, owner)
            cell = self._current.get(key)
            if cell is None:
                cell = self._current[key] = WindowCounts()
            if kind == _HIT:
                cell.accesses += 1
                cell.hits += 1
                if event.write:
                    cell.stores += 1
            elif kind == _MISS:
                cell.accesses += 1
                cell.misses += 1
                if event.write:
                    cell.stores += 1
            elif kind == _WRITEBACK:
                cell.writebacks += 1
                cell.evictions += 1
            elif kind == _EVICT:
                cell.evictions += 1
            elif kind == _FLUSH:
                cell.flushes += 1
            elif kind == _FAULT:
                cell.faults += 1

    def on_mark(self, label: str) -> None:
        """Restart windowing at a measurement epoch (stats reset)."""
        del label
        self.windows.clear()
        self._origin = None
        self._current_id = 0
        self._current = {}

    def finish(self) -> None:
        """Flush the trailing (possibly partial) window."""
        if self._current:
            self.windows.append(self._current)
            self._current = {}
            self._current_id += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _flush_through(self, window_id: int) -> None:
        self.windows.append(self._current)
        # Gap-fill: clock ranges with no events still yield windows.
        for _ in range(self._current_id + 1, window_id):
            self.windows.append({})
        self._current = {}
        self._current_id = window_id

    def series(
        self, field: str, level: int, owner: Optional[int] = None
    ) -> List[int]:
        """Per-window values of ``field`` for ``(level, owner)``.

        ``owner=None`` selects the all-threads aggregate.
        """
        key = (level, AGGREGATE_OWNER if owner is None else owner)
        empty = WindowCounts()
        return [
            getattr(window.get(key, empty), field) for window in self.windows
        ]

    def totals(self, level: int, owner: Optional[int] = None) -> WindowCounts:
        """Sum of all completed windows for ``(level, owner)``."""
        key = (level, AGGREGATE_OWNER if owner is None else owner)
        total = WindowCounts()
        for window in self.windows:
            cell = window.get(key)
            if cell is not None:
                total.merge(cell)
        return total

    def summary(self) -> Dict[str, object]:
        """Aggregate view for run manifests."""
        levels: Dict[str, Dict[str, int]] = {}
        seen = sorted({level for window in self.windows for level, _ in window})
        for level in seen:
            total = self.totals(level)
            levels[f"L{level}"] = {
                "accesses": total.accesses,
                "misses": total.misses,
                "stores": total.stores,
                "evictions": total.evictions,
                "writebacks": total.writebacks,
                "flushes": total.flushes,
                "faults": total.faults,
            }
        return {
            "window": self.window,
            "windows": len(self.windows),
            "levels": levels,
        }


class TraceRecorder(Subscriber):
    """Ring buffer of the most recent events, exportable as JSONL.

    ``capacity=None`` keeps everything (unit tests, short runs); the
    default bounds memory so a recorder can ride along any experiment.
    """

    def __init__(self, capacity: Optional[int] = 65536) -> None:
        self._buffer: Deque[CacheEvent] = deque(maxlen=capacity)
        self.capacity = capacity
        self.total_events = 0

    def on_event(self, event: CacheEvent) -> None:
        self._buffer.append(event)
        self.total_events += 1

    @property
    def events(self) -> List[CacheEvent]:
        """Retained events, oldest first."""
        return list(self._buffer)

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring buffer."""
        return self.total_events - len(self._buffer)

    def clear(self) -> None:
        """Drop all retained events (the totals keep counting)."""
        self._buffer.clear()

    def to_jsonl(self, path: str) -> int:
        """Write retained events to ``path`` as JSON lines; returns count."""
        with open(path, "w") as handle:
            for event in self._buffer:
                handle.write(json.dumps(event.to_dict()))
                handle.write("\n")
        return len(self._buffer)


class BusProfiler(Subscriber):
    """Lightweight throughput profile: events/sec, wall time per phase."""

    def __init__(self) -> None:
        self.total_events = 0
        #: Events lost to bounded buffering on this bus: stream
        #: publishers report their overflow here so one counter in the
        #: run summary answers "did observability lose data?".
        self.dropped_events = 0
        self._first: Optional[float] = None
        self._last: Optional[float] = None
        self.phases: Dict[str, Dict[str, float]] = {}
        self._active_phase: Optional[str] = None

    def record_dropped(self, count: int = 1) -> None:
        """Account ``count`` events lost to a bounded buffer."""
        self.dropped_events += count

    def on_event(self, event: CacheEvent) -> None:
        del event
        now = _time.perf_counter()
        if self._first is None:
            self._first = now
        self._last = now
        self.total_events += 1
        phase = self._active_phase
        if phase is not None:
            self.phases[phase]["events"] += 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute wall time and events to a named phase."""
        entry = self.phases.setdefault(name, {"events": 0, "seconds": 0.0})
        previous = self._active_phase
        self._active_phase = name
        start = _time.perf_counter()
        try:
            yield
        finally:
            entry["seconds"] += _time.perf_counter() - start
            self._active_phase = previous

    @property
    def wall_seconds(self) -> float:
        """Wall time between the first and last observed event."""
        if self._first is None or self._last is None:
            return 0.0
        return self._last - self._first

    @property
    def events_per_second(self) -> float:
        """Observed event throughput (0.0 before two events arrived)."""
        wall = self.wall_seconds
        if wall <= 0.0:
            return 0.0
        return self.total_events / wall

    def summary(self) -> Dict[str, object]:
        """JSON-friendly profile for run manifests."""
        return {
            "events": self.total_events,
            "dropped_events": self.dropped_events,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second),
            "phases": {
                name: {
                    "events": int(entry["events"]),
                    "seconds": round(entry["seconds"], 6),
                }
                for name, entry in self.phases.items()
            },
        }

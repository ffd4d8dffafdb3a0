"""The telemetry event bus: fan-out of cache events to subscribers.

Design constraints, in order:

1. **Zero cost when absent or disabled.**  A hierarchy holds either no
   bus (``hierarchy.telemetry is None``) or a disabled one; the walk
   tests ``bus is not None and bus.enabled`` once per access and, when
   that is false, emits nothing and builds no event.
2. **Engine-independent streams.**  All emission sites live in
   :class:`~repro.cache.hierarchy.CacheHierarchy`, which both engines
   share, so reference and fast hierarchies produce bit-identical event
   streams (enforced by the parity suite).
3. **Composable subscribers.**  A subscriber is any object with an
   ``on_event(event)`` method; ``on_mark(label)`` and ``finish()`` are
   optional lifecycle hooks (see :class:`Subscriber`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry.events import CacheEvent

#: Overflow policies accepted by :class:`BufferedSubscriber`.
OVERFLOW_POLICIES = ("drop_oldest", "drop_newest", "block")


class Subscriber:
    """Optional base class documenting the subscriber surface.

    Any object with a compatible ``on_event`` is accepted; subclassing
    is a convenience, not a requirement.
    """

    def on_event(self, event: CacheEvent) -> None:
        """Receive one event (called once per emission, in order)."""
        raise NotImplementedError

    def on_mark(self, label: str) -> None:
        """An epoch boundary (e.g. a stats reset) passed on the bus."""

    def finish(self) -> None:
        """The producing run ended; flush any open aggregation state."""


class TelemetryBus:
    """Dispatches :class:`CacheEvent` values to subscribers in order.

    ``time`` is the logical clock: the ordinal of the current demand
    access, advanced by :meth:`tick` once per access (and per flush).
    Emission is a plain loop over pre-bound ``on_event`` callables; the
    handler list is rebuilt on (un)subscribe so the hot loop never
    checks membership.
    """

    __slots__ = ("enabled", "time", "_subscribers", "_handlers")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.time = 0
        self._subscribers: List[object] = []
        self._handlers: List[Callable[[CacheEvent], None]] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: object) -> object:
        """Attach ``subscriber``; returns it for chaining."""
        self._subscribers.append(subscriber)
        self._handlers.append(subscriber.on_event)
        return subscriber

    def unsubscribe(self, subscriber: object) -> None:
        """Detach ``subscriber`` (no-op if it was never attached)."""
        try:
            index = self._subscribers.index(subscriber)
        except ValueError:
            return
        del self._subscribers[index]
        del self._handlers[index]

    @property
    def subscribers(self) -> List[object]:
        """Currently attached subscribers (copy)."""
        return list(self._subscribers)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Turn event emission on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn event emission off (subscribers stay attached)."""
        self.enabled = False

    def tick(self) -> int:
        """Advance and return the logical clock (one demand access)."""
        self.time += 1
        return self.time

    def mark(self, label: str) -> None:
        """Broadcast an epoch boundary to subscribers that care.

        The SMT core calls this when a thread executes ``ResetStats`` —
        the simulated analogue of attaching ``perf`` to an
        already-running process — so windowed subscribers can restart
        their aggregation aligned with the measurement epoch.
        """
        if not self.enabled:
            return
        for subscriber in self._subscribers:
            on_mark = getattr(subscriber, "on_mark", None)
            if on_mark is not None:
                on_mark(label)

    def emit(self, event: CacheEvent) -> None:
        """Deliver ``event`` to every subscriber, in subscription order.

        Callers are expected to have checked ``enabled`` already (the
        hierarchy guards each emission site with one attribute test).
        """
        for handler in self._handlers:
            handler(event)

    def close(self) -> None:
        """Signal end-of-run: calls ``finish()`` on every subscriber."""
        for subscriber in self._subscribers:
            finish = getattr(subscriber, "finish", None)
            if finish is not None:
                finish()


class BufferedSubscriber(Subscriber):
    """Bounded asynchronous delivery shim around a slow subscriber.

    The bus's ``emit`` loop calls every handler synchronously, so one
    subscriber that blocks (network write, disk flush, a client that
    stopped reading) would stall the simulation hot loop.  Wrapping it
    in a ``BufferedSubscriber`` decouples the two: ``on_event`` only
    appends to a bounded in-memory queue under a lock — O(1), never
    blocking on the inner subscriber — while a daemon worker thread
    drains the queue and performs the actual (possibly slow) delivery.

    ``capacity`` bounds the queue; ``overflow`` picks what happens when
    it is full:

    * ``"drop_oldest"`` (default) — evict the oldest queued item to make
      room; keeps the stream current at the cost of a gap.
    * ``"drop_newest"`` — discard the incoming event; keeps history.
    * ``"block"`` — make the producer wait for space (only for tools
      that must not lose events and accept the stall).

    Every dropped event increments :attr:`dropped_events` and, when a
    ``profiler`` is attached, mirrors into
    :attr:`BusProfiler.dropped_events
    <repro.telemetry.subscribers.BusProfiler.dropped_events>` so run
    summaries surface the loss.  ``finish()`` flushes the queue (waits
    for the worker to drain what was not dropped), forwards ``finish``
    to the inner subscriber, and retires the worker — the wrapper is
    one-shot, matching the bus lifecycle.
    """

    def __init__(
        self,
        inner: object,
        capacity: int = 4096,
        overflow: str = "drop_oldest",
        profiler: Optional[object] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}"
            )
        self.inner = inner
        self.capacity = capacity
        self.overflow = overflow
        self.profiler = profiler
        self.dropped_events = 0
        self.error: Optional[BaseException] = None
        self._queue: Deque[Tuple[str, object]] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="telemetry-buffered-subscriber", daemon=True
        )
        self._worker.start()

    # -- producer side (the bus emit loop) -----------------------------
    def on_event(self, event: CacheEvent) -> None:
        self._put(("event", event))

    def on_mark(self, label: str) -> None:
        self._put(("mark", label))

    def finish(self) -> None:
        """Flush queued items, forward ``finish``, stop the worker."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()
        finish = getattr(self.inner, "finish", None)
        if finish is not None:
            finish()

    # -- internals -----------------------------------------------------
    def _put(self, item: Tuple[str, object]) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._queue) >= self.capacity:
                if self.overflow == "drop_oldest":
                    self._queue.popleft()
                    self._record_drop()
                elif self.overflow == "drop_newest":
                    self._record_drop()
                    return
                else:  # block
                    while len(self._queue) >= self.capacity and not self._closed:
                        self._cond.wait()
                    if self._closed:
                        return
            self._queue.append(item)
            self._cond.notify_all()

    def _record_drop(self) -> None:
        self.dropped_events += 1
        record = getattr(self.profiler, "record_dropped", None)
        if record is not None:
            record(1)

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                kind, payload = self._queue.popleft()
                self._cond.notify_all()
            try:
                if kind == "event":
                    self.inner.on_event(payload)
                else:
                    on_mark = getattr(self.inner, "on_mark", None)
                    if on_mark is not None:
                        on_mark(payload)
            except BaseException as exc:  # keep the producer unharmed
                self.error = exc
                return

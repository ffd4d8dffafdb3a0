"""The telemetry event bus: fan-out of cache events to subscribers.

Design constraints, in order:

1. **Zero cost when absent.**  Telemetry off means no bus:
   ``hierarchy.telemetry is None``.  The walk tests ``bus is not None``
   once per access and, when that is false, emits nothing and builds
   no event.  A bus that is attached is always on.
2. **Engine-independent streams.**  All emission sites live in
   :class:`~repro.cache.hierarchy.CacheHierarchy`, which both engines
   share, so reference and fast hierarchies produce bit-identical event
   streams (enforced by the parity suite).
3. **Composable subscribers.**  A subscriber is any object with an
   ``on_event(event)`` method; ``on_mark(label)`` and ``finish()`` are
   optional lifecycle hooks (see :class:`Subscriber`).  A run feeds its
   subscribers through :func:`subscribed`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

from repro.telemetry.events import CacheEvent


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
    access, advanced by :meth:`tick` once per access.
    Emission is a plain loop over pre-bound ``on_event`` callables; the
    handler list is rebuilt on (un)subscribe so the hot loop never
    checks membership.
    """

    __slots__ = ("time", "_subscribers", "_handlers")

    def __init__(self) -> None:
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
        for subscriber in self._subscribers:
            on_mark = getattr(subscriber, "on_mark", None)
            if on_mark is not None:
                on_mark(label)

    def emit(self, event: CacheEvent) -> None:
        """Deliver ``event`` to every subscriber, in subscription order."""
        for handler in self._handlers:
            handler(event)

    def close(self) -> None:
        """Signal end-of-run: calls ``finish()`` on every subscriber."""
        for subscriber in self._subscribers:
            finish = getattr(subscriber, "finish", None)
            if finish is not None:
                finish()


@contextmanager
def subscribed(
    hierarchy, subscribers: Sequence[object]
) -> Iterator[Optional[TelemetryBus]]:
    """Feed ``subscribers`` the events of whatever runs inside the block.

    Attaches a bus to ``hierarchy`` only when there is a subscriber and
    none is attached yet; a bus already attached (a telemetry session's)
    is kept.  On exit every subscriber is finished and unsubscribed, in
    order, and a bus attached here is detached again.  Yields the bus,
    or ``None`` when there is neither a subscriber nor a bus.
    """
    bus = hierarchy.telemetry
    owned = bool(subscribers) and bus is None
    if owned:
        bus = hierarchy.attach_telemetry(TelemetryBus())
    for subscriber in subscribers:
        bus.subscribe(subscriber)
    try:
        yield bus
    finally:
        for subscriber in subscribers:
            finish = getattr(subscriber, "finish", None)
            if finish is not None:
                finish()
            bus.unsubscribe(subscriber)
        if owned:
            hierarchy.detach_telemetry()

"""Cache line state.

The paper's entire channel rests on one bit of this dataclass: ``dirty``.
``locked`` and ``owner`` exist for the defense models (PLcache locks lines;
partitioned caches and the statistics need to know which hardware thread
installed a line).

:data:`EMPTY_LINE` is the one invalid line that every way no fill has
reached refers to, in every set of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(init=False)
class CacheLine:
    """One way of one cache set.

    Slotted, because the reference engine keeps one per way that a fill
    has reached: a line takes 72 bytes instead of 112 with a ``__dict__``
    (CPython 3.11).
    ``dataclass(slots=True)`` needs Python 3.10, so the slots and the
    initialiser that carries the defaults are written out.
    """

    __slots__ = ("tag", "valid", "dirty", "locked", "owner")

    tag: int
    valid: bool
    dirty: bool
    locked: bool
    #: Hardware-thread id that installed (or last wrote) the line; ``None``
    #: for lines created by hierarchy-internal traffic such as write-backs.
    owner: Optional[int]

    def __init__(
        self,
        tag: int = 0,
        valid: bool = False,
        dirty: bool = False,
        locked: bool = False,
        owner: Optional[int] = None,
    ) -> None:
        self.tag = tag
        self.valid = valid
        self.dirty = dirty
        self.locked = locked
        self.owner = owner

    def invalidate(self) -> None:
        """Reset the line to the invalid state (drops dirty data)."""
        self.valid = False
        self.dirty = False
        self.locked = False
        self.owner = None


class EmptyLine(CacheLine):
    """The invalid line of a way that no fill has reached yet.

    One instance, :data:`EMPTY_LINE`, is shared by every such way of every
    set, so it must never change. Its fields are class attributes over no
    slots, which makes every attribute write raise ``AttributeError``
    (even through ``object.__setattr__``) while ordinary lines keep their
    plain slot writes.
    """

    __slots__ = ()

    tag = 0
    valid = False
    dirty = False
    locked = False
    owner = None

    def __init__(self) -> None:
        pass  # CacheLine's initialiser would write the fields.


EMPTY_LINE = EmptyLine()


@dataclass(frozen=True)
class EvictedLine:
    """Snapshot of a line at the moment it was evicted from a set.

    ``address`` is the full line-aligned address reconstructed by the cache
    (tag + set index), so write-backs can be routed to the next level.
    """

    address: int
    dirty: bool
    owner: Optional[int]

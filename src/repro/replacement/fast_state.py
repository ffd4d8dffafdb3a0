"""Integer-encoded fast paths for the replacement policies.

The reference policies (:mod:`repro.replacement`) are written for clarity:
per-way Python lists, defensive ``_check_way`` validation, small helper
methods.  On the simulation hot path those costs dominate — every cache
access funnels through ``on_hit``/``on_fill``/``victim`` — so the fast
engine (:mod:`repro.engine`) runs each registered policy as one of the
state machines below instead: bit-packed integer state, precomputed touch
masks, shared victim lookup tables, and no per-call validation.

Parity contract
---------------
Every fast state must be *bit-identical* to its reference policy: the same
victim sequence, the same metadata transitions, and — critically — the same
draws from the same ``random.Random`` instance in the same order (the
reference engine stays the semantic oracle; ``tests/test_engine_parity.py``
fuzzes this equivalence for every registered policy).  A state takes its
reference policy's ``(ways, rng, **kwargs)`` and makes the same argument
checks and construction draws, so a fast set needs no policy object;
:func:`fast_state_factory` resolves a policy factory to its state class.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from typing import Callable, Dict, List, Tuple, Type

from repro.common.errors import ConfigurationError
from repro.replacement.base import PolicyFactory, ReplacementPolicy
from repro.replacement.bit_plru import BitPLRU
from repro.replacement.dirty_protect import DirtyProtectingLRU, check_protect_probs
from repro.replacement.fifo import FIFO
from repro.replacement.noisy_plru import NoisyTreePLRU, check_update_prob
from repro.replacement.nru import NRU
from repro.replacement.random_policy import LFSRPseudoRandom, UniformRandom
from repro.replacement.srrip import SRRIP, check_rrpv_bits
from repro.replacement.tree_plru import TreePLRU
from repro.replacement.true_lru import TrueLRU


class FastPolicyState:
    """Base of the fast policy states (duck-typed, no abc overhead): the
    hooks of the ``reference`` policy class (``randomize`` for its
    ``randomize_state``) without argument checks on in-range ways."""

    __slots__ = ("ways", "rng")

    reference: Type[ReplacementPolicy]

    wants_dirty_hint = False

    def __init__(self, ways: int, rng: random.Random) -> None:
        self.reference.check_ways(ways)
        self.ways = ways
        self.rng = rng

    def on_invalidate(self, way: int) -> None:
        pass

    def notify_dirty_ways(self, dirty_mask: Tuple[bool, ...]) -> None:
        pass


# ----------------------------------------------------------------------
# Tree-PLRU: W-1 tree bits packed into one int, O(1) touch via masks.
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tree_masks(ways: int) -> Tuple[List[int], List[int]]:
    """(clear_masks, set_masks) per way, shared by all sets of ``ways`` ways."""
    levels = ways.bit_length() - 1
    clear_masks: List[int] = []
    set_masks: List[int] = []
    all_bits = (1 << (ways - 1)) - 1
    for way in range(ways):
        node = 0
        touched = 0
        ones = 0
        for level in range(levels - 1, -1, -1):
            went_right = (way >> level) & 1
            touched |= 1 << node
            if not went_right:  # bit becomes 1: LRU side is the right subtree
                ones |= 1 << node
            node = 2 * node + 1 + went_right
        clear_masks.append(all_bits & ~touched)
        set_masks.append(ones)
    return clear_masks, set_masks


def _tree_walk(state: int, levels: int) -> int:
    """The way the victim walk over packed tree bits ``state`` ends at."""
    node = 0
    way = 0
    for _ in range(levels):
        direction = (state >> node) & 1
        way = (way << 1) | direction
        node = 2 * node + 1 + direction
    return way


#: Widest tree whose victims come from a table: the table has
#: ``2**(ways - 1)`` entries (32,768 at 16 ways, 2**31 at 32).
_TABLE_MAX_WAYS = 16


@functools.lru_cache(maxsize=None)
def _tree_victims(ways: int) -> List[int]:
    """State -> victim lookup table, shared by all sets of ``ways`` ways."""
    levels = ways.bit_length() - 1
    return [_tree_walk(state, levels) for state in range(1 << (ways - 1))]


class _TreeWalker:
    """State -> victim by walking the bits, for trees too wide to tabulate."""

    __slots__ = ("levels",)

    def __init__(self, ways: int) -> None:
        self.levels = ways.bit_length() - 1

    def __getitem__(self, state: int) -> int:
        return _tree_walk(state, self.levels)


class TreePLRUState(FastPolicyState):
    """Tree-PLRU with packed bits and a shared state->victim table (a walk
    of the bits above :data:`_TABLE_MAX_WAYS` ways)."""

    __slots__ = ("state", "_clear", "_set", "_victims")

    reference = TreePLRU

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.state = 0
        self._clear, self._set = _tree_masks(ways)
        self._victims = (
            _tree_victims(ways) if ways <= _TABLE_MAX_WAYS else _TreeWalker(ways)
        )

    def on_fill(self, way: int) -> None:
        self.state = (self.state & self._clear[way]) | self._set[way]

    on_hit = on_fill

    def victim(self) -> int:
        return self._victims[self.state]

    def randomize(self) -> None:
        # Reference: self._bits = [rng.randrange(2) for each node].
        rng = self.rng
        state = 0
        for node in range(self.ways - 1):
            if rng.randrange(2):
                state |= 1 << node
        self.state = state


class NoisyTreePLRUState(TreePLRUState):
    """Tree-PLRU whose fills update each path node only probabilistically."""

    __slots__ = ("update_prob", "_levels")

    reference = NoisyTreePLRU

    def __init__(
        self,
        ways: int,
        rng: random.Random,
        update_prob: float = NoisyTreePLRU.DEFAULT_UPDATE_PROB,
    ) -> None:
        super().__init__(ways, rng)
        check_update_prob(update_prob)
        self.update_prob = update_prob
        self._levels = ways.bit_length() - 1

    def on_fill(self, way: int) -> None:
        # Mirrors NoisyTreePLRU._touch_noisy: one rng.random() per level.
        rng_random = self.rng.random
        prob = self.update_prob
        node = 0
        state = self.state
        for level in range(self._levels - 1, -1, -1):
            went_right = (way >> level) & 1
            if rng_random() < prob:
                if went_right:
                    state &= ~(1 << node)
                else:
                    state |= 1 << node
            node = 2 * node + 1 + went_right
        self.state = state

    # on_hit stays the exact touch: TreePLRUState's on_fill.


# ----------------------------------------------------------------------
# Bit-PLRU / NRU: one reference bit per way, packed.
# ----------------------------------------------------------------------


class BitPLRUState(FastPolicyState):
    """MRU-bit pseudo-LRU on a packed bit mask."""

    __slots__ = ("mru", "count", "_full")

    reference = BitPLRU

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.mru = 0
        self.count = 0
        self._full = (1 << ways) - 1

    def _touch(self, way: int) -> None:
        bit = 1 << way
        if not self.mru & bit:
            if self.count == self.ways - 1:
                self.mru = 0
                self.count = 0
            self.mru |= bit
            self.count += 1

    on_fill = _touch
    on_hit = _touch

    def victim(self) -> int:
        clear = ~self.mru & self._full
        if not clear:
            return 0  # reference fallback, unreachable via the touch rule
        return (clear & -clear).bit_length() - 1

    def on_invalidate(self, way: int) -> None:
        bit = 1 << way
        if self.mru & bit:
            self.mru &= ~bit
            self.count -= 1

    def randomize(self) -> None:
        rng = self.rng
        mru = 0
        count = 0
        for way in range(self.ways):
            if rng.random() < 0.5:
                mru |= 1 << way
                count += 1
        if count == self.ways:
            mru &= ~(1 << rng.randrange(self.ways))
            count -= 1
        self.mru = mru
        self.count = count


class NRUState(FastPolicyState):
    """NRU reference bits packed into an int, plus the rotating pointer."""

    __slots__ = ("ref", "scan", "_full")

    reference = NRU

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.ref = 0
        self.scan = 0
        self._full = (1 << ways) - 1

    def _touch(self, way: int) -> None:
        self.ref |= 1 << way
        if self.ref == self._full:
            self.ref = 1 << way

    on_fill = _touch
    on_hit = _touch

    def victim(self) -> int:
        ways = self.ways
        ref = self.ref
        scan = self.scan
        for offset in range(ways):
            way = scan + offset
            if way >= ways:
                way -= ways
            if not (ref >> way) & 1:
                self.scan = (way + 1) % ways
                return way
        self.ref = 0
        way = scan
        self.scan = (way + 1) % ways
        return way

    def on_invalidate(self, way: int) -> None:
        self.ref &= ~(1 << way)

    def randomize(self) -> None:
        rng = self.rng
        ref = 0
        for way in range(self.ways):
            if rng.random() < 0.5:
                ref |= 1 << way
        self.ref = ref
        self.scan = rng.randrange(self.ways)


# ----------------------------------------------------------------------
# Random policies.
# ----------------------------------------------------------------------


class UniformRandomState(FastPolicyState):
    """Stateless uniform victim; one rng draw per victim request."""

    __slots__ = ()

    reference = UniformRandom

    def on_fill(self, way: int) -> None:
        pass

    on_hit = on_fill

    def victim(self) -> int:
        return self.rng.randrange(self.ways)

    def randomize(self) -> None:
        pass


class LFSRState(FastPolicyState):
    """Free-running 8-bit Galois LFSR (matches LFSRPseudoRandom)."""

    __slots__ = ("state", "_mask")

    reference = LFSRPseudoRandom
    _TAPS = LFSRPseudoRandom._TAPS

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        # The reference draws its seed state at construction too.
        self.state = rng.randrange(1, 256)
        self._mask = ways - 1

    def on_fill(self, way: int) -> None:
        pass

    on_hit = on_fill

    def victim(self) -> int:
        state = self.state
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= self._TAPS
        self.state = state
        return state & self._mask

    def randomize(self) -> None:
        self.state = self.rng.randrange(1, 256)


# ----------------------------------------------------------------------
# Ordered policies: LRU family, FIFO, SRRIP.
# ----------------------------------------------------------------------


class TrueLRUState(FastPolicyState):
    """Exact LRU order, least-recently-used first."""

    __slots__ = ("order",)

    reference = TrueLRU

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.order = list(range(ways))

    def _touch(self, way: int) -> None:
        order = self.order
        order.remove(way)
        order.append(way)

    on_fill = _touch
    on_hit = _touch

    def victim(self) -> int:
        return self.order[0]

    def on_invalidate(self, way: int) -> None:
        order = self.order
        order.remove(way)
        order.insert(0, way)

    def randomize(self) -> None:
        self.rng.shuffle(self.order)


class DirtyProtectState(TrueLRUState):
    """LRU with bounded probabilistic dirty-victim protection."""

    __slots__ = ("probs", "max_protections", "dirty_mask", "used")

    reference = DirtyProtectingLRU
    wants_dirty_hint = True

    def __init__(
        self,
        ways: int,
        rng: random.Random,
        protect_probs: Tuple[float, ...] = DirtyProtectingLRU.DEFAULT_PROTECT_PROBS,
    ) -> None:
        super().__init__(ways, rng)
        check_protect_probs(protect_probs)
        self.probs = tuple(protect_probs)
        self.max_protections = len(self.probs)
        self.dirty_mask = (False,) * ways
        self.used = [0] * ways

    def on_fill(self, way: int) -> None:
        self._touch(way)
        self.used[way] = 0

    def notify_dirty_ways(self, dirty_mask: Tuple[bool, ...]) -> None:
        self.dirty_mask = dirty_mask

    def victim(self) -> int:
        # Mirrors DirtyProtectingLRU.victim, including the rng.random()
        # draw per protected dirty candidate.
        rng_random = self.rng.random
        dirty = self.dirty_mask
        used = self.used
        for way in self.order:
            count = used[way]
            if (
                dirty[way]
                and count < self.max_protections
                and rng_random() < self.probs[count]
            ):
                used[way] = count + 1
                continue
            return way
        return self.order[0]


class FIFOState(FastPolicyState):
    """Round-robin insertion order; hits do not refresh."""

    __slots__ = ("queue",)

    reference = FIFO

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.queue = deque(range(ways))

    def on_fill(self, way: int) -> None:
        queue = self.queue
        if way in queue:
            queue.remove(way)
        queue.append(way)

    def on_hit(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self.queue[0]

    def on_invalidate(self, way: int) -> None:
        queue = self.queue
        if way in queue:
            queue.remove(way)
            queue.appendleft(way)

    def randomize(self) -> None:
        order = list(self.queue)
        self.rng.shuffle(order)
        self.queue = deque(order)


class SRRIPState(FastPolicyState):
    """SRRIP with every way's RRPV packed into one int.

    Way ``w``'s RRPV is the field at bit ``w * (rrpv_bits + 1)``, whose top
    bit is a guard that stays 0: adding ``ones`` (a 1 at the bottom of
    every field) sets the guard of exactly the ways at the maximum RRPV,
    and ages every other way by one.
    """

    __slots__ = ("state", "max_rrpv", "_stride", "_ones")

    reference = SRRIP

    def __init__(self, ways: int, rng: random.Random, rrpv_bits: int = 2) -> None:
        super().__init__(ways, rng)
        check_rrpv_bits(rrpv_bits)
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._stride = stride = rrpv_bits + 1
        self._ones = _field_ones(ways, stride)
        # Every way starts at the maximum ("distant") RRPV.
        self.state = self.max_rrpv * self._ones

    def on_fill(self, way: int) -> None:
        shift = way * self._stride
        max_rrpv = self.max_rrpv
        self.state = (self.state & ~(max_rrpv << shift)) | ((max_rrpv - 1) << shift)

    def on_hit(self, way: int) -> None:
        self.state &= ~(self.max_rrpv << (way * self._stride))

    def on_invalidate(self, way: int) -> None:
        self.state |= self.max_rrpv << (way * self._stride)

    def victim(self) -> int:
        # The reference ages every way by one until some way is at the
        # maximum, then returns the lowest such way.
        ones = self._ones
        guards = ones << (self._stride - 1)
        state = self.state
        at_max = (state + ones) & guards
        while not at_max:
            state += ones
            at_max = (state + ones) & guards
        self.state = state
        return ((at_max & -at_max).bit_length() - 1) // self._stride

    def randomize(self) -> None:
        randrange = self.rng.randrange
        state = 0
        for way in range(self.ways):
            state |= randrange(self.max_rrpv + 1) << (way * self._stride)
        self.state = state


@functools.lru_cache(maxsize=None)
def _field_ones(ways: int, stride: int) -> int:
    """A 1 at the bottom of each of ``ways`` fields, shared by their sets."""
    return sum(1 << (way * stride) for way in range(ways))


# ----------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------


#: Exact-type dispatch: subclasses must NOT inherit a parent's fast path
#: (NoisyTreePLRU subclasses TreePLRU but consumes extra rng draws), so
#: lookups match the factory's class exactly.
_FAST_STATES: Dict[Type[ReplacementPolicy], Type[FastPolicyState]] = {
    state.reference: state
    for state in (
        TreePLRUState, NoisyTreePLRUState, BitPLRUState, NRUState,
        UniformRandomState, LFSRState, TrueLRUState, DirtyProtectState,
        FIFOState, SRRIPState,
    )
}


def fast_state_factory(
    policy_factory: PolicyFactory,
) -> Callable[[int, random.Random], FastPolicyState]:
    """``factory(ways, rng)`` for the fast state of ``policy_factory``'s policy.

    Only :func:`~repro.replacement.registry.make_policy_factory` factories
    resolve; any other raises :class:`ConfigurationError`, with no fallback.
    """
    state_cls = _FAST_STATES.get(getattr(policy_factory, "func", None))
    if state_cls is None:
        raise ConfigurationError(
            f"no fast replacement state for {policy_factory!r}; the fast "
            "engine runs the policies make_policy_factory builds"
        )
    return functools.partial(state_cls, **policy_factory.keywords)

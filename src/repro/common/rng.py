"""Deterministic random-number plumbing.

Every stochastic component of the simulator takes an explicit
:class:`random.Random` instance (or a seed).  These helpers normalise the two
forms and derive statistically independent child generators so that, e.g.,
the scheduler-noise stream does not perturb the message stream when one
parameter changes.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional, Union

RngLike = Union[random.Random, int, None]


def ensure_rng(rng: RngLike) -> random.Random:
    """Coerce ``rng`` into a :class:`random.Random`.

    ``None`` produces a generator with a fixed default seed (0) — experiments
    in this library are reproducible by default, and callers wanting true
    variation must opt in by passing their own generator or seed.
    """
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random(0)
    return random.Random(rng)


def derive_rng(parent: random.Random, label: str) -> random.Random:
    """Derive an independent child generator from ``parent`` and a label.

    The label keeps derivations stable across code motion: adding a new
    consumer with a new label does not shift the streams of existing ones the
    way sequential ``parent.random()`` draws would.  The label is mixed in
    with CRC-32 rather than ``hash()`` because string hashing is randomised
    per process (PYTHONHASHSEED) and every experiment here must reproduce
    bit-for-bit across runs.
    """
    return random.Random(derive_seed(parent, label))


def derive_seed(parent: RngLike, label: str) -> int:
    """Derive a child *seed* from ``parent`` and a label.

    Same mixing as :func:`derive_rng` (so ``Random(derive_seed(s, label))``
    equals ``derive_rng(Random(s), label)`` for a fresh seed ``s``), but
    returns the integer seed itself — what the parallel runner stores in
    task specs and manifests so that shard seeds are reproducible from the
    manifest alone, independent of worker scheduling order.

    Passing an ``int`` (or ``None``) derives from a fresh generator and is
    therefore order-independent; passing a ``Random`` instance draws from
    it and advances its state, exactly like :func:`derive_rng`.
    """
    return mix_label(ensure_rng(parent).getrandbits(32), label)


def mix_label(word: int, label: str) -> int:
    """The child seed of a 32-bit parent draw ``word`` and a label.

    :func:`derive_seed` draws ``word`` with ``getrandbits(32)``.  A caller
    that needs many children can draw all their words at once instead:
    ``getrandbits(32 * n)`` holds the words that ``n`` sequential
    ``getrandbits(32)`` calls would return, the i-th in bits
    ``[32 * i, 32 * i + 32)``, and leaves the parent in the same state.
    """
    return word ^ zlib.crc32(label.encode("utf-8"))


#: The methods a :class:`LazyRandom` takes from its generator once built:
#: the draws the replacement policies and their fast states make.
_DRAWS = ("random", "randrange", "shuffle")


class LazyRandom:
    """``random.Random(seed)``, built on its first attribute read.

    A cache hands one to the policy of each set it builds.  Most policies
    never draw (tree-PLRU, SRRIP and LRU draw only in Table 2's
    ``randomize_state``), and a built generator takes ~2.9 kB, mostly
    Mersenne Twister state, so building it only when first read keeps
    an unused one at the size of this object (~0.1 kB).  Every read
    returns what the same read on ``random.Random(seed)`` would.

    Once built, the generator's draw methods are bound into this object's
    slots, so a draw is a slot read and no ``__getattr__`` call, which
    would make a ``random()`` draw ~10x slower; other names, such as
    ``getstate``, are forwarded.

    It is not a :class:`random.Random`: pass it to neither
    :func:`ensure_rng` nor ``random.Random(...)``, which on Python 3.9
    seeds from its hash without an error.
    """

    __slots__ = ("_seed", "_generator") + _DRAWS

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._generator: Optional[random.Random] = None

    def __getattr__(self, name: str):
        # Reached only for a name that is not in a filled slot.
        generator = self._generator
        if generator is None:
            generator = self._generator = random.Random(self._seed)
            for draw in _DRAWS:
                setattr(self, draw, getattr(generator, draw))
        return getattr(generator, name)

"""Per-access trace replay for the engine parity and telemetry tests.

A trace is a list of ``(line address, is_write)`` pairs.  :func:`replay`
feeds one through ``hierarchy.access``, the same walk every experiment
takes, and :func:`event_stream` reduces each access to what two engines
must agree on.  The generators are seeded, so one trace can be replayed
through several hierarchies.
"""

import random

#: The paper's L1: 64-byte lines, 64 sets, so same-set lines are 4 KB apart.
LINE_SIZE = 64
CONFLICT_STRIDE = 64 * 64
#: The L1 set every line of :func:`fig6_trace` maps to.
TARGET_SET = 21


def replay(hierarchy, trace, owner=None):
    """The :class:`~repro.cache.hierarchy.AccessTrace` of each access."""
    access = hierarchy.access
    return [access(address, write, owner) for address, write in trace]


def event_stream(hierarchy, trace, owner=None):
    """Per-access ``(hit_level, latency, l1_victim_dirty, evictions)``.

    Evictions are ``(level, victim_address, victim_dirty)`` tuples.
    """
    return [
        (
            step.hit_level,
            step.latency,
            step.l1_victim_dirty,
            tuple(
                (level, line.address, line.dirty)
                for level, line in step.evictions
            ),
        )
        for step in replay(hierarchy, trace, owner)
    ]


def random_trace(num_accesses, seed, working_set_lines=512, write_ratio=0.3):
    """Seeded loads and stores over a bounded working set.

    A quarter of the lines gets half the traffic, so accesses hit and
    miss at every level.
    """
    rng = random.Random(seed)
    hot_lines = max(1, working_set_lines // 4)
    trace = []
    for _ in range(num_accesses):
        if rng.random() < 0.5:
            line = rng.randrange(hot_lines)
        else:
            line = rng.randrange(working_set_lines)
        trace.append((line * LINE_SIZE, rng.random() < write_ratio))
    return trace


def _conflict_lines(count, base):
    offset = base + TARGET_SET * LINE_SIZE
    return [offset + i * CONFLICT_STRIDE for i in range(count)]


def fig6_trace(num_symbols, d, seed):
    """The Figure 6 channel loop flattened into one thread's trace.

    The sender's 8 lines and the receiver's two 10-line replacement sets
    all map to L1 set :data:`TARGET_SET`.  After loading each once, every
    symbol stores to the first ``d`` sender lines or to none (a coin
    flip) and then loads replacement set A or B in turn, each in a
    shuffled order.
    """
    rng = random.Random(seed)
    span = CONFLICT_STRIDE * 10
    sender = _conflict_lines(8, base=0)
    chase_a = _conflict_lines(10, base=span)
    chase_b = _conflict_lines(10, base=2 * span)
    rng.shuffle(chase_a)
    rng.shuffle(chase_b)
    trace = [(line, False) for line in sender + chase_a + chase_b]
    for symbol in range(num_symbols):
        dirty_count = d if rng.random() < 0.5 else 0
        trace.extend((line, True) for line in sender[:dirty_count])
        chase = chase_a if symbol % 2 == 0 else chase_b
        trace.extend((line, False) for line in chase)
    return trace

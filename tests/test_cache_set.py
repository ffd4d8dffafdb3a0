"""CacheSet: fills, evictions, locking, dirty accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.cache.cache_set import CacheSet
from repro.cache.line import EMPTY_LINE, CacheLine
from repro.replacement import TrueLRU


def make_set(ways=4, seed=0):
    return CacheSet(ways, TrueLRU(ways, random.Random(seed)))


def addr(tag, set_index):
    return tag  # trivial reconstructor for unit tests


#: Field values of an invalid line, which the shared empty line must keep.
EMPTY_FIELDS = (0, False, False, False, None)


def fields(line):
    return (line.tag, line.valid, line.dirty, line.locked, line.owner)


def own_lines(cache_set):
    """The distinct line objects of ``cache_set`` other than the shared one."""
    return {id(line) for line in cache_set.lines if line is not EMPTY_LINE}


class TestFill:
    def test_fills_invalid_ways_first(self):
        cache_set = make_set()
        for tag in range(4):
            evicted = cache_set.fill(tag, False, None, 0, addr)
            assert evicted is None
        assert cache_set.valid_count() == 4

    def test_eviction_reports_victim(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
        evicted = cache_set.fill(99, False, None, 0, addr)
        assert evicted is not None
        assert evicted.address == 0  # LRU: tag 0 was oldest
        assert not evicted.dirty

    def test_dirty_state_travels_with_eviction(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, tag == 0, None, 0, addr)
        evicted = cache_set.fill(99, False, None, 0, addr)
        assert evicted.dirty

    def test_refusing_duplicate_fill(self):
        cache_set = make_set()
        cache_set.fill(7, False, None, 0, addr)
        with pytest.raises(SimulationError):
            cache_set.fill(7, False, None, 0, addr)

    def test_owner_recorded(self):
        cache_set = make_set()
        cache_set.fill(1, False, 5, 0, addr)
        way = cache_set.find(1)
        assert cache_set.lines[way].owner == 5


class TestFindAndTouch:
    def test_find_present(self):
        cache_set = make_set()
        cache_set.fill(3, False, None, 0, addr)
        assert cache_set.find(3) is not None

    def test_find_absent(self):
        cache_set = make_set()
        assert cache_set.find(3) is None

    def test_touch_protects_from_eviction(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
        cache_set.touch(cache_set.find(0))
        evicted = cache_set.fill(99, False, None, 0, addr)
        assert evicted.address != 0


class TestLocking:
    def test_locked_line_never_evicted(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
        assert cache_set.lock(0)
        for fresh in range(100, 110):
            cache_set.fill(fresh, False, None, 0, addr)
        assert cache_set.find(0) is not None

    def test_all_locked_raises(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
            cache_set.lock(tag)
        with pytest.raises(SimulationError):
            cache_set.choose_victim()

    def test_unlock_restores_evictability(self):
        cache_set = make_set(ways=2)
        cache_set.fill(0, False, None, 0, addr)
        cache_set.fill(1, False, None, 0, addr)
        cache_set.lock(0)
        cache_set.lock(1)
        cache_set.unlock(0)
        assert cache_set.choose_victim() == cache_set.find(0)

    def test_lock_absent_returns_false(self):
        cache_set = make_set()
        assert not cache_set.lock(123)
        assert not cache_set.unlock(123)


class TestAllowedWays:
    def test_fill_respects_allowed_ways(self):
        cache_set = make_set(ways=4)
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
        for fresh in range(10, 20):
            cache_set.fill(fresh, False, None, 0, addr, allowed_ways=(0, 1))
        # Ways 2 and 3 still hold the original lines.
        assert cache_set.lines[2].tag in range(4)
        assert cache_set.lines[3].tag in range(4)

    def test_empty_allowed_ways_rejected(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
        with pytest.raises(ConfigurationError):
            cache_set.choose_victim(allowed_ways=())


class TestInvalidate:
    def test_invalidate_reports_final_state(self):
        cache_set = make_set()
        cache_set.fill(5, True, 2, 0, addr)
        snapshot = cache_set.invalidate(5)
        assert snapshot.dirty
        assert snapshot.owner == 2
        assert cache_set.find(5) is None

    def test_invalidate_absent(self):
        cache_set = make_set()
        assert cache_set.invalidate(5) is None


class TestAccounting:
    def test_dirty_count(self):
        cache_set = make_set()
        cache_set.fill(0, True, None, 0, addr)
        cache_set.fill(1, False, None, 0, addr)
        cache_set.fill(2, True, None, 0, addr)
        assert cache_set.dirty_count() == 2

    def test_resident_tags(self):
        cache_set = make_set()
        cache_set.fill(4, False, None, 0, addr)
        cache_set.fill(9, False, None, 0, addr)
        assert sorted(cache_set.resident_tags()) == [4, 9]


class TestConstruction:
    def test_policy_way_mismatch(self):
        with pytest.raises(ConfigurationError):
            CacheSet(4, TrueLRU(8, random.Random(0)))

    def test_zero_ways(self):
        with pytest.raises(ConfigurationError):
            CacheSet(0, TrueLRU(1, random.Random(0)))


class TestDirtyHintGating:
    """The dirty-ways hint is built only for policies that opted in."""

    def test_default_policy_never_receives_hint(self):
        calls = []

        class SpyLRU(TrueLRU):
            def notify_dirty_ways(self, dirty_mask):
                calls.append(dirty_mask)

        cache_set = CacheSet(4, SpyLRU(4, random.Random(0)))
        for tag in range(4):
            cache_set.fill(tag, True, None, 0, addr)
        cache_set.fill(99, False, None, 0, addr)  # forces a victim choice
        assert calls == []  # wants_dirty_hint defaults to False

    def test_opted_in_policy_receives_current_dirty_mask(self):
        calls = []

        class HintedLRU(TrueLRU):
            wants_dirty_hint = True

            def notify_dirty_ways(self, dirty_mask):
                calls.append(dirty_mask)

        cache_set = CacheSet(4, HintedLRU(4, random.Random(0)))
        for tag in range(4):
            cache_set.fill(tag, tag % 2 == 0, None, 0, addr)
        cache_set.fill(99, False, None, 0, addr)
        assert len(calls) == 1
        # The mask describes the set at victim-selection time: the dirty
        # fills (tags 0, 2) were dirty, the clean ones were not.
        assert len(calls[0]) == 4
        assert sum(calls[0]) == 2

    def test_dirty_protecting_policy_opts_in(self):
        from repro.replacement.dirty_protect import DirtyProtectingLRU

        assert DirtyProtectingLRU.wants_dirty_hint
        assert not TrueLRU.wants_dirty_hint


class TestIncrementalCounters:
    def test_counters_follow_fill_markdirty_invalidate(self):
        cache_set = make_set()
        cache_set.fill(0, False, None, 0, addr)
        cache_set.fill(1, True, None, 0, addr)
        assert (cache_set.valid_count(), cache_set.dirty_count()) == (2, 1)
        cache_set.mark_dirty(cache_set.find(0))
        assert cache_set.dirty_count() == 2
        cache_set.mark_dirty(cache_set.find(0))  # idempotent
        assert cache_set.dirty_count() == 2
        cache_set.invalidate(1)
        assert (cache_set.valid_count(), cache_set.dirty_count()) == (1, 1)
        cache_set.invalidate_all()
        assert (cache_set.valid_count(), cache_set.dirty_count()) == (0, 0)

    def test_mark_dirty_on_invalid_way_raises(self):
        cache_set = make_set()
        with pytest.raises(SimulationError):
            cache_set.mark_dirty(0)

    def test_counters_never_drift_from_scan(self):
        rng = random.Random(42)
        cache_set = make_set(ways=4, seed=1)
        for step in range(600):
            op = rng.randrange(4)
            if op == 0:
                tag = rng.randrange(12)
                if cache_set.find(tag) is None:
                    cache_set.fill(tag, rng.random() < 0.5, None, 0, addr)
            elif op == 1:
                cache_set.invalidate(rng.randrange(12))
            elif op == 2:
                way = rng.randrange(4)
                if cache_set.lines[way].valid:
                    cache_set.mark_dirty(way)
            else:
                if rng.random() < 0.05:
                    cache_set.invalidate_all()
            assert cache_set.scan_counts() == (
                cache_set.valid_count(),
                cache_set.dirty_count(),
            )


class TestTagIndex:
    def test_index_never_goes_stale(self):
        """The tag -> way index always equals a fresh scan of the lines."""
        rng = random.Random(7)
        cache_set = make_set(ways=4, seed=2)
        for step in range(600):
            op = rng.randrange(3)
            tag = rng.randrange(10)
            if op == 0 and cache_set.find(tag) is None:
                cache_set.fill(tag, rng.random() < 0.3, None, 0, addr)
            elif op == 1:
                cache_set.invalidate(tag)
            elif op == 2 and rng.random() < 0.05:
                cache_set.invalidate_all()
            rebuilt = {
                line.tag: way
                for way, line in enumerate(cache_set.lines)
                if line.valid
            }
            assert cache_set.index_snapshot() == rebuilt
            # find() answers exactly like a scan would, for every tag.
            for probe in range(10):
                assert cache_set.find(probe) == rebuilt.get(probe)

    def test_eviction_removes_victim_tag_from_index(self):
        cache_set = make_set()
        for tag in range(4):
            cache_set.fill(tag, False, None, 0, addr)
        evicted = cache_set.fill(99, False, None, 0, addr)
        assert evicted is not None
        assert cache_set.find(evicted.address) is None  # addr() returns tag
        assert 99 in cache_set.index_snapshot()


class TestSharedEmptyLine:
    """Ways share one read-only empty line until a fill reaches them."""

    def test_fresh_sets_refer_to_the_one_empty_line(self):
        first, second = make_set(ways=8), make_set(ways=4)
        assert all(line is EMPTY_LINE for line in first.lines + second.lines)
        assert type(EMPTY_LINE) is not CacheLine
        assert fields(EMPTY_LINE) == EMPTY_FIELDS

    @pytest.mark.parametrize("field", ["tag", "valid", "dirty", "locked", "owner"])
    def test_empty_line_rejects_every_write(self, field):
        with pytest.raises(AttributeError):
            setattr(EMPTY_LINE, field, 1)
        with pytest.raises(AttributeError):
            object.__setattr__(EMPTY_LINE, field, 1)
        with pytest.raises(AttributeError):
            delattr(EMPTY_LINE, field)
        assert fields(EMPTY_LINE) == EMPTY_FIELDS

    def test_a_stray_write_through_the_set_cannot_reach_it(self):
        cache_set = make_set()
        with pytest.raises(AttributeError):
            cache_set.set_owner(0, 3)
        with pytest.raises(AttributeError):
            cache_set.lines[1].invalidate()
        assert fields(EMPTY_LINE) == EMPTY_FIELDS

    def test_fills_build_one_line_per_way_reached(self):
        cache_set = make_set(ways=8)
        reached = set()
        for tag in range(3):
            cache_set.fill(tag, tag == 1, 2, 0, addr)
            reached.add(cache_set.find(tag))
        cache_set.fill(10, False, None, 0, addr, allowed_ways=(6,))
        reached.add(cache_set.find(10))
        assert reached == {0, 1, 2, 6}
        assert len(own_lines(cache_set)) == 4
        # An invalidated way keeps its line; refilling reuses it.
        line = cache_set.lines[1]
        cache_set.invalidate(1)
        cache_set.fill(11, False, None, 0, addr)
        assert cache_set.lines[1] is line and line.tag == 11
        assert len(own_lines(cache_set)) == 4
        for way, line in enumerate(cache_set.lines):
            assert (line is EMPTY_LINE) == (way not in reached)

    @settings(max_examples=60, deadline=None)
    @given(
        ways=st.sampled_from((1, 2, 4, 8)),
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["fill", "fill_allowed", "hit", "mark_dirty", "lock",
                     "invalidate", "invalidate_all"]
                ),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=1, max_value=255),
            ),
            max_size=60,
        ),
    )
    def test_no_operation_changes_the_empty_line(self, ways, seed, ops):
        cache_set = make_set(ways=ways, seed=seed)
        reached = set()
        for op, tag, bits in ops:
            way = tag % ways
            if op in ("fill", "fill_allowed") and cache_set.find(tag) is None:
                allowed = None
                if op == "fill_allowed":
                    allowed = [w for w in range(ways) if bits >> w & 1] or [way]
                try:
                    cache_set.fill(tag, bits & 1 == 1, bits % 3, 0, addr, allowed)
                except SimulationError:
                    pass  # every permitted way locked: the set is unchanged
                else:
                    reached.add(cache_set.find(tag))
            elif op == "hit" and cache_set.find(tag) is not None:
                hit = cache_set.find(tag)
                cache_set.touch(hit)
                cache_set.set_owner(hit, bits)
            elif op == "mark_dirty":
                if cache_set.lines[way].valid:
                    cache_set.mark_dirty(way)
                else:
                    with pytest.raises(SimulationError):
                        cache_set.mark_dirty(way)
            elif op == "lock":
                cache_set.lock(tag)
            elif op == "invalidate":
                cache_set.invalidate(tag)
            elif op == "invalidate_all":
                cache_set.invalidate_all()
            assert fields(EMPTY_LINE) == EMPTY_FIELDS
            assert len(own_lines(cache_set)) == len(reached)
            assert cache_set.scan_counts() == (
                cache_set.valid_count(),
                cache_set.dirty_count(),
            )

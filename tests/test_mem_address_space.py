"""Paging and the no-shared-memory property of the threat model."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.mem.address_space import PAGE_SIZE, FrameAllocator


class TestFrameAllocator:
    def test_sequential_frames_distinct(self):
        allocator = FrameAllocator()
        frames = [allocator.allocate() for _ in range(100)]
        assert len(set(frames)) == 100

    def test_release_recycles(self):
        allocator = FrameAllocator()
        frame = allocator.allocate()
        allocator.release(frame)
        assert allocator.allocate() == frame

    def test_exhaustion_raises(self):
        allocator = FrameAllocator(total_frames=2)
        allocator.allocate()
        allocator.allocate()
        with pytest.raises(SimulationError):
            allocator.allocate()

    def test_shuffled_allocation_distinct(self):
        allocator = FrameAllocator(shuffle=True)
        frames = [allocator.allocate() for _ in range(500)]
        assert len(set(frames)) == 500

    def test_rejects_bad_release(self):
        allocator = FrameAllocator(total_frames=4)
        with pytest.raises(ConfigurationError):
            allocator.release(99)


class TestAddressSpace:
    def test_page_offset_preserved(self, space):
        physical = space.translate(0x1234)
        assert physical & (PAGE_SIZE - 1) == 0x234

    def test_same_page_same_frame(self, space):
        assert space.translate(0x1000) >> 12 == space.translate(0x1FFF) >> 12

    def test_different_pages_different_frames(self, space):
        assert space.translate(0x1000) >> 12 != space.translate(0x2000) >> 12

    def test_translation_is_stable(self, space):
        assert space.translate(0x5000) == space.translate(0x5000)

    def test_rejects_negative_address(self, space):
        with pytest.raises(ConfigurationError):
            space.translate(-1)

    def test_no_shared_memory_between_processes(self, space_pair):
        # The threat-model property: same VA in two processes maps to
        # different physical lines.
        first, second = space_pair
        assert first.translate(0x4000) != second.translate(0x4000)

    def test_is_mapped(self, space):
        assert not space.is_mapped(0x9000)
        space.translate(0x9000)
        assert space.is_mapped(0x9000)


class TestBufferAllocation:
    def test_buffers_do_not_overlap(self, space):
        first = space.allocate_buffer(8192)
        second = space.allocate_buffer(8192)
        assert second >= first + 8192

    def test_alignment(self, space):
        base = space.allocate_buffer(100, align=PAGE_SIZE)
        assert base % PAGE_SIZE == 0

    def test_rejects_bad_align(self, space):
        with pytest.raises(ConfigurationError):
            space.allocate_buffer(100, align=3)

    def test_rejects_zero_size(self, space):
        with pytest.raises(ConfigurationError):
            space.allocate_buffer(0)

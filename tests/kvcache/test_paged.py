"""Tests for the paged block allocator."""

import pytest

from repro.kvcache.paged import OutOfBlocksError, PagedAllocator


class TestPagedAllocator:
    def test_basic_accounting(self):
        alloc = PagedAllocator(num_blocks=4, block_size=16)
        alloc.append(("s0",), 10)
        assert alloc.used_blocks == 1
        assert alloc.stream_tokens(("s0",)) == 10
        assert alloc.free_tokens() == 3 * 16 + 6

    def test_utilization(self):
        alloc = PagedAllocator(num_blocks=4, block_size=16)
        assert alloc.utilization() == 0.0
        alloc.append(("s0",), 10)
        alloc.append(("s1",), 20)
        # block-granular: 1 + 2 claimed blocks out of 4
        assert alloc.utilization() == pytest.approx(0.75)
        alloc.release(("s1",))
        assert alloc.utilization() == pytest.approx(0.25)

    def test_empty_pool_utilization(self):
        assert PagedAllocator(num_blocks=0, block_size=16).utilization() == 0.0

    def test_fill_partial_block_first(self):
        alloc = PagedAllocator(num_blocks=2, block_size=16)
        alloc.append(("s0",), 10)
        alloc.append(("s0",), 6)  # fits in the first block's slack
        assert alloc.used_blocks == 1
        alloc.append(("s0",), 1)
        assert alloc.used_blocks == 2

    def test_oom_raises_and_rolls_back(self):
        alloc = PagedAllocator(num_blocks=2, block_size=4)
        alloc.append(("a",), 4)
        with pytest.raises(OutOfBlocksError):
            alloc.append(("b",), 9)  # needs 3 blocks, only 1 free
        # rollback: the free block is still available
        assert alloc.free_blocks == 1
        alloc.append(("b",), 4)
        assert alloc.free_blocks == 0

    def test_rollback_preserves_existing_stream(self):
        alloc = PagedAllocator(num_blocks=2, block_size=4)
        alloc.append(("a",), 3)
        with pytest.raises(OutOfBlocksError):
            alloc.append(("a",), 20)
        assert alloc.stream_tokens(("a",)) == 3

    def test_release(self):
        alloc = PagedAllocator(num_blocks=3, block_size=8)
        alloc.append(("a",), 20)
        assert alloc.release(("a",)) == 3
        assert alloc.free_blocks == 3
        assert alloc.stream_tokens(("a",)) == 0
        assert alloc.release(("missing",)) == 0

    def test_multiple_streams(self):
        alloc = PagedAllocator(num_blocks=4, block_size=4)
        alloc.append(("a",), 5)
        alloc.append(("b",), 3)
        assert set(alloc.streams()) == {("a",), ("b",)}
        assert alloc.used_blocks == 3

    def test_zero_append_is_noop(self):
        alloc = PagedAllocator(num_blocks=1, block_size=4)
        alloc.append(("a",), 0)
        assert alloc.used_blocks == 0

    def test_zero_append_registers_no_phantom_stream(self):
        """Regression: ``append(key, 0)`` on a fresh key used to leave a
        zero-block entry in ``streams()`` forever, polluting every
        victim-selection walk over it."""
        alloc = PagedAllocator(num_blocks=2, block_size=4)
        alloc.append(("ghost",), 0)
        assert alloc.streams() == []
        assert alloc.stream_tokens(("ghost",)) == 0
        assert alloc.free_tokens() == 8
        # releasing the never-registered key is a clean no-op
        assert alloc.release(("ghost",)) == 0
        # zero-append to an EXISTING stream stays a plain no-op
        alloc.append(("a",), 3)
        alloc.append(("a",), 0)
        assert alloc.streams() == [("a",)]
        assert alloc.stream_tokens(("a",)) == 3

    def test_streams_never_lists_zero_block_entries(self):
        """Every listed stream owns at least one block."""
        alloc = PagedAllocator(num_blocks=4, block_size=4)
        alloc.append(("a",), 0)
        alloc.append(("b",), 5)
        alloc.release_tail(("b",), 5)
        alloc.append(("c",), 2)
        assert alloc.streams() == [("c",)]

    def test_release_unknown_is_noop(self):
        alloc = PagedAllocator(num_blocks=1, block_size=4)
        assert alloc.release(("nope",)) == 0
        assert alloc.free_blocks == 1

    def test_release_tail_frees_whole_blocks_only(self):
        alloc = PagedAllocator(num_blocks=4, block_size=4)
        alloc.append(("a",), 13)  # 4 blocks: 4+4+4+1
        assert alloc.release_tail(("a",), 1) == 1  # 12 left: exactly 3 blocks
        assert alloc.stream_tokens(("a",)) == 12
        assert alloc.release_tail(("a",), 2) == 0  # 10 left: still 3 blocks
        assert alloc.stream_tokens(("a",)) == 10
        assert alloc.release_tail(("a",), 7) == 2  # 3 left: 1 block
        assert alloc.free_blocks == 3
        # slack in the kept partial block is appendable again
        assert alloc.free_tokens() == 3 * 4 + 1

    def test_release_tail_to_zero_deregisters(self):
        alloc = PagedAllocator(num_blocks=2, block_size=4)
        alloc.append(("a",), 6)
        assert alloc.release_tail(("a",), 6) == 2
        assert alloc.streams() == []
        assert alloc.free_blocks == 2

    def test_release_tail_validation(self):
        alloc = PagedAllocator(num_blocks=2, block_size=4)
        alloc.append(("a",), 3)
        with pytest.raises(ValueError):
            alloc.release_tail(("a",), -1)
        with pytest.raises(ValueError):
            alloc.release_tail(("a",), 4)  # more than stored
        with pytest.raises(ValueError):
            alloc.release_tail(("missing",), 1)
        assert alloc.release_tail(("a",), 0) == 0
        assert alloc.release_tail(("missing",), 0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedAllocator(num_blocks=-1, block_size=4)
        with pytest.raises(ValueError):
            PagedAllocator(num_blocks=1, block_size=0)
        alloc = PagedAllocator(num_blocks=1, block_size=4)
        with pytest.raises(ValueError):
            alloc.append(("a",), -1)

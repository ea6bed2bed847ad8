"""Unit tests: RankKVCache prefix sharing (slab aliasing + accounting)."""

import numpy as np
import pytest

from repro.kvcache.cache import RankKVCache


def make_cache(**kw):
    return RankKVCache(n_layers=2, n_kv_heads=2, head_dim=4, **kw)


def fill(cache, seq_id, positions):
    positions = np.asarray(positions, dtype=np.int64)
    rng = np.random.default_rng(int(positions.sum()) + seq_id)
    for layer in range(cache.n_layers):
        k = rng.standard_normal((positions.size, 2, 4))
        v = rng.standard_normal((positions.size, 2, 4))
        cache.append(layer, seq_id, k, v, positions)


class TestSharePrefix:
    def test_shared_view_matches_donor_prefix(self):
        cache = make_cache()
        fill(cache, 0, np.arange(10))
        shared = cache.share_prefix(0, 1, 6)
        assert shared == 6
        for layer in range(2):
            src = cache.get(layer, [0])
            dst = cache.get(layer, [1])
            keep = src.positions < 6
            np.testing.assert_array_equal(dst.positions, src.positions[keep])
            np.testing.assert_array_equal(dst.k, src.k[keep])
            np.testing.assert_array_equal(dst.v, src.v[keep])
            assert set(dst.seq_ids) == {1}

    def test_shared_prefix_is_aliased_not_copied(self):
        cache = make_cache()
        fill(cache, 0, np.arange(4))
        fill(cache, 0, np.arange(4, 8))
        cache.share_prefix(0, 1, 4)
        src, dst = cache.get(0, [0]), cache.get(0, [1])
        assert np.shares_memory(dst.k, src.k)
        assert np.shares_memory(dst.v, src.v)

    def test_cut_inside_an_append_is_aliased_too(self):
        cache = make_cache()
        fill(cache, 0, np.arange(8))
        cache.share_prefix(0, 1, 5)
        src, dst = cache.get(0, [0]), cache.get(0, [1])
        assert dst.k.shape[0] == 5
        assert np.shares_memory(dst.k, src.k)
        assert not dst.k.flags.writeable

    def test_allocator_accounts_shared_blocks_once(self):
        cache = make_cache(capacity_tokens=64, block_size=4)
        fill(cache, 0, np.arange(10))
        used = cache._allocator.used_blocks
        cache.share_prefix(0, 1, 8)
        assert cache._allocator.used_blocks == used
        assert cache.tokens(1) == 8

    def test_appends_never_disturb_the_other_stream(self):
        cache = make_cache(capacity_tokens=64, block_size=4)
        fill(cache, 0, np.arange(6))
        cache.share_prefix(0, 1, 6)
        before = cache.get(0, [0])
        fill(cache, 1, np.arange(6, 12))
        after = cache.get(0, [0])
        np.testing.assert_array_equal(before.k, after.k)
        assert cache.tokens(1) == 12
        assert cache.tokens(0) == 6

    def test_drop_dst_keeps_donor(self):
        cache = make_cache(capacity_tokens=64, block_size=4)
        fill(cache, 0, np.arange(10))
        cache.share_prefix(0, 1, 10)
        cache.drop(1)
        assert cache.tokens(0) == 10
        assert cache.tokens(1) == 0
        # donor's blocks are exclusive again
        blocks = cache._allocator.stream_blocks((0,))
        assert all(cache._allocator.block_refcount(b) == 1 for b in blocks)

    def test_drop_donor_keeps_dst(self):
        cache = make_cache(capacity_tokens=64, block_size=4)
        fill(cache, 0, np.arange(10))
        cache.share_prefix(0, 1, 10)
        cache.drop(0)
        assert cache.tokens(1) == 10
        got = cache.get(0, [1])
        assert got.positions.size == 10

    def test_drop_tail_into_shared_span(self):
        cache = make_cache(capacity_tokens=64, block_size=4)
        fill(cache, 0, np.arange(10))
        cache.share_prefix(0, 1, 10)
        cache.drop_tail(1, 4)  # trim dst below the shared span
        assert cache.tokens(1) == 4
        assert cache.tokens(0) == 10  # donor untouched
        src = cache.get(0, [0])
        assert src.positions.size == 10

    def test_share_validation(self):
        cache = make_cache()
        fill(cache, 0, np.arange(4))
        with pytest.raises(ValueError):
            cache.share_prefix(0, 0, 2)
        with pytest.raises(ValueError):
            cache.share_prefix(0, 1, 0)
        cache.share_prefix(0, 1, 4)
        with pytest.raises(ValueError):
            cache.share_prefix(0, 1, 2)  # dst exists

    def test_share_nothing_below_cut(self):
        cache = make_cache()
        fill(cache, 0, np.arange(5, 9))  # donor holds only positions >= 5
        assert cache.share_prefix(0, 1, 5) == 0
        assert cache.tokens(1) == 0

    def test_quantized_share(self):
        cache = make_cache(capacity_tokens=64, block_size=4, quantized=True)
        fill(cache, 0, np.arange(8))
        shared = cache.share_prefix(0, 1, 6)
        assert shared == 6
        src = cache.get(0, [0])
        dst = cache.get(0, [1])
        keep = src.positions < 6
        np.testing.assert_array_equal(dst.k, src.k[keep])

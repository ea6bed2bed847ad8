"""Tests for the per-rank KV cache."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.kvcache.cache import CacheCapacityError, RankKVCache
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel


def make_cache(**kwargs):
    return RankKVCache(n_layers=2, n_kv_heads=2, head_dim=4, **kwargs)


def kv_chunk(n, value=1.0):
    k = np.full((n, 2, 4), value)
    v = np.full((n, 2, 4), -value)
    return k, v


class TestAppendGet:
    def test_roundtrip(self):
        cache = make_cache()
        k, v = kv_chunk(3)
        cache.append(0, 7, k, v, np.array([0, 1, 2]))
        got = cache.get(0)
        assert len(got) == 3
        np.testing.assert_array_equal(got.k, k)
        np.testing.assert_array_equal(got.v, v)
        np.testing.assert_array_equal(got.positions, [0, 1, 2])
        np.testing.assert_array_equal(got.seq_ids, [7, 7, 7])

    def test_chunked_appends_concatenate(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2, 1.0), np.array([0, 1]))
        cache.append(0, 1, *kv_chunk(1, 2.0), np.array([2]))
        got = cache.get(0)
        assert len(got) == 3
        np.testing.assert_array_equal(got.positions, [0, 1, 2])
        assert got.k[2, 0, 0] == 2.0

    def test_layers_independent(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(1, 1, *kv_chunk(3), np.array([0, 1, 2]))
        assert len(cache.get(0)) == 2
        assert len(cache.get(1)) == 3
        # ... also for reads that name their sequences (equal lists, not one
        # round's list: nothing of layer 0's is shared, nothing is checked)
        assert len(cache.get(0, [1])) == 2 and len(cache.get(1, [1])) == 3

    def test_sequence_filter(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(0, 2, *kv_chunk(4), np.array([0, 1, 2, 3]))
        assert len(cache.get(0, [1])) == 2
        assert len(cache.get(0, [2])) == 4
        assert len(cache.get(0, [1, 2])) == 6
        assert len(cache.get(0, [99])) == 0

    def test_empty_get(self):
        cache = make_cache()
        got = cache.get(0)
        assert len(got) == 0
        assert got.k.shape == (0, 2, 4)

    def test_zero_token_append_noop(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(0), np.zeros(0, dtype=np.int64))
        assert cache.total_tokens(0) == 0


def _rows(positions, seed=0):
    """Random ``(k, v, positions)`` rows, different per layer ``seed``."""
    positions = np.asarray(positions, dtype=np.int64)
    rng = np.random.default_rng(seed + int(positions[0]))
    return rng.standard_normal((positions.size, 2, 4)), rng.standard_normal((positions.size, 2, 4)), positions


class TestStructureIsSharedAcrossLayers:
    """Only K and V are a layer's own: what else a read derives — positions,
    sequence ids, runs, run index, the ring's reach — a layer-0 read hands
    to the later layers' reads of the same round (the same ``seq_ids`` list),
    read-only, after checking that their streams are as long as its own."""

    FIELDS = ("positions", "seq_ids", "runs", "run_index", "reach")

    @staticmethod
    def fill(cache, sids=(5, 2, 8), layers=(0, 1)):
        for layer in layers:
            for sid in sids:
                k, v, p = _rows(np.arange(sid, sid + 2 + sid % 3), seed=layer)
                cache.append(layer, sid, k, v, p)

    @pytest.mark.parametrize("request_ids", [[5, 9, 2, 8], [2]], ids=["fused", "view"])
    def test_reused_structure_equals_a_fresh_read_field_by_field(self, request_ids):
        from repro.core.ring_skip import kv_reach

        cache = make_cache()
        self.fill(cache)
        first = cache.get(0, request_ids)
        later = cache.get(1, request_ids)
        fresh = cache.get(1, list(request_ids))  # an equal list is not the round's list
        for name in self.FIELDS:
            assert getattr(later, name) is getattr(first, name)
            assert getattr(fresh, name) is not getattr(first, name)
            got, want = getattr(later, name), getattr(fresh, name)
            assert got == want if isinstance(want, dict) else np.array_equal(got, want)
        np.testing.assert_array_equal(later.k, fresh.k)
        np.testing.assert_array_equal(later.v, fresh.v)
        assert not np.array_equal(later.k, first.k)  # K and V are layer 1's
        assert later.reach == kv_reach(later.positions, later.seq_ids, later.runs)
        for name in self.FIELDS[:3]:
            with pytest.raises(ValueError):
                getattr(later, name)[0] = 99

    def test_a_length_mismatch_at_one_layer_raises(self):
        """A layer that holds another token count than layer 0 is never
        handed layer 0's structure: the read raises."""
        cache = make_cache()
        self.fill(cache)
        cache.append(1, 2, *_rows([9]))  # layer 1 only
        sids = [5, 2, 8]
        cache.get(0, sids)
        with pytest.raises(ValueError, match="same token set"):
            cache.get(1, sids)
        assert len(cache.get(1, list(sids))) == len(cache.get(0, sids)) + 1  # unshared reads still serve

    def test_a_missing_stream_at_one_layer_raises(self):
        cache = make_cache()
        self.fill(cache)
        self.fill(cache, sids=(4,), layers=(0,))
        sids = [5, 4, 2, 8]
        cache.get(0, sids)
        with pytest.raises(ValueError, match="same token set"):
            cache.get(1, sids)

    @pytest.mark.parametrize(
        "write",
        [
            lambda c: c.append(0, 2, *_rows([20])),
            lambda c: c.drop_tail(8, 9),
            lambda c: c.drop(5),
            lambda c: c.share_prefix(5, 11, 6),
        ],
        ids=["append", "drop_tail", "drop", "share_prefix"],
    )
    def test_any_write_ends_the_sharing(self, write):
        """A structure is a round's: after a write the next read derives its
        own, from the streams as they now are."""
        cache = make_cache()
        self.fill(cache)
        sids = [5, 2, 8]
        stale = cache.get(0, sids)
        write(cache)
        later = cache.get(1, sids)
        assert later.positions is not stale.positions
        want = cache.get(1, list(sids))
        np.testing.assert_array_equal(later.positions, want.positions)
        np.testing.assert_array_equal(later.seq_ids, want.seq_ids)


class TestCapacity:
    def test_oom_raised(self):
        cache = make_cache(capacity_tokens=8, block_size=4)
        cache.append(0, 1, *kv_chunk(8), np.arange(8))
        with pytest.raises(CacheCapacityError):
            cache.append(0, 2, *kv_chunk(1), np.array([0]))

    def test_only_layer0_charged(self):
        """All layers store the same tokens; capacity is counted once."""
        cache = make_cache(capacity_tokens=4, block_size=4)
        cache.append(0, 1, *kv_chunk(4), np.arange(4))
        cache.append(1, 1, *kv_chunk(4), np.arange(4))  # no extra charge
        assert cache.free_tokens() == 0

    def test_drop_releases(self):
        cache = make_cache(capacity_tokens=8, block_size=4)
        cache.append(0, 1, *kv_chunk(8), np.arange(8))
        cache.drop(1)
        assert cache.free_tokens() == 8
        cache.append(0, 2, *kv_chunk(8), np.arange(8))

    def test_unbounded_by_default(self):
        cache = make_cache()
        assert cache.free_tokens() is None

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_capacity_below_one_token_rejected(self, capacity):
        """Refused when the cache is built, so every engine refuses it
        before its first round."""
        with pytest.raises(ValueError, match="capacity_tokens"):
            make_cache(capacity_tokens=capacity)
        with pytest.raises(ValueError, match="capacity_tokens"):
            ContextParallelEngine(LlamaModel(tiny_config(), seed=0), 2, capacity_tokens=capacity)


class TestBookkeeping:
    def test_tokens_and_totals(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(0, 2, *kv_chunk(5), np.arange(5))
        assert cache.tokens(1) == 2
        assert cache.tokens(2) == 5
        assert cache.total_tokens(0) == 7
        assert cache.sequence_ids() == [1, 2]

    def test_drop_all_layers(self):
        cache = make_cache()
        for layer in range(2):
            cache.append(layer, 1, *kv_chunk(2), np.array([0, 1]))
        cache.drop(1)
        assert cache.tokens(1, layer=0) == 0
        assert cache.tokens(1, layer=1) == 0


class TestDropTail:
    def test_drops_positions_at_or_above_cutoff(self):
        cache = make_cache()
        for layer in range(2):
            # a rank's early chunk, then its mirrored late chunk: gaps, but
            # ascending — the order every producer appends in
            cache.append(layer, 1, *kv_chunk(2, 1.0), np.array([0, 2]))
            cache.append(layer, 1, *kv_chunk(3, 2.0), np.array([3, 5, 7]))
        freed = cache.drop_tail(1, from_pos=4)
        assert freed == 2  # positions 5 and 7 at layer 0
        for layer in range(2):
            got = cache.get(layer, [1])
            assert got.positions.tolist() == [0, 2, 3]
        # prefix values survive intact
        got = cache.get(0, [1])
        assert got.k[2, 0, 0] == 2.0

    def test_out_of_order_stream_is_refused_at_the_cut(self):
        """The tail cut is a fill-count cut, so it must see a stream whose
        positions ascend; one that does not is an error, not a silent
        mis-trim."""
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(3), np.array([0, 5, 2]))
        with pytest.raises(ValueError, match="append-ordered"):
            cache.drop_tail(1, from_pos=4)
        with pytest.raises(ValueError, match="append-ordered"):
            cache.share_prefix(1, 2, 4)

    def test_whole_chunk_dropped(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        cache.append(0, 1, *kv_chunk(2), np.array([4, 5]))
        assert cache.drop_tail(1, from_pos=2) == 2
        assert cache.tokens(1) == 2

    def test_everything_dropped_removes_stream(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(3), np.array([0, 1, 2]))
        assert cache.drop_tail(1, from_pos=0) == 3
        assert cache.tokens(1) == 0
        assert cache.sequence_ids() == []

    def test_nothing_to_drop(self):
        cache = make_cache()
        cache.append(0, 1, *kv_chunk(2), np.array([0, 1]))
        assert cache.drop_tail(1, from_pos=2) == 0
        assert cache.drop_tail(99, from_pos=0) == 0
        assert cache.tokens(1) == 2

    def test_allocator_blocks_returned(self):
        cache = make_cache(capacity_tokens=32, block_size=4)
        cache.append(0, 1, *kv_chunk(10), np.arange(10))
        before = cache.free_tokens()
        freed = cache.drop_tail(1, from_pos=3)
        assert freed == 7
        assert cache.free_tokens() == before + 7
        # the freed WHOLE blocks are claimable by another sequence (the
        # slack in seq 1's kept partial block is not)
        assert cache.can_append({2: 7 * 4})
        assert not cache.can_append({2: 7 * 4 + 1})

    def test_validation(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.drop_tail(1, from_pos=-1)


class TestValidation:
    def test_bad_layer(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.append(5, 1, *kv_chunk(1), np.array([0]))
        with pytest.raises(ValueError):
            cache.get(-1)

    def test_bad_shapes(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.append(0, 1, np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), np.arange(2))
        with pytest.raises(ValueError):
            k, v = kv_chunk(2)
            cache.append(0, 1, k, v, np.arange(3))

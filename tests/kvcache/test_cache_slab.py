"""Unit tests: slab storage of RankKVCache (growth, views, copy-on-write).

Twin of the KV-read half of the ``decode_batch`` performance claim: reads
became views and appends in-place writes, so these pin what a reader may
rely on — bytes survive growth, a result once returned never changes under
it, and neither side of a shared prefix can disturb the other.
"""

import numpy as np
import pytest

from repro.kvcache.cache import RankKVCache

NKV, DH = 2, 4


def make_cache(**kw):
    return RankKVCache(n_layers=2, n_kv_heads=NKV, head_dim=DH, **kw)


def rows(positions, seed=0):
    positions = np.asarray(positions, dtype=np.int64)
    rng = np.random.default_rng(seed + int(positions[0]) if positions.size else seed)
    k = rng.standard_normal((positions.size, NKV, DH))
    v = rng.standard_normal((positions.size, NKV, DH))
    return k, v, positions


def snapshot(shard):
    return shard.k.copy(), shard.v.copy(), shard.positions.copy()


def assert_unchanged(shard, snap):
    for got, want in zip((shard.k, shard.v, shard.positions), snap):
        np.testing.assert_array_equal(got, want)


class TestGrowth:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_bytes_survive_several_doublings(self, quantized):
        """One token at a time from empty: the slab reallocates at 1, 2, 4,
        ... and every read returns what a never-growing store would."""
        cache, twin = make_cache(quantized=quantized), make_cache(quantized=quantized)
        ks, vs = [], []
        for pos in range(70):
            k, v, p = rows([pos], seed=pos)
            cache.append(0, 3, k, v, p)
            ks.append(k)
            vs.append(v)
        twin.append(0, 3, np.concatenate(ks), np.concatenate(vs), np.arange(70))
        got, want = cache.get(0, [3]), twin.get(0, [3])
        np.testing.assert_array_equal(got.k, want.k)
        np.testing.assert_array_equal(got.v, want.v)
        np.testing.assert_array_equal(got.positions, np.arange(70))
        np.testing.assert_array_equal(got.runs, [0, 70])
        assert cache.tokens(3) == 70

    def test_quantized_round_trip_is_within_the_code_step(self):
        cache = make_cache(quantized=True)
        k, v, p = rows(np.arange(40))
        cache.append(0, 0, k[:25], v[:25], p[:25])
        cache.append(0, 0, k[25:], v[25:], p[25:])
        got = cache.get(0, [0])
        step = np.abs(k).max(axis=-1, keepdims=True) / 127
        assert np.all(np.abs(got.k - k) <= step / 2 + 1e-12)
        assert got.k.dtype == np.float64

    def test_fused_read_carries_run_offsets(self):
        cache = make_cache()
        cache.append(0, 5, *rows(np.arange(3)))
        cache.append(0, 2, *rows(np.arange(4)))
        got = cache.get(0, [5, 9, 2])  # 9 is not cached: no run, no gap
        np.testing.assert_array_equal(got.seq_ids, [5, 5, 5, 2, 2, 2, 2])
        np.testing.assert_array_equal(got.runs, [0, 3, 7])
        # ... and the run index, built from the ids and lengths already in
        # hand: exactly what a scan of the fused ids would find
        from repro.attention.masks import run_index

        assert got.run_index == {5: 0, 2: 1} == run_index(got.seq_ids, got.runs)
        assert cache.get(0, [2]).run_index == {2: 0}
        assert cache.get(0, [9]).run_index == {}


    def test_appending_to_an_existing_stream_allocates_no_stream(self, monkeypatch):
        """``append`` looks its stream up and builds a ``_Stream`` only for a
        (layer, sequence) it has not seen — not one per call to throw away."""
        import repro.kvcache.cache as cache_module

        built = []

        class Counting(cache_module._Stream):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cache_module, "_Stream", Counting)
        cache = make_cache()
        cache.append(0, 7, *rows([0, 1]))
        cache.append(1, 7, *rows([0, 1]))
        assert len(built) == 2
        for pos in range(2, 40):  # through several doublings
            cache.append(0, 7, *rows([pos]))
            cache.append(1, 7, *rows([pos]))
        assert len(built) == 2
        np.testing.assert_array_equal(cache.get(1, [7]).positions, np.arange(40))


class TestReadsAreStable:
    @pytest.mark.parametrize("seq_ids", [[0], [0, 1]], ids=["view", "fused"])
    def test_append_never_changes_a_returned_read(self, seq_ids):
        cache = make_cache()
        cache.append(0, 0, *rows(np.arange(5)))
        cache.append(0, 1, *rows(np.arange(3)))
        first = cache.get(0, seq_ids)
        snap = snapshot(first)
        for pos in range(5, 40):  # through in-place writes and regrowths
            cache.append(0, 0, *rows([pos], seed=pos))
        assert_unchanged(first, snap)
        assert cache.get(0, [0]).positions.size == 40

    def test_trim_then_append_never_changes_a_returned_read(self):
        """The overwrite hazard: rows 5.. of the slab are reused after a
        tail trim, while an earlier read still covers them."""
        cache = make_cache()
        cache.append(0, 0, *rows(np.arange(10)))
        first = cache.get(0, [0])
        snap = snapshot(first)
        assert cache.drop_tail(0, 5) == 5
        cache.append(0, 0, *rows(np.arange(5, 9), seed=99))
        assert_unchanged(first, snap)
        np.testing.assert_array_equal(cache.get(0, [0]).positions, np.arange(9))

    def test_trim_and_reextend_under_a_lent_view_does_not_grow_the_slab(self):
        """A copy forced by a lent view (not by running out of room) keeps
        the slab's capacity: it used to double on every such copy, so k
        trim / re-extend cycles held 2^k x the capacity."""
        cache = make_cache()
        cache.append(0, 0, *rows(np.arange(10)))
        stream = cache._streams[(0, 0)]
        capacity = stream.cols[-1].shape[0]
        reads = []
        for cycle in range(6):
            read = cache.get(0, [0])  # lends the whole filled head
            reads.append((read, snapshot(read)))
            assert cache.drop_tail(0, 6) == 4
            cache.append(0, 0, *rows(np.arange(6, 10), seed=100 + cycle))
            assert stream.cols[-1].shape[0] == capacity, f"cycle {cycle}"
        for read, snap in reads:
            assert_unchanged(read, snap)
        final = cache.get(0, [0])
        np.testing.assert_array_equal(final.positions, np.arange(10))
        np.testing.assert_array_equal(final.k[:6], rows(np.arange(10))[0][:6])
        np.testing.assert_array_equal(final.k[6:], rows(np.arange(6, 10), seed=105)[0])

    def test_single_sequence_read_is_a_read_only_view(self):
        cache = make_cache()
        cache.append(0, 0, *rows(np.arange(6)))
        a, b = cache.get(0, [0]), cache.get(0, [0])
        assert np.shares_memory(a.k, b.k)  # no bytes copied per read
        with pytest.raises(ValueError, match="read-only"):
            a.k[0, 0, 0] = 1.0


class TestCopyOnWrite:
    def _shared(self, **kw):
        cache = make_cache(**kw)
        for layer in range(2):
            cache.append(layer, 0, *rows(np.arange(10), seed=layer))
        assert cache.share_prefix(0, 1, 6) == 6
        return cache

    def test_donor_trim_and_append_leaves_the_borrower_intact(self):
        cache = self._shared()
        snap = snapshot(cache.get(0, [1]))
        cache.drop_tail(0, 3)  # below the lent span
        # fits the old slab: only the lent mark stops an in-place overwrite
        cache.append(0, 0, *rows(np.arange(3, 8), seed=7))
        cache.append(1, 0, *rows(np.arange(3, 8), seed=8))
        assert_unchanged(cache.get(0, [1]), snap)
        np.testing.assert_array_equal(cache.get(0, [0]).positions, np.arange(8))

    def test_borrower_first_write_does_not_touch_the_donor(self):
        cache = self._shared()
        donor = snapshot(cache.get(0, [0]))
        borrowed = cache.get(0, [1])
        assert np.shares_memory(borrowed.k, cache.get(0, [0]).k)
        k, v, p = rows(np.arange(6, 9), seed=5)
        cache.append(0, 1, k, v, p)
        assert_unchanged(cache.get(0, [0]), donor)
        mine = cache.get(0, [1])
        assert not np.shares_memory(mine.k, cache.get(0, [0]).k)  # moved out
        np.testing.assert_array_equal(mine.k[:6], donor[0][:6])
        np.testing.assert_array_equal(mine.k[6:], k)

    def test_borrower_trim_and_append_does_not_touch_the_donor(self):
        cache = self._shared()
        donor = snapshot(cache.get(0, [0]))
        cache.drop_tail(1, 2)
        cache.append(0, 1, *rows(np.arange(2, 8), seed=6))
        assert_unchanged(cache.get(0, [0]), donor)

    def test_borrower_outlives_a_dropped_donor(self):
        cache = self._shared()
        snap = snapshot(cache.get(1, [1]))
        cache.drop(0)
        cache.append(1, 1, *rows([6]))
        got = cache.get(1, [1])
        np.testing.assert_array_equal(got.k[:6], snap[0])
        assert cache.tokens(0) == 0 and cache.tokens(1, layer=1) == 7

    def test_chain_of_borrowers(self):
        cache = self._shared()
        assert cache.share_prefix(1, 2, 4) == 4
        snap = snapshot(cache.get(0, [2]))
        cache.drop_tail(0, 1)
        cache.append(0, 0, *rows(np.arange(1, 6), seed=11))
        cache.drop_tail(1, 2)
        cache.append(0, 1, *rows(np.arange(2, 6), seed=12))
        assert_unchanged(cache.get(0, [2]), snap)

    def test_quantized_share_and_diverge(self):
        cache = self._shared(quantized=True)
        donor = snapshot(cache.get(0, [0]))
        np.testing.assert_array_equal(cache.get(0, [1]).k, donor[0][:6])
        cache.append(0, 1, *rows(np.arange(6, 9), seed=5))
        cache.drop_tail(0, 2)
        cache.append(0, 0, *rows(np.arange(2, 5), seed=6))
        np.testing.assert_array_equal(cache.get(0, [1]).k[:6], donor[0][:6])
        np.testing.assert_array_equal(cache.get(0, [0]).k[:2], donor[0][:2])

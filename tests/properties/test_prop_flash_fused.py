"""Property tests: the fused grouped-head flash kernel matches the reference.

"Bit-compatible" here is the library's established contract (see
``tests/attention/test_flash.py``): agreement to ``atol=1e-12, rtol=0`` in
float64 — the only remaining slack being last-ulp BLAS kernel-selection
differences and the online-softmax fold — plus *exact* structural equality
of the masked/empty pattern (which tokens have ``LSE = -inf`` and zero
output). The properties sweep GQA ratios, block sizes, ``num_kv_splits``,
permuted positions, padded fused batches, windowed ``mask_fn`` and
empty/all-masked shards, and pin the fused kernel against the
fully-materialized reference oracle under the Flash-Decoding split-KV
recurrence and the ``skip_masked_blocks`` A/B knob. (The legacy
``fused=False`` expand path these properties originally cross-checked has
been retired; the reference kernel is the remaining independent oracle.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.flash import flash_attention
from repro.attention.masks import PAD_SEQ
from repro.attention.reference import reference_attention_with_lse
from repro.attention.windowed import windowed_attention_mask_fn

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def gqa_case(draw):
    """Random GQA attention problem spanning the layouts the rings produce."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_kv = draw(st.sampled_from([1, 2]))
    ratio = draw(st.sampled_from([1, 4, 16]))
    nh = n_kv * ratio
    dh = draw(st.sampled_from([4, 8]))
    tq = draw(st.integers(1, 30))
    tk = draw(st.integers(1, 48))
    layout = draw(st.sampled_from(["dense", "permuted", "padded"]))
    masking = draw(st.sampled_from(["causal", "windowed"]))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((tq, nh, dh))
    k = rng.standard_normal((tk, n_kv, dh))
    v = rng.standard_normal((tk, n_kv, dh))
    if layout == "dense":
        q_pos, k_pos = np.arange(tq), np.arange(tk)
        q_seq = k_seq = None
    elif layout == "permuted":
        q_pos = rng.integers(0, 40, tq)
        k_pos = rng.integers(0, 40, tk)
        q_seq = rng.integers(0, 3, tq)
        k_seq = rng.integers(0, 3, tk)
    else:  # padded fused batch: PAD_SEQ rows must never attend / be attended
        q_pos = rng.integers(0, 40, tq)
        k_pos = rng.integers(0, 40, tk)
        q_seq = rng.integers(PAD_SEQ, 2, tq)
        k_seq = rng.integers(PAD_SEQ, 2, tk)
    mask_fn = (
        windowed_attention_mask_fn(
            int(rng.integers(1, 16)), sink_tokens=int(rng.integers(0, 3))
        )
        if masking == "windowed"
        else None
    )
    coords = dict(q_pos=q_pos, k_pos=k_pos, q_seq=q_seq, k_seq=k_seq, mask_fn=mask_fn)
    block_size = draw(st.integers(1, tk + 3))
    splits = draw(st.integers(1, 5))
    return q, k, v, coords, block_size, splits


def _assert_matches(res, ref_out, ref_lse):
    np.testing.assert_allclose(res.out, ref_out, atol=1e-12, rtol=0)
    np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12, rtol=0)
    # The masked/empty structure must agree exactly, not just within tol.
    empty = np.isneginf(ref_lse)
    assert np.array_equal(np.isneginf(res.lse), empty)
    assert np.all(res.out[empty] == 0.0)


class TestFusedMatchesReference:
    @given(gqa_case())
    @settings(**SETTINGS)
    def test_blocked_fused_matches_reference(self, case):
        q, k, v, coords, block_size, splits = case
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        res = flash_attention(q, k, v, block_size=block_size, num_kv_splits=splits, **coords)
        _assert_matches(res, ref_out, ref_lse)

    @given(gqa_case())
    @settings(**SETTINGS)
    def test_single_block_fused_matches_reference(self, case):
        """One block, one split: the fused kernel is the reference kernel
        modulo the grouped-head layout (no online-softmax fold involved)."""
        q, k, v, coords, _, _ = case
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        res = flash_attention(q, k, v, block_size=k.shape[0] + 1, **coords)
        _assert_matches(res, ref_out, ref_lse)

    @given(gqa_case())
    @settings(**SETTINGS)
    def test_split_invariance(self, case):
        """Any split-KV count folds to the same result (the recurrence the
        retired expand path used to cross-check)."""
        q, k, v, coords, block_size, splits = case
        a = flash_attention(q, k, v, block_size=block_size, num_kv_splits=1, **coords)
        b = flash_attention(q, k, v, block_size=block_size, num_kv_splits=splits, **coords)
        _assert_matches(a, b.out, b.lse)

    @given(gqa_case())
    @settings(**SETTINGS)
    def test_block_skip_is_pure_execution_strategy(self, case):
        """skip_masked_blocks changes which BLAS calls run, not the result."""
        q, k, v, coords, block_size, splits = case
        a = flash_attention(q, k, v, block_size=block_size, num_kv_splits=splits, **coords)
        b = flash_attention(
            q, k, v, block_size=block_size, num_kv_splits=splits,
            skip_masked_blocks=False, **coords,
        )
        _assert_matches(a, b.out, b.lse)

    @given(gqa_case())
    @settings(**SETTINGS)
    def test_fp32_compute_fp64_merge(self, case):
        """float32 kernel compute with float64 merge accumulation stays
        within float32 resolution of the exact fp64 result."""
        q, k, v, coords, block_size, splits = case
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        res = flash_attention(
            q, k, v, block_size=block_size, num_kv_splits=splits,
            compute_dtype=np.float32, **coords,
        )
        np.testing.assert_allclose(res.out, ref_out, atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-4, rtol=1e-4)
        assert np.array_equal(np.isneginf(res.lse), np.isneginf(ref_lse))
        # merge accumulators stay float64 regardless of compute dtype
        assert res.out.dtype == np.float64


class TestDegenerateShards:
    @pytest.mark.parametrize("ratio", [1, 4, 16])
    def test_gqa_ratio_explicit(self, ratio):
        rng = np.random.default_rng(ratio)
        nh, nkv = ratio, 1
        q = rng.standard_normal((12, nh, 8))
        k = rng.standard_normal((20, nkv, 8))
        v = rng.standard_normal((20, nkv, 8))
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=np.arange(8, 20))
        res = flash_attention(q, k, v, q_pos=np.arange(8, 20), block_size=7)
        _assert_matches(res, ref_out, ref_lse)

    def test_all_pad_kv_shard(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((5, 4, 8))
        k = rng.standard_normal((9, 2, 8))
        v = rng.standard_normal((9, 2, 8))
        k_seq = np.full(9, PAD_SEQ)
        res = flash_attention(q, k, v, k_seq=k_seq, block_size=4)
        assert np.all(res.out == 0)
        assert np.all(np.isneginf(res.lse))

    def test_fully_masked_disjoint_sequences(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((6, 4, 8))
        k = rng.standard_normal((6, 2, 8))
        v = rng.standard_normal((6, 2, 8))
        res = flash_attention(
            q, k, v,
            q_seq=np.zeros(6, dtype=np.int64), k_seq=np.ones(6, dtype=np.int64),
            block_size=2,
        )
        assert np.all(res.out == 0)
        assert np.all(np.isneginf(res.lse))

    def test_empty_kv_and_empty_queries(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((3, 4, 8))
        res = flash_attention(q, np.zeros((0, 2, 8)), np.zeros((0, 2, 8)))
        assert res.out.shape == (3, 4, 8) and np.all(np.isneginf(res.lse))
        res = flash_attention(np.zeros((0, 4, 8)), np.zeros((5, 2, 8)), np.zeros((5, 2, 8)))
        assert res.out.shape == (0, 4, 8)


# ---------------------------------------------------------------------- #
# the one-block base case (exactness twin of bench_flash_decode_shape)
# ---------------------------------------------------------------------- #


@st.composite
def one_block_case(draw):
    """``S`` segments under an arbitrary mask: causal-like staircases, key
    padding, and rows that see nothing — at the top, the bottom (both trim
    the row band), in the middle (inside the band) or everywhere."""
    seed = draw(st.integers(0, 2**31 - 1))
    s = draw(st.integers(1, 4))
    r = draw(st.integers(1, 9))
    length = draw(st.integers(1, 12))
    n_kv, g, dh = draw(st.sampled_from([(1, 1, 4), (2, 4, 8)]))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((s, r, n_kv * g, dh))
    k = rng.standard_normal((s, length, n_kv, dh))
    v = rng.standard_normal((s, length, n_kv, dh))
    kind = draw(st.sampled_from(["causal", "padded", "random", "full", "empty"]))
    if kind == "causal":
        mask = np.arange(length)[None, None, :] <= rng.integers(-2, length, (s, r, 1))
    elif kind == "padded":
        mask = np.broadcast_to(
            np.arange(length)[None, None, :] < rng.integers(0, length + 1, (s, 1, 1)), (s, r, length)
        ).copy()
    elif kind == "random":
        mask = rng.random((s, r, length)) < 0.6
    else:
        mask = np.full((s, r, length), kind == "full")
    for row in draw(st.lists(st.integers(0, r - 1), max_size=3)):
        mask[:, row] = False  # this row sees no key in any segment
    return q, k, v, mask


def _through_the_recurrence(q, k, v, mask, scale, dtype):
    """The same block on the path the one-block return bypasses: append one
    key nobody may see, as a second block, and sweep with block skipping
    off — the block's partial is assigned into the running state, the
    masked block folded on top (the identity) and the state finalised."""
    from repro.attention.flash import _attend

    s, _, length = mask.shape
    pad = np.zeros((s, 1) + k.shape[2:])
    return _attend(
        q, np.concatenate([k, pad], axis=1), np.concatenate([v, pad], axis=1),
        np.concatenate([mask, np.zeros((s, mask.shape[1], 1), dtype=bool)], axis=2),
        scale, length, 1, False, np.dtype(dtype),
    )


class TestOneBlockBaseCase:
    @given(one_block_case(), st.sampled_from([np.float64, np.float32]), st.booleans())
    @settings(**SETTINGS)
    def test_equals_the_block_folded_and_finalised(self, case, dtype, skip):
        from repro.attention.flash import _attend
        from repro.attention.online_softmax import OnlineSoftmaxState

        q, k, v, mask = case
        scale = 1.0 / np.sqrt(q.shape[-1])
        out, lse = _attend(q, k, v, mask, scale, mask.shape[2], 1, skip, np.dtype(dtype))
        assert out.dtype == lse.dtype == np.float64

        # (1) against the running-state path, bit for bit
        ref_out, ref_lse = _through_the_recurrence(q, k, v, mask, scale, dtype)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(lse, ref_lse)

        # (2) folding it into an empty OnlineSoftmaxState and finalising —
        # divide by 1, add log 1 — gives it back, bit for bit
        state = OnlineSoftmaxState(out.shape, lse.shape)
        state.update(out, lse)
        fold_out, fold_lse = state.finalize()
        assert np.array_equal(out, fold_out)
        assert np.array_equal(lse, fold_lse)

        # rows with no visible key are the identity element, band or no band
        dark = ~mask.any(axis=2)
        assert np.all(np.isneginf(lse[dark])) and np.all(out[dark] == 0)
        assert np.all(np.isfinite(lse[~dark]))

    def test_first_chunk_causal_prefill_is_one_trimmed_block(self):
        """``long_prefill``'s first-chunk call: T x T causal, one block; the
        late-KV half of a load-balanced shard sees no early query rows, so
        the band trim must survive the one-block return."""
        rng = np.random.default_rng(5)
        t = 48
        q = rng.standard_normal((t, 4, 8))
        k = rng.standard_normal((t, 2, 8))
        v = rng.standard_normal((t, 2, 8))
        q_pos = np.arange(t)
        k_pos = np.arange(t) + t // 2  # keys start half-way up the queries
        res = flash_attention(q, k, v, q_pos=q_pos, k_pos=k_pos, block_size=128)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=q_pos, k_pos=k_pos)
        _assert_matches(res, ref_out, ref_lse)
        assert np.all(np.isneginf(res.lse[: t // 2])) and np.all(res.out[: t // 2] == 0)

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

``TestScoreTile`` holds the exactness twins of the score-tile rebuild
(``bench_flash_prefill_tile*`` / ``bench_flash_diagonal_tile``): masking
without ``-inf`` ever reaching ``exp``, the keys-major orientation and the
key band. ``TestShiftFree`` pins the shift-free sweep — the kernel's normal
path — against the shifted one it falls back to, and the range check that
decides between them (twin of ``bench_flash_large_logits``). Each was
checked against the seeded defects its docstring names.

The whole module runs with ``RuntimeWarning`` as an error: a kernel path
that lets an overflowing ``exp`` leak one fails here, not in a user's log.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention import flash
from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.masks import PAD_SEQ
from repro.attention.reference import reference_attention_with_lse
from repro.core.sharding import shard_positions

from helpers import window_mask_fn

# (RuntimeWarning is NumPy's class for every floating-point warning; a blanket
# "error" also trips on third-party DeprecationWarnings raised while hypothesis
# formats a failure, and buries the failure under an INTERNALERROR.)
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = dict(max_examples=25, deadline=None)


def _shifted(kernel, *args, **kwargs):
    """``kernel`` (``flash._attend`` or ``flash_attention``) with every range
    swept by the shifted sweep — the path ordinary tiles no longer take."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flash, "_sweep_range", flash._sweep_shifted)
        return kernel(*args, **kwargs)


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
        window_mask_fn(int(rng.integers(1, 16)), sink_tokens=int(rng.integers(0, 3)))
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
    the row band), in the middle (inside the band) or everywhere; keys that
    nobody sees at either edge (the key band). ``R * G`` against the key
    count falls on both sides of the kernel's aspect rule."""
    seed = draw(st.integers(0, 2**31 - 1))
    s = draw(st.integers(1, 4))
    r = draw(st.integers(1, 9))
    length = draw(st.integers(1, 24))
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
    mask[:, :, : draw(st.integers(0, length // 2))] = False  # nor anyone these keys
    return q, k, v, mask


def _through_the_recurrence(q, k, v, mask, scale, dtype):
    """The same block on the path the one-block return bypasses: append one
    key nobody may see, as a second block, and sweep with block skipping
    off — the block's partial is assigned into the running state, the
    masked block folded on top (the identity) and the state finalised."""
    s, _, length = mask.shape
    pad = np.zeros((s, 1) + k.shape[2:])
    return _shifted(
        flash._attend,
        q, np.concatenate([k, pad], axis=1), np.concatenate([v, pad], axis=1),
        np.concatenate([mask, np.zeros((s, mask.shape[1], 1), dtype=bool)], axis=2),
        scale, length, 1, False, np.dtype(dtype),
    )


class TestOneBlockBaseCase:
    """The shifted sweep's one-block return, called directly: ordinary
    tiles take the shift-free sweep (``TestShiftFree``) and reach this one
    only through the range check."""

    @given(one_block_case(), st.sampled_from([np.float64, np.float32]), st.booleans())
    @settings(**SETTINGS)
    def test_equals_the_block_folded_and_finalised(self, case, dtype, skip):
        from repro.attention.online_softmax import OnlineSoftmaxState

        q, k, v, mask = case
        scale = 1.0 / np.sqrt(q.shape[-1])
        out, lse = _shifted(flash._attend, q, k, v, mask, scale, mask.shape[2], 1, skip, np.dtype(dtype))
        assert out.dtype == lse.dtype == np.float64

        # (1) against the running-state path: bit for bit wherever both
        # sides sweep the same band. The reference sweeps untrimmed, and a
        # narrower tile sums its row in another order (and meets BLAS at
        # another shape), so a trimmed band is held to the contract every
        # other skip on/off comparison in this file uses.
        ref_out, ref_lse = _through_the_recurrence(q, k, v, mask, scale, dtype)
        rows, keys = mask.any(axis=(0, 2)), mask.any(axis=(0, 1))
        untrimmed = not rows.any() or (rows[[0, -1]].all() and keys[[0, -1]].all())
        if not skip or len(rows) == 1 or untrimmed:
            assert np.array_equal(out, ref_out)
            assert np.array_equal(lse, ref_lse)
        elif dtype is np.float64:
            _assert_matches(AttentionResult(out, lse), ref_out, ref_lse)
        else:
            np.testing.assert_allclose(out, ref_out, atol=1e-4, rtol=1e-4)
            np.testing.assert_allclose(lse, ref_lse, atol=1e-4, rtol=1e-4)
            assert np.array_equal(np.isneginf(lse), np.isneginf(ref_lse))

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


# ---------------------------------------------------------------------- #
# the score tile (exactness twins of bench_flash_prefill_tile* and
# bench_flash_diagonal_tile)
# ---------------------------------------------------------------------- #


@st.composite
def tile_case(draw):
    """One block of ``S`` segments under random, causal or padded masks —
    rows and whole segments with no visible key included — with ``R * G``
    against the key count on either side of the aspect rule, and scores
    optionally spread far past ``exp``'s SIMD range (-708; fp32: -104)."""
    seed = draw(st.integers(0, 2**31 - 1))
    s = draw(st.integers(1, 3))
    r = draw(st.integers(1, 8))
    length = draw(st.integers(1, 20))
    n_kv, g, dh = draw(st.sampled_from([(1, 1, 4), (2, 4, 8), (1, 16, 4)]))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([1.0, 40.0]))  # 40: score gaps of order 1e3 * sqrt(dh)
    q = rng.standard_normal((s, r, n_kv * g, dh)) * spread
    k = rng.standard_normal((s, length, n_kv, dh)) * spread
    v = rng.standard_normal((s, length, n_kv, dh))
    kind = draw(st.sampled_from(["random", "causal", "padded"]))
    if kind == "random":
        mask = rng.random((s, r, length)) < 0.5
    elif kind == "causal":
        mask = np.arange(length)[None, None, :] <= rng.integers(-2, length, (s, r, 1))
    else:
        valid = np.arange(length)[None, None, :] < rng.integers(0, length + 1, (s, 1, 1))
        mask = np.broadcast_to(valid, (s, r, length)).copy()
    if draw(st.booleans()):
        mask[draw(st.integers(0, s - 1))] = False  # a whole segment sees nothing
    return q, k, v, mask


def _minus_inf_block(q, k, v, mask, scale, dtype, keys_major):
    """One block the way the kernel used to mask it — ``-inf`` written into
    the scores, then max -> shift -> exp -> sum — on the same tile: same
    operands, same orientation, so a visible entry meets the same
    arithmetic and every bit must agree."""
    s, r, nh, dh = q.shape
    nkv = k.shape[2]
    g = nh // nkv
    qt = np.multiply(
        q.reshape(s, r, nkv, g, dh).transpose(0, 2, 4, 1, 3), scale, dtype=dtype, order="C"
    ).reshape(s, nkv, dh, r * g)
    kb, vb = (x.astype(dtype).transpose(0, 2, 1, 3) for x in (k, v))
    if keys_major:
        scores, axis = np.matmul(kb, qt), -2
        seeing = np.repeat(mask.transpose(0, 2, 1), g, axis=2)[:, None]
    else:
        scores, axis = np.matmul(qt.swapaxes(-1, -2), kb.swapaxes(-1, -2)), -1
        seeing = np.repeat(mask, g, axis=1)[:, None]
    scores = np.where(seeing, scores, dtype(-np.inf))
    bm = scores.max(axis=axis, keepdims=True)
    p = np.exp(scores - np.where(np.isneginf(bm), dtype(0), bm))
    den = p.sum(axis=axis).reshape(s, nkv, r * g, 1)
    o = np.matmul(p.swapaxes(-1, -2) if keys_major else p, vb)
    with np.errstate(invalid="ignore", divide="ignore"):
        o = np.where(den > 0, o / den, 0.0)
        lse = bm.reshape(den.shape) + np.log(den)
    out = o.reshape(s, nkv, r, g, dh).transpose(0, 2, 1, 3, 4).reshape(s, r, nh, dh)
    lse = lse.reshape(s, nkv, r, g).transpose(0, 2, 1, 3).reshape(s, r, nh)
    return out.astype(np.float64), lse.astype(np.float64)


def _ring_step(rng, q_rank, kv_rank, cached_chunks):
    """``long_prefill``'s call for one (query rank, source rank) pair: the
    last 512-token chunk on CP4 against the source's shard of every chunk."""
    q_pos = shard_positions(512, 4, offset=512 * cached_chunks)[q_rank]
    k_pos = np.concatenate(
        [shard_positions(512, 4, offset=512 * c)[kv_rank] for c in range(cached_chunks + 1)]
    )
    q = rng.standard_normal((q_pos.size, 8, 8))
    k = rng.standard_normal((k_pos.size, 2, 8))
    v = rng.standard_normal((k_pos.size, 2, 8))
    return q, k, v, dict(q_pos=q_pos, k_pos=k_pos)


class TestScoreTile:
    @given(tile_case(), st.sampled_from([np.float64, np.float32]), st.booleans())
    @settings(**SETTINGS)
    def test_masking_equals_minus_inf_bit_for_bit(self, case, dtype, keys_major):
        """(a) Max and exp over visible entries only, leftovers zeroed, is
        the ``-inf`` formulation bit for bit in the same orientation — also
        where the old one fell off SIMD ``exp`` (scores below -708 / -104).
        This is the shifted sweep's arithmetic, so it is called directly.
        Kills: the zeroing pass dropped; a partial tile classified fully
        visible; the scale applied twice or not at all."""
        q, k, v, mask = case
        scale = 1.0 / np.sqrt(q.shape[-1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flash, "_keys_major", lambda columns, keys: keys_major)
            out, lse = _shifted(flash._attend, q, k, v, mask, scale, mask.shape[2], 1, False, np.dtype(dtype))
        ref_out, ref_lse = _minus_inf_block(q, k, v, mask, scale, dtype, keys_major)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(lse, ref_lse)
        dark = ~mask.any(axis=2)
        assert np.all(np.isneginf(lse[dark])) and np.all(out[dark] == 0)

    @given(gqa_case())
    @settings(**SETTINGS)
    def test_orientation_is_pure_execution_strategy(self, case):
        """(b) Keys-major and rows-major tiles agree to the contract on
        tiles either side of the aspect rule, whichever the rule picks."""
        q, k, v, coords, block_size, splits = case
        results = []
        for keys_major in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(flash, "_keys_major", lambda columns, keys: keys_major)
                results.append(
                    flash_attention(q, k, v, block_size=block_size, num_kv_splits=splits, **coords)
                )
        _assert_matches(results[0], results[1].out, results[1].lse)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        _assert_matches(results[0], ref_out, ref_lse)

    @pytest.mark.parametrize("cached_chunks", [0, 1, 3])
    def test_key_band_over_every_rank_pair(self, cached_chunks):
        """(c) The ``long_prefill`` calls: all 16 (query rank, source rank)
        pairs of a load-balanced CP4 chunk behind 0 / 128 / 384 cached keys
        per rank, bands on and off, one split and three. For a source rank
        below the query rank the late half of the new block is invisible
        to every row. Kills: the key band off by one at either edge; the
        workspace slice one element short."""
        rng = np.random.default_rng(cached_chunks)
        for q_rank, kv_rank in itertools.product(range(4), repeat=2):
            q, k, v, coords = _ring_step(rng, q_rank, kv_rank, cached_chunks)
            ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
            for knobs in ({}, {"skip_masked_blocks": False}, {"num_kv_splits": 3}):
                _assert_matches(flash_attention(q, k, v, **coords, **knobs), ref_out, ref_lse)


# ---------------------------------------------------------------------- #
# the shift-free sweep and its range check (exactness twins of
# bench_flash_prefill_tile* at shift 0 and of bench_flash_large_logits)
# ---------------------------------------------------------------------- #


class _Fallbacks:
    """Counts the ranges the shift-free sweep handed back to the shifted one."""

    def __init__(self, patch):
        self.count, inner = 0, flash._sweep_shifted

        def counting(*sweep):
            self.count += 1
            return inner(*sweep)

        patch.setattr(flash, "_sweep_shifted", counting)


def _assert_close(dtype, out, lse, ref_out, ref_lse):
    """The contract at ``dtype``: fp64 is merge-exactness's, fp32 is
    ``test_fp32_compute_fp64_merge``'s; the ``-inf`` rows are exact in both."""
    if np.dtype(dtype) == np.float64:
        _assert_matches(AttentionResult(out, lse), ref_out, ref_lse)
    else:
        np.testing.assert_allclose(out, ref_out, atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(lse, ref_lse, atol=1e-4, rtol=1e-4)
        empty = np.isneginf(ref_lse)
        assert np.array_equal(np.isneginf(lse), empty) and np.all(out[empty] == 0.0)


def _aligned(rng, rows, keys, dh=4):
    """``q [rows, 1, dh]`` and ``k [keys, 1, dh]`` along one axis, so that
    ``score[i, j] = q[i, 0, 0] * k[j, 0, 0] / 2`` exactly, plus random ``v``."""
    q, k = np.zeros((rows, 1, dh)), np.zeros((keys, 1, dh))
    q[:, 0, 0], k[:, 0, 0] = 2.0, 1.0
    return q, k, rng.standard_normal((keys, 1, dh))


class TestShiftFree:
    @given(
        tile_case(), st.sampled_from([np.float64, np.float32]), st.booleans(), st.booleans(),
        st.sampled_from([1, 3, 64]),
    )
    @settings(**SETTINGS)
    def test_equals_the_shifted_sweep(self, case, dtype, keys_major, skip, block_size):
        """(a) Eq. 4 at shift 0 is Eq. 4: the same tiles, summed unshifted,
        agree with the shifted sweep to the contract — both orientations,
        one block and many, bands on and off, blind rows and blind segments
        included — and in-range scores never pay for the fallback.
        Kills: accumulation left in the compute dtype (the blocks of a
        many-block fp32 range drift apart); the leftovers of a partial tile
        not zeroed; ``den`` and ``acc`` banded to different rows."""
        q, k, v, mask = case
        scale = 1.0 / np.sqrt(q.shape[-1])
        args = (q, k, v, mask, scale, block_size, 1, skip, np.dtype(dtype))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flash, "_keys_major", lambda columns, keys: keys_major)
            fallbacks = _Fallbacks(patch)
            out, lse = flash._attend(*args)
            taken = fallbacks.count
            ref_out, ref_lse = _shifted(flash._attend, *args)
        assert out.dtype == lse.dtype == np.float64
        _assert_close(dtype, out, lse, ref_out, ref_lse)
        dark = ~mask.any(axis=2)
        assert np.all(np.isneginf(lse[dark])) and np.all(out[dark] == 0)
        scores = np.einsum("srhd,skhd->srhk", q, np.repeat(k, q.shape[2] // k.shape[2], axis=2)) * scale
        if np.abs(scores).max() < 30:  # exp stays inside sqrt(finfo) of either dtype
            assert taken == 0

    @given(gqa_case(), st.sampled_from([np.float64, np.float32]), st.booleans())
    @settings(**SETTINGS)
    def test_whole_calls_equal_the_shifted_sweep(self, case, dtype, skip):
        """(a) ... through ``flash_attention``: splits, ``mask_fn``, permuted
        coordinates and padded varlen groups whose ``PAD_SEQ`` rows and
        padding slots are blind. Kills: a zero ``den`` divided through (nan
        in a blind row); the blind rows of one varlen group written over
        another's."""
        q, k, v, coords, block_size, splits = case
        knobs = dict(
            block_size=block_size, num_kv_splits=splits, compute_dtype=dtype,
            skip_masked_blocks=skip, **coords,
        )
        res = flash_attention(q, k, v, **knobs)
        ref = _shifted(flash_attention, q, k, v, **knobs)
        _assert_close(dtype, res.out, res.lse, ref.out, ref.lse)

    @pytest.mark.parametrize("dtype,big", [(np.float64, 800.0), (np.float32, 100.0)])
    @pytest.mark.parametrize("block_size", [4, 64])
    def test_scores_out_of_range_take_the_fallback(self, dtype, big, block_size):
        """(b) Scores of ``+big`` and ``-big`` in every row (``exp`` overflows,
        or flushes a whole row to zero, in ``dtype``): the range check must
        hand the call to the shifted sweep, silently, and the result meets
        the contract. Kills: the range check dropped (``inf / inf``); the
        upper bound compared so that ``nan`` passes."""
        rng = np.random.default_rng(0)
        q, k, v = _aligned(rng, 6, 12)
        k[:, 0, 0] = big * rng.choice([-1.0, 1.0], 12)
        with pytest.MonkeyPatch.context() as patch:
            fallbacks = _Fallbacks(patch)
            res = flash_attention(q, k, v, causal=False, block_size=block_size, compute_dtype=dtype)
        assert fallbacks.count == 1
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, causal=False)
        _assert_close(dtype, res.out, res.lse, ref_out, ref_lse)

    @pytest.mark.parametrize(
        "dtype,depth", [(np.float64, 800.0), (np.float64, 735.0), (np.float32, 100.0)]
    )
    def test_an_underflowed_visible_row_is_not_a_blind_row(self, dtype, depth):
        """(b) One row whose every score is ``-depth`` among ordinary rows,
        and one row that truly sees no key. At 800 its ``exp`` are all zero:
        ``den == 0`` in a row the mask says sees keys. At 735 (fp32: 100)
        they are subnormal: ``den > 0`` but its terms carry two digits. All
        must fall back; the truly blind row stays ``O = 0, LSE = -inf``.
        Kills: the blind-row test taken from ``den == 0`` alone (LSE ``-inf``
        where it is ``-800``); the lower bound dropped (fp32: weights 2 % off.
        In fp64 ``1 / den`` overflows first and the finite check fires, so
        only the fp32 case needs the bound)."""
        rng = np.random.default_rng(1)
        q, k, v = _aligned(rng, 5, 9)
        q[:, 0, 0] = rng.standard_normal(5)
        q[2, 0, 0] = -2.0 * depth
        k[:, 0, 0] = 1.0 + 0.004 * np.arange(9)  # row 2's scores spread over ~ 3 % of depth
        q_pos, k_pos = np.array([9, 9, 9, -1, 9]), np.arange(9)  # row 3 precedes every key
        with pytest.MonkeyPatch.context() as patch:
            fallbacks = _Fallbacks(patch)
            res = flash_attention(q, k, v, q_pos=q_pos, k_pos=k_pos, block_size=4, compute_dtype=dtype)
        assert fallbacks.count == 1
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=q_pos, k_pos=k_pos)
        _assert_close(dtype, res.out, res.lse, ref_out, ref_lse)
        assert np.all(np.isneginf(res.lse[3])) and np.all(np.isfinite(res.lse[[0, 1, 2, 4]]))

    def test_the_sum_overflows_though_no_term_does(self):
        """(b) Four keys scoring 709.5: each ``exp`` is 1.3e308, finite, and
        their sum is not — while ``|V| ~ 1e-10`` keeps the numerator finite,
        so ``O = acc * (1 / inf)`` would come out a clean 0. Kills: the upper
        bound dropped in favour of the finite check on the output."""
        rng = np.random.default_rng(5)
        q, k, v = _aligned(rng, 3, 4)
        k[:, 0, 0] = 709.5
        v = v * 1e-10
        with pytest.MonkeyPatch.context() as patch:
            fallbacks = _Fallbacks(patch)
            res = flash_attention(q, k, v, causal=False)
        assert fallbacks.count == 1
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, causal=False)
        _assert_matches(AttentionResult(res.out * 1e10, res.lse), ref_out * 1e10, ref_lse)

    def test_an_overflowing_block_after_ordinary_blocks(self):
        """(b) Three ordinary blocks, then one key scoring +800: the sums are
        already under way when ``exp`` overflows. Kills: the check made per
        block and only on the first; ``acc`` finite-checked but ``den`` not."""
        rng = np.random.default_rng(2)
        q, k, v = _aligned(rng, 4, 16)
        k[:, 0, 0] = rng.standard_normal(16)
        k[13, 0, 0] = 800.0
        with pytest.MonkeyPatch.context() as patch:
            fallbacks = _Fallbacks(patch)
            res = flash_attention(q, k, v, causal=False, block_size=4)
        assert fallbacks.count == 1
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, causal=False)
        _assert_matches(res, ref_out, ref_lse)

    def test_huge_values_overflow_the_numerator_only(self):
        """(b) Scores of ~250 keep ``den`` (~1e108) inside its range, but
        ``|V| ~ 1e200`` takes ``exp(score) * V`` past float64: the finite
        check on the output is what catches it. Kills: the output left out of
        the range check."""
        rng = np.random.default_rng(3)
        q, k, v = _aligned(rng, 4, 8)
        k[:, 0, 0] = 250.0 + rng.standard_normal(8)
        v = v * 1e200
        with pytest.MonkeyPatch.context() as patch:
            fallbacks = _Fallbacks(patch)
            res = flash_attention(q, k, v, causal=False, block_size=4)
        assert fallbacks.count == 1
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, causal=False)
        _assert_matches(AttentionResult(res.out / 1e200, res.lse), ref_out / 1e200, ref_lse)

    def test_blocks_accumulate_in_float64_whatever_the_compute_dtype(self):
        """fp32 compute, 512 one-key blocks: the first key's ``exp`` is
        ``e^17 ~ 2.4e7``, past float32's 24-bit integers, every other key's
        is 1 — a float32 running sum absorbs all 511 of them, a float64 one
        none. Takes the shift-free path. Kills: accumulation left in the
        compute dtype, on the first-term state and on the zero-initialised
        one."""
        rng = np.random.default_rng(4)
        q, k, v = _aligned(rng, 2, 512)
        k[:, 0, 0], k[0, 0, 0] = 0.0, 17.0
        v[0] = 0.0
        for q_pos in (np.array([600, 600]), np.array([600, -1])):  # a full-height first block, and a banded one
            with pytest.MonkeyPatch.context() as patch:
                fallbacks = _Fallbacks(patch)
                res = flash_attention(q, k, v, q_pos=q_pos, block_size=1, compute_dtype=np.float32)
            assert fallbacks.count == 0
            ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=q_pos)
            np.testing.assert_allclose(res.out, ref_out, rtol=2e-6, atol=0)
            np.testing.assert_allclose(res.lse, ref_lse, rtol=2e-6, atol=0)


# ---------------------------------------------------------------------- #
# the one-row base case under the shift-free sweep (exactness twin of
# bench_flash_decode_shape and bench_flash_decode_row_single)
# ---------------------------------------------------------------------- #


class _Tiles:
    """Counts the ranges that went through the block loop (``_score_tiles``)."""

    def __init__(self, patch):
        self.count, inner = 0, flash._score_tiles

        def counting(*sweep):
            self.count += 1
            return inner(*sweep)

        patch.setattr(flash, "_score_tiles", counting)


@st.composite
def one_row_case(draw):
    """A decode ring step as the kernel's varlen prelude hands it over: ``S``
    segments of one query row against ragged keys padded to a common length
    (a segment may keep none), holes in what is left, optionally one segment
    dark outright, and scores optionally spread far outside ``exp``'s range."""
    seed = draw(st.integers(0, 2**31 - 1))
    s = draw(st.integers(1, 12))
    length = draw(st.integers(1, 24))
    n_kv, g, dh = draw(st.sampled_from([(1, 1, 4), (2, 4, 8), (1, 16, 4)]))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([1.0, 40.0]))
    q = rng.standard_normal((s, 1, n_kv * g, dh)) * spread
    k = rng.standard_normal((s, length, n_kv, dh)) * spread
    v = rng.standard_normal((s, length, n_kv, dh))
    mask = np.arange(length)[None, None, :] < rng.integers(0, length + 1, (s, 1, 1))  # pad keys
    if draw(st.booleans()):
        mask &= rng.random((s, 1, length)) < 0.7
    if draw(st.booleans()):
        mask[draw(st.integers(0, s - 1))] = False
    return q, k, v, mask


class TestOneRowBaseCase:
    @given(one_row_case(), st.sampled_from([np.float64, np.float32]), st.booleans())
    @settings(**SETTINGS)
    def test_equals_the_shifted_sweep_and_the_reference(self, case, dtype, skip):
        """One row per segment, keys inside one block: no tile is cut, and the
        result is the shifted sweep's and the reference oracle's to the
        contract, blind rows and the dark segment ``O = 0, LSE = -inf`` in
        all three. Scores in range never pay for the fallback; out of range
        (spread 40) it answers. Kills: the mask dropped (pad keys attended);
        ``exp`` of an unseen score left in ``den``; a blind row divided
        through; ``acc`` or ``den`` left in the compute dtype's layout."""
        q, k, v, mask = case
        scale = 1.0 / np.sqrt(q.shape[-1])
        args = (q, k, v, mask, scale, mask.shape[2], 1, skip, np.dtype(dtype))
        with pytest.MonkeyPatch.context() as patch:
            tiles, fallbacks = _Tiles(patch), _Fallbacks(patch)
            out, lse = flash._attend(*args)
            assert tiles.count == fallbacks.count  # (a fallback goes through the block loop)
            taken = fallbacks.count
            ref_out, ref_lse = _shifted(flash._attend, *args)
        assert out.dtype == lse.dtype == np.float64
        _assert_close(dtype, out, lse, ref_out, ref_lse)
        dark = ~mask.any(axis=2)
        assert np.all(np.isneginf(lse[dark])) and np.all(out[dark] == 0)
        assert np.all(np.isfinite(lse[~dark]))
        scores = np.einsum("srhd,skhd->srhk", q, np.repeat(k, q.shape[2] // k.shape[2], axis=2)) * scale
        in_range = np.abs(scores).max() < 30  # exp stays inside sqrt(finfo) of either dtype
        if in_range:
            assert taken == 0
        if in_range or dtype is np.float64:  # (fp32 rounds a score of 1e3 by more than the contract)
            for seg in range(q.shape[0]):
                oracle = reference_attention_with_lse(q[seg], k[seg], v[seg], mask_fn=lambda *_: mask[seg])
                _assert_close(dtype, out[seg], lse[seg], *oracle)

    @pytest.mark.parametrize(
        "dtype,score", [(np.float64, 800.0), (np.float64, -800.0), (np.float32, 100.0), (np.float32, -100.0)]
    )
    def test_out_of_range_returns_none_and_the_fallback_answers(self, dtype, score):
        """A decode row whose every score is ``+score`` (``exp`` overflows) or
        ``-score`` (``den`` flushes to zero in a row that sees keys) beside an
        ordinary row and a blind one: the base case must return ``None`` —
        not a clean-looking ``O = 0, LSE = -inf`` — and the shifted sweep
        answer. Kills: the range check skipped on the base case; the
        blind-row rule taken from ``den == 0`` alone."""
        rng = np.random.default_rng(6)
        q = np.zeros((3, 1, 1, 4))
        k = np.zeros((3, 5, 1, 4))
        q[..., 0], k[..., 0] = 2.0, 1.0 + 0.01 * np.arange(5)[None, :, None]  # score = q0 * k0 / 2
        q[1, 0, 0, 0] = 2.0 * score
        v = rng.standard_normal((3, 5, 1, 4))
        mask = np.ones((3, 1, 5), dtype=bool)
        mask[2] = False
        args = (q, k, v, mask, 0.5, 128, 1, True, np.dtype(dtype))
        returned = []
        with pytest.MonkeyPatch.context() as patch:
            inner = flash._sweep_additive
            patch.setattr(flash, "_sweep_additive", lambda *sweep: returned.append(inner(*sweep)) or returned[-1])
            fallbacks = _Fallbacks(patch)
            out, lse = flash._attend(*args)
        assert returned == [None] and fallbacks.count == 1
        for seg in range(3):
            oracle = reference_attention_with_lse(
                q[seg], k[seg], v[seg], scale=0.5, mask_fn=lambda *_: mask[seg]
            )
            _assert_close(dtype, out[seg], lse[seg], *oracle)
        assert np.all(np.isneginf(lse[2])) and np.all(np.isfinite(lse[:2]))

    @pytest.mark.parametrize("keys,block_size,through_the_loop", [(8, 8, 0), (8, 128, 0), (9, 8, 1), (16, 8, 1)])
    def test_only_one_row_in_one_block_takes_it(self, keys, block_size, through_the_loop):
        """``R = 1`` over two blocks is the block loop's; so is ``R = 2`` in
        one block. Both still equal the reference."""
        rng = np.random.default_rng(7)
        k, v = rng.standard_normal((2, keys, 2, 4))
        for rows, looped in ((1, through_the_loop), (2, 1)):
            q = rng.standard_normal((rows, 4, 4))
            q_pos = np.full(rows, keys)
            with pytest.MonkeyPatch.context() as patch:
                tiles = _Tiles(patch)
                res = flash_attention(q, k, v, q_pos=q_pos, block_size=block_size)
            assert tiles.count == looped
            _assert_matches(res, *reference_attention_with_lse(q, k, v, q_pos=q_pos))

    def test_split_kv_decode_takes_it_per_split(self):
        """Flash-Decoding's split-KV: each split of a one-row call is a
        one-block range of its own, merged by the recurrence."""
        rng = np.random.default_rng(8)
        q = rng.standard_normal((1, 4, 8))
        k, v = rng.standard_normal((2, 40, 2, 8))
        with pytest.MonkeyPatch.context() as patch:
            tiles = _Tiles(patch)
            res = flash_attention(q, k, v, q_pos=np.array([40]), num_kv_splits=4)
        assert tiles.count == 0
        _assert_matches(res, *reference_attention_with_lse(q, k, v, q_pos=np.array([40])))

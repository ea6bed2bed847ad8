"""Tests for the blocked flash-style kernel."""

import itertools

import numpy as np
import pytest

from repro.attention import flash
from repro.attention.flash import flash_attention
from repro.attention.reference import reference_attention_with_lse

from helpers import make_qkv


class TestFlashMatchesReference:
    @pytest.mark.parametrize("block_size", [1, 3, 8, 64, 1000])
    def test_block_size_invariance(self, rng, block_size):
        q, k, v = make_qkv(rng, 17, 17)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v)
        res = flash_attention(q, k, v, block_size=block_size)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12)

    @pytest.mark.parametrize("splits", [1, 2, 5, 17, 50])
    def test_kv_split_invariance(self, rng, splits):
        """Flash-Decoding style split-KV is exact for any split count."""
        q, k, v = make_qkv(rng, 5, 33)
        ref_out, ref_lse = reference_attention_with_lse(
            q, k, v, q_pos=np.arange(28, 33), k_pos=np.arange(33)
        )
        res = flash_attention(
            q, k, v, q_pos=np.arange(28, 33), k_pos=np.arange(33),
            block_size=7, num_kv_splits=splits,
        )
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12)

    def test_partial_prefill_layout(self, rng):
        """Q over new positions, K over cached + new positions."""
        p, t = 20, 7
        q, _, _ = make_qkv(rng, t, 1)
        _, k, v = make_qkv(rng, 1, p + t)
        ref_out, ref_lse = reference_attention_with_lse(
            q, k, v, q_pos=np.arange(p, p + t), k_pos=np.arange(p + t)
        )
        res = flash_attention(q, k, v, q_pos=np.arange(p, p + t), k_pos=np.arange(p + t), block_size=5)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12)

    def test_fused_sequences(self, rng):
        q, k, v = make_qkv(rng, 10, 10)
        pos = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        seq = np.array([0] * 5 + [1] * 5)
        ref_out, ref_lse = reference_attention_with_lse(
            q, k, v, q_pos=pos, k_pos=pos, q_seq=seq, k_seq=seq
        )
        res = flash_attention(q, k, v, q_pos=pos, k_pos=pos, q_seq=seq, k_seq=seq, block_size=3)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12)


class TestFlashEdgeCases:
    def test_empty_kv(self, rng):
        q, _, _ = make_qkv(rng, 3, 1)
        res = flash_attention(q, np.zeros((0, 2, 16)), np.zeros((0, 2, 16)))
        assert np.all(res.out == 0)
        assert np.all(np.isneginf(res.lse))

    def test_empty_queries(self, rng):
        _, k, v = make_qkv(rng, 1, 5)
        res = flash_attention(np.zeros((0, 8, 16)), k, v)
        assert res.out.shape == (0, 8, 16)
        assert res.lse.shape == (0, 8)

    def test_invalid_block_size(self, rng):
        q, k, v = make_qkv(rng, 3, 3)
        with pytest.raises(ValueError):
            flash_attention(q, k, v, block_size=0)

    def test_invalid_splits(self, rng):
        q, k, v = make_qkv(rng, 3, 3)
        with pytest.raises(ValueError):
            flash_attention(q, k, v, num_kv_splits=0)

    def test_result_tokens_property(self, rng):
        q, k, v = make_qkv(rng, 4, 4)
        res = flash_attention(q, k, v)
        assert res.tokens == 4

    @pytest.mark.parametrize("compute_dtype", [np.int32, bool, "complex128", object])
    def test_non_floating_compute_dtype_is_rejected_at_the_boundary(self, rng, compute_dtype):
        """Not a ``UFuncTypeError`` out of the middle of a sweep, nor a
        ``finfo`` error out of the range check."""
        q, k, v = make_qkv(rng, 3, 3)
        with pytest.raises(ValueError, match="compute_dtype"):
            flash_attention(q, k, v, compute_dtype=compute_dtype)

    def test_astype(self, rng):
        q, k, v = make_qkv(rng, 4, 4)
        res = flash_attention(q, k, v).astype(np.float32)
        assert res.out.dtype == np.float32
        assert res.lse.dtype == np.float32


def _in_workspace(array: np.ndarray) -> bool:
    return any(np.shares_memory(array, buf) for buf in flash._WORKSPACE.values())


class TestWorkspaceAliasing:
    """The kernel reuses one scratch buffer per dtype and scales ``q`` in
    the pass that lays it out; neither may ever be visible to a caller —
    from the shift-free sweep (``spread`` 1) or from the shifted one its
    range check falls back to (``spread`` 60: scores of order 1e4). Kills:
    a block's output written into the workspace and kept as the sweep's
    state (the shift-free sweep's first term *is* its state)."""

    @pytest.mark.parametrize("compute_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "tq,n_heads,n_kv_heads", [(1, 2, 2), (1, 1, 1), (1, 8, 2), (6, 4, 1), (1, 4, 1), (6, 8, 2)]
    )
    def test_inputs_are_left_alone(self, rng, compute_dtype, tq, n_heads, n_kv_heads):
        """Where the grouped transpose of ``q`` is a no-op (one query row
        and one query head per KV head; for a rows-major layout also one KV
        head) ``np.ascontiguousarray`` hands back the caller's own buffer —
        the scale fold must not land in it."""
        q, k, v = make_qkv(rng, tq, 9, n_heads, n_kv_heads)
        saved = q.copy(), k.copy(), v.copy()
        for knobs in ({}, {"block_size": 4}, {"num_kv_splits": 2}):
            flash_attention(
                q, k, v, q_pos=np.arange(9 - tq, 9), compute_dtype=compute_dtype, **knobs
            )
            for array, copy in zip((q, k, v), saved):
                assert np.array_equal(array, copy)

    @pytest.mark.parametrize("n_heads,n_kv_heads", [(8, 2), (4, 1)])
    @pytest.mark.parametrize(
        "knobs", [{}, {"block_size": 4}, {"block_size": 4, "num_kv_splits": 3}]
    )
    def test_results_never_alias_the_workspace(self, rng, knobs, n_heads, n_kv_heads):
        # rows-major and keys-major tiles, either sweep
        for tq, spread in itertools.product((1, 6), (1.0, 60.0)):
            q, k, v = make_qkv(rng, tq, 12, n_heads, n_kv_heads)
            res = flash_attention(q * spread, k * spread, v, q_pos=np.arange(12 - tq, 12), **knobs)
            assert flash._WORKSPACE
            assert not _in_workspace(res.out) and not _in_workspace(res.lse)

    def test_a_result_survives_later_calls(self, rng):
        """Call A, call B (larger tile, the other compute dtype), call A
        again: B must neither disturb A's result nor what A computes next."""
        for spread in (1.0, 60.0):
            qa, ka, va = make_qkv(rng, 6, 12)
            qb, kb, vb = make_qkv(rng, 40, 70)
            qa, qb = qa * spread, qb * spread
            first = flash_attention(qa, ka, va, q_pos=np.arange(6, 12), block_size=5)
            kept = first.out.copy(), first.lse.copy()
            flash_attention(qb, kb, vb, q_pos=np.arange(30, 70), compute_dtype=np.float32)
            flash_attention(qb, kb, vb, q_pos=np.arange(30, 70))
            again = flash_attention(qa, ka, va, q_pos=np.arange(6, 12), block_size=5)
            assert np.array_equal(first.out, kept[0]) and np.array_equal(first.lse, kept[1])
            assert np.array_equal(again.out, kept[0]) and np.array_equal(again.lse, kept[1])

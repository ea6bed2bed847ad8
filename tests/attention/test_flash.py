"""Tests for the blocked flash-style kernel."""

import itertools

import numpy as np
import pytest

from repro.attention import flash
from repro.attention.flash import AttentionResult, flash_attention
from repro.attention.reference import reference_attention_with_lse
from repro.core.merge import merge_partials

from helpers import Fallbacks, make_qkv


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
        """Flash-Decoding style split-KV is exact for any split count: one
        kernel call per KV split, merged by Eq. 4 (empty splits included)."""
        q, k, v = make_qkv(rng, 5, 33)
        q_pos, k_pos = np.arange(28, 33), np.arange(33)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=q_pos, k_pos=k_pos)
        edges = np.linspace(0, 33, splits + 1, dtype=np.int64)
        res = merge_partials([
            flash_attention(q, k[lo:hi], v[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi], block_size=7)
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
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

    @pytest.mark.parametrize("compute_dtype", [np.int32, bool, "complex128", object])
    def test_non_floating_compute_dtype_is_rejected_at_the_boundary(self, rng, compute_dtype):
        """Not a ``UFuncTypeError`` out of the middle of a sweep, nor a
        ``finfo`` error out of the range check."""
        q, k, v = make_qkv(rng, 3, 3)
        with pytest.raises(ValueError, match="compute_dtype"):
            flash_attention(q, k, v, compute_dtype=compute_dtype)

    @pytest.mark.parametrize(
        "name,tokens", [("q_pos", 4), ("q_pos", 6), ("q_seq", 4), ("k_pos", 5), ("k_pos", 7), ("k_seq", 5)]
    )
    @pytest.mark.parametrize("k_seq", [None, np.repeat([0, 1], 3)])
    def test_coordinate_of_the_wrong_length_is_rejected(self, rng, name, tokens, k_seq):
        """5 query rows and 6 keys: a coordinate of any other length raises,
        naming itself, on the one-segment path and the varlen one (two
        sequences on the key side) — not a 4-row result, nor an answer over
        keys that do not exist."""
        q, k, v = make_qkv(rng, 5, 6)
        coords = {"k_seq": k_seq, name: np.arange(tokens)}
        with pytest.raises(ValueError, match=name):
            flash_attention(q, k, v, **coords)


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("operand", ["q", "k", "v"])
    def test_non_finite_operand_is_rejected_naming_it(self, rng, operand, value):
        """A NaN or infinity where the sweep reads it fails the range check,
        and the shifted sweep could only return NaN (a ring's running sums
        would carry it into every row of the rank): the call raises, naming
        the operand, normalising or not, one sequence or fused ones."""
        q, k, v = make_qkv(rng, 5, 6)
        {"q": q, "k": k, "v": v}[operand][0, 0, 0] = value
        for k_seq in (None, np.repeat([0, 1], 3)):
            for sums in (False, True):
                with pytest.raises(ValueError, match=f"{operand} holds a value that is not finite"):
                    flash_attention(q, k, v, q_seq=k_seq[:5] if k_seq is not None else None, k_seq=k_seq, sums=sums)


class TestSums:
    """``sums=True``: the shift-free ``(acc, den)`` the call would have
    normalised, which the rings add across steps."""

    @pytest.mark.parametrize(
        "tq,tk,seqs", [(7, 7, None), (6, 12, [4, 2]), (4, 11, [1, 1, 1, 1])]
    )
    def test_from_sums_is_the_normalised_call_bit_for_bit(self, rng, tq, tk, seqs):
        """One sequence, fused sequences, one-row segments (decode rows):
        ``AttentionResult.from_sums`` of the sums is the plain call's
        ``(O, LSE)`` bit for bit, blind rows (``den == 0``, ``acc == 0``)
        included; the sums are float64, fresh and the caller's to write."""
        q, k, v = make_qkv(rng, tq, tk)
        if seqs is None:
            coords = {"q_pos": np.arange(tk - tq - 1, tk - 1)}  # (row 0 precedes every key: blind)
        else:
            k_seq = np.repeat(np.arange(len(seqs)), np.diff(np.linspace(0, tk, len(seqs) + 1).astype(int)))
            coords = {"q_seq": np.repeat(np.arange(len(seqs)), seqs), "k_seq": k_seq, "q_pos": np.full(tq, tk)}
            coords["q_seq"][0] = 99  # a sequence with no keys: blind
        whole = flash_attention(q, k, v, **coords)
        acc, den = flash_attention(q, k, v, **coords, sums=True)
        assert acc.dtype == den.dtype == np.float64 and acc.shape == whole.out.shape
        assert acc.flags.writeable and not _in_workspace(acc) and not _in_workspace(den)
        blind = np.isneginf(whole.lse)
        assert blind.any() and np.all(den[blind] == 0) and np.all(acc[blind] == 0)
        again = AttentionResult.from_sums(acc, den, out=acc)
        assert np.array_equal(again.out, whole.out) and np.array_equal(again.lse, whole.lse)

    def test_a_varlen_group_out_of_range_normalises_the_whole_call(self, rng):
        """Fused sequences of 40, 3 and 3 keys sweep as two padded groups;
        scores of ``+-800`` in sequence 1 send its group to the shifted
        sweep, so the call returns ``(O, LSE)`` for every row, the other
        group's sums normalised, equal to the reference."""
        lengths = [40, 3, 3]
        q, k, v = make_qkv(rng, sum(lengths), sum(lengths))
        seq = np.repeat(np.arange(3), lengths)
        pos = np.concatenate([np.arange(n) for n in lengths])
        q[..., 0], k[..., 0] = 0.0, 0.0
        q[seq == 1, :, 0], k[seq == 1, :, 0] = 40.0, -80.0 * np.array([[1.0], [-1.0], [1.0]])
        coords = dict(q_pos=pos, k_pos=pos, q_seq=seq, k_seq=seq)
        with pytest.MonkeyPatch.context() as patch:
            fallbacks = Fallbacks(patch)
            res = flash_attention(q, k, v, **coords, sums=True)
        assert fallbacks.count == 1 and isinstance(res, AttentionResult)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12, rtol=0)

    def test_nothing_visible_is_zero_sums(self, rng):
        q, k, v = make_qkv(rng, 3, 4)
        for coords in ({"k_pos": np.arange(4) + 3}, {"q_seq": np.zeros(3), "k_seq": np.array([1, 1, 2, 2])}):
            acc, den = flash_attention(q, k, v, **coords, sums=True)
            assert acc.shape == (3, 8, 16) and den.shape == (3, 8)
            assert not acc.any() and not den.any()


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
        for knobs in ({}, {"block_size": 4}, {"block_size": 1}):
            flash_attention(
                q, k, v, q_pos=np.arange(9 - tq, 9), compute_dtype=compute_dtype, **knobs
            )
            for array, copy in zip((q, k, v), saved):
                assert np.array_equal(array, copy)

    @pytest.mark.parametrize("n_heads,n_kv_heads", [(8, 2), (4, 1)])
    @pytest.mark.parametrize(
        "knobs", [{}, {"block_size": 4}, {"block_size": 4, "compute_dtype": np.float32}]
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

"""Tests for the blocked flash-style kernel."""

import itertools

import numpy as np
import pytest

from repro.attention import flash
from repro.attention.flash import AttentionResult
from repro.attention.reference import reference_attention_with_lse
from repro.core.merge import merge_partials

from helpers import Fallbacks, attend, layout_of, make_qkv


class TestFlashMatchesReference:
    @pytest.mark.parametrize("block_size", [1, 3, 8, 64, 1000])
    def test_block_size_invariance(self, rng, block_size):
        q, k, v = make_qkv(rng, 17, 17)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v)
        res = attend(q, k, v, block_size=block_size)
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
            attend(q, k[lo:hi], v[lo:hi], q_pos=q_pos, k_pos=k_pos[lo:hi], block_size=7)
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
        res = attend(q, k, v, q_pos=np.arange(p, p + t), k_pos=np.arange(p + t), block_size=5)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12)

    def test_fused_sequences(self, rng):
        q, k, v = make_qkv(rng, 10, 10)
        pos = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        seq = np.array([0] * 5 + [1] * 5)
        ref_out, ref_lse = reference_attention_with_lse(
            q, k, v, q_pos=pos, k_pos=pos, q_seq=seq, k_seq=seq
        )
        res = attend(q, k, v, q_pos=pos, k_pos=pos, q_seq=seq, k_seq=seq, block_size=3)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12)


class TestFlashEdgeCases:
    def test_empty_kv(self, rng):
        q, _, _ = make_qkv(rng, 3, 1)
        res = attend(q, np.zeros((0, 2, 16)), np.zeros((0, 2, 16)))
        assert np.all(res.out == 0)
        assert np.all(np.isneginf(res.lse))

    def test_empty_queries(self, rng):
        _, k, v = make_qkv(rng, 1, 5)
        res = attend(np.zeros((0, 8, 16)), k, v)
        assert res.out.shape == (0, 8, 16)
        assert res.lse.shape == (0, 8)

    def test_invalid_block_size(self, rng):
        q, k, v = make_qkv(rng, 3, 3)
        with pytest.raises(ValueError):
            attend(q, k, v, block_size=0)

    @pytest.mark.parametrize("compute_dtype", [np.int32, bool, "complex128", object])
    def test_non_floating_compute_dtype_is_rejected_at_the_boundary(self, rng, compute_dtype):
        """Not a ``UFuncTypeError`` out of the middle of a sweep, nor a
        ``finfo`` error out of the range check."""
        q, k, v = make_qkv(rng, 3, 3)
        with pytest.raises(ValueError, match="compute_dtype"):
            attend(q, k, v, compute_dtype=compute_dtype)

    @pytest.mark.parametrize(
        "name,tokens", [("q_pos", 4), ("q_pos", 6), ("q_seq", 4), ("k_pos", 5), ("k_pos", 7), ("k_seq", 5)]
    )
    @pytest.mark.parametrize("k_seq", [None, np.repeat([0, 1], 3)])
    def test_coordinate_of_the_wrong_length_is_rejected(self, rng, name, tokens, k_seq):
        """5 query rows and 6 keys: a coordinate of any other length raises
        where the tokens' structure is built, before any layout — on the
        one-segment path and the varlen one (two sequences on the key side) —
        not a 4-row result, nor an answer over keys that do not exist."""
        q, k, v = make_qkv(rng, 5, 6)
        coords = {"k_seq": k_seq, name: np.arange(tokens)}
        with pytest.raises(ValueError, match="coordinate shapes"):
            attend(q, k, v, **coords)

    @pytest.mark.parametrize("rows,keys", [(5, 4), (4, 6), (5, 7)])
    def test_a_layout_for_another_shape_is_rejected(self, rng, rows, keys):
        """A layout is for one ``(Tq, Tk)``: handed 5 rows and 6 keys, a
        layout of fewer keys would leave the last keys unattended, of other
        rows would answer rows that do not exist."""
        q, k, v = make_qkv(rng, 5, 6)
        other = layout_of(*make_qkv(rng, rows, keys)[:2])
        with pytest.raises(ValueError, match=rf"layout is for \({rows}, {keys}\) queries and keys, got \(5, 6\)"):
            flash.flash_attention(q, k, v, other)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("operand", ["q", "k", "v"])
    def test_non_finite_operand_is_rejected_naming_it(self, rng, operand, value):
        """A NaN or infinity where the sweep reads it fails the range check,
        and the shifted sweep could only return NaN (a ring's running sums
        would carry it into every row of the rank): the call raises, naming
        the operand, one sequence or fused ones."""
        q, k, v = make_qkv(rng, 5, 6)
        {"q": q, "k": k, "v": v}[operand][0, 0, 0] = value
        for k_seq in (None, np.repeat([0, 1], 3)):
            with pytest.raises(ValueError, match=f"{operand} holds a value that is not finite"):
                attend(q, k, v, q_seq=k_seq[:5] if k_seq is not None else None, k_seq=k_seq)


class TestSums:
    """What a call returns: the shift-free ``(acc, den)``, which the rings
    add across steps and ``RunningSum`` normalises once."""

    @pytest.mark.parametrize(
        "tq,tk,seqs", [(7, 7, None), (6, 12, [4, 2]), (4, 11, [1, 1, 1, 1])]
    )
    def test_from_sums_is_the_normalised_call_bit_for_bit(self, rng, tq, tk, seqs):
        """One sequence, fused sequences, one-row segments (decode rows):
        the sums are float64, fresh and the caller's to write, a blind row
        (``den == 0``, ``acc == 0``) exactly where the reference has
        ``LSE = -inf``; ``AttentionResult.from_sums`` of them in place (as
        ``RunningSum`` normalises) is the normalisation into fresh memory
        bit for bit, and the reference's ``(O, LSE)``."""
        q, k, v = make_qkv(rng, tq, tk)
        if seqs is None:
            coords = {"q_pos": np.arange(tk - tq - 1, tk - 1)}  # (row 0 precedes every key: blind)
        else:
            k_seq = np.repeat(np.arange(len(seqs)), np.diff(np.linspace(0, tk, len(seqs) + 1).astype(int)))
            coords = {"q_seq": np.repeat(np.arange(len(seqs)), seqs), "k_seq": k_seq, "q_pos": np.full(tq, tk)}
            coords["q_seq"][0] = 99  # a sequence with no keys: blind
        acc, den = flash.flash_attention(q, k, v, layout_of(q, k, **coords))
        assert acc.dtype == den.dtype == np.float64 and acc.shape == q.shape
        assert acc.flags.writeable and not _in_workspace(acc) and not _in_workspace(den)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        blind = np.isneginf(ref_lse)
        assert blind.any() and np.all(den[blind] == 0) and np.all(acc[blind] == 0) and np.all(den[~blind] > 0)
        fresh = AttentionResult.from_sums(acc.copy(), den)
        again = AttentionResult.from_sums(acc, den, out=acc)
        assert np.array_equal(again.out, fresh.out) and np.array_equal(again.lse, fresh.lse)
        np.testing.assert_allclose(again.out, ref_out, atol=1e-12, rtol=0)
        assert np.array_equal(np.isneginf(again.lse), blind)
        np.testing.assert_allclose(again.lse[~blind], ref_lse[~blind], atol=1e-12, rtol=0)

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
            res = flash.flash_attention(q, k, v, layout_of(q, k, **coords))
        assert fallbacks.count == 1 and isinstance(res, AttentionResult)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, **coords)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-12, rtol=0)

    def test_nothing_visible_is_zero_sums(self, rng):
        q, k, v = make_qkv(rng, 3, 4)
        for coords in ({"k_pos": np.arange(4) + 3}, {"q_seq": np.zeros(3, dtype=int), "k_seq": np.array([1, 1, 2, 2])}):
            acc, den = flash.flash_attention(q, k, v, layout_of(q, k, **coords))
            assert acc.shape == (3, 8, 16) and den.shape == (3, 8)
            assert not acc.any() and not den.any()


def _in_workspace(array: np.ndarray) -> bool:
    return any(np.shares_memory(array, buf) for buf in flash._WORKSPACE.values())


def _swept(q, k, v, q_pos, **knobs) -> tuple[np.ndarray, np.ndarray]:
    """What one kernel call hands back, as its two arrays: the sums, or the
    shifted sweep's ``(O, LSE)``."""
    res = flash.flash_attention(q, k, v, layout_of(q, k, q_pos=q_pos), **knobs)
    return (res.out, res.lse) if isinstance(res, AttentionResult) else res


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
            attend(
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
            swept = _swept(q * spread, k * spread, v, np.arange(12 - tq, 12), **knobs)
            assert flash._WORKSPACE
            assert not any(_in_workspace(array) for array in swept)

    def test_a_result_survives_later_calls(self, rng):
        """Call A, call B (larger tile, the other compute dtype), call A
        again: B must neither disturb A's result nor what A computes next."""
        for spread in (1.0, 60.0):
            qa, ka, va = make_qkv(rng, 6, 12)
            qb, kb, vb = make_qkv(rng, 40, 70)
            qa, qb = qa * spread, qb * spread
            first = _swept(qa, ka, va, np.arange(6, 12), block_size=5)
            kept = first[0].copy(), first[1].copy()
            _swept(qb, kb, vb, np.arange(30, 70), compute_dtype=np.float32)
            _swept(qb, kb, vb, np.arange(30, 70))
            again = _swept(qa, ka, va, np.arange(6, 12), block_size=5)
            assert np.array_equal(first[0], kept[0]) and np.array_equal(first[1], kept[1])
            assert np.array_equal(again[0], kept[0]) and np.array_equal(again[1], kept[1])

"""Tests for position/sequence-id based attention masks."""

import numpy as np
import pytest

from repro.attention.masks import PAD_SEQ, attention_mask, causal_mask


class TestCausalMask:
    def test_storage_order_matches_triangular(self):
        t = 9
        pos = np.arange(t)
        mask = causal_mask(pos, pos)
        expected = np.tril(np.ones((t, t), dtype=bool))
        assert np.array_equal(mask, expected)

    def test_permutation_invariance(self):
        """The mask depends only on positions, not storage order."""
        rng = np.random.default_rng(0)
        pos = np.arange(12)
        perm = rng.permutation(12)
        base = causal_mask(pos, pos)
        permuted = causal_mask(pos[perm], pos[perm])
        assert np.array_equal(permuted, base[np.ix_(perm, perm)])

    def test_disjoint_position_ranges(self):
        """Partial prefill: new tokens see all earlier cached positions."""
        q_pos = np.array([10, 11])
        k_pos = np.arange(12)
        mask = causal_mask(q_pos, k_pos)
        assert mask[0, :11].all() and not mask[0, 11]
        assert mask[1].all()

    def test_empty(self):
        mask = causal_mask(np.zeros(0, dtype=int), np.arange(5))
        assert mask.shape == (0, 5)


class TestAttentionMask:
    def test_cross_sequence_blocked(self):
        q_pos = np.array([0, 0])
        k_pos = np.array([0, 0])
        q_seq = np.array([0, 1])
        k_seq = np.array([0, 1])
        mask = attention_mask(q_pos, k_pos, q_seq, k_seq)
        assert np.array_equal(mask, np.eye(2, dtype=bool))

    def test_padding_never_attends(self):
        q_pos = np.array([3])
        k_pos = np.array([0, 1, 2])
        k_seq = np.array([0, PAD_SEQ, 0])
        mask = attention_mask(q_pos, k_pos, np.array([0]), k_seq)
        assert mask.tolist() == [[True, False, True]]

    def test_padding_query_row_empty(self):
        mask = attention_mask(
            np.array([5]), np.arange(3), np.array([PAD_SEQ]), np.zeros(3, dtype=int)
        )
        assert not mask.any()

    def test_defaults_single_sequence(self):
        mask = attention_mask(np.arange(4), np.arange(4))
        assert np.array_equal(mask, np.tril(np.ones((4, 4), dtype=bool)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            attention_mask(np.arange(3), np.arange(3), q_seq=np.zeros(2, dtype=int))

"""Tests for GQA head bookkeeping."""

import numpy as np
import pytest

from repro.attention.gqa import expand_kv_heads, validate_gqa_shapes


class TestExpandKvHeads:
    def test_repeats_groups(self):
        kv = np.arange(2 * 2 * 3, dtype=float).reshape(2, 2, 3)
        out = expand_kv_heads(kv, 6)
        assert out.shape == (2, 6, 3)
        # query heads 0-2 share kv head 0; 3-5 share kv head 1
        for h in range(3):
            np.testing.assert_array_equal(out[:, h], kv[:, 0])
            np.testing.assert_array_equal(out[:, 3 + h], kv[:, 1])

    def test_identity_when_equal(self):
        kv = np.random.default_rng(0).standard_normal((4, 3, 5))
        np.testing.assert_array_equal(expand_kv_heads(kv, 3), kv)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            expand_kv_heads(np.zeros((1, 3, 2)), 8)


class TestValidateShapes:
    def test_valid(self):
        q = np.zeros((5, 8, 16))
        k = np.zeros((7, 2, 16))
        assert validate_gqa_shapes(q, k, k) == (5, 7, 8, 2)

    def test_kv_mismatch(self):
        with pytest.raises(ValueError):
            validate_gqa_shapes(np.zeros((5, 8, 16)), np.zeros((7, 2, 16)), np.zeros((6, 2, 16)))

    def test_head_dim_mismatch(self):
        with pytest.raises(ValueError):
            validate_gqa_shapes(np.zeros((5, 8, 16)), np.zeros((7, 2, 8)), np.zeros((7, 2, 8)))

    def test_bad_grouping(self):
        with pytest.raises(ValueError):
            validate_gqa_shapes(np.zeros((5, 8, 16)), np.zeros((7, 3, 16)), np.zeros((7, 3, 16)))

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            validate_gqa_shapes(np.zeros((5, 8)), np.zeros((7, 2, 16)), np.zeros((7, 2, 16)))

"""Tests for merge attention (Appendix B, Eq. 4)."""

import numpy as np
import pytest

from repro.attention.flash import AttentionResult
from repro.attention.reference import reference_attention_with_lse
from repro.core.merge import merge_partials

from helpers import make_qkv


class TestMergePartials:
    def test_merge_disjoint_kv_chunks_equals_full(self, rng):
        """The paper's Equation (4): merging per-chunk partials is exact."""
        q, k, v = make_qkv(rng, 8, 32)
        kpos = np.arange(32)
        qpos = np.arange(24, 32)
        full_out, full_lse = reference_attention_with_lse(q, k, v, q_pos=qpos, k_pos=kpos)

        partials = []
        for lo in range(0, 32, 9):
            hi = min(lo + 9, 32)
            o, l = reference_attention_with_lse(
                q, k[lo:hi], v[lo:hi], q_pos=qpos, k_pos=kpos[lo:hi]
            )
            partials.append(AttentionResult(out=o, lse=l))
        merged = merge_partials(partials)
        np.testing.assert_allclose(merged.out, full_out, atol=1e-12)
        np.testing.assert_allclose(merged.lse, full_lse, atol=1e-12)

    def test_single_partial_identity(self, rng):
        q, k, v = make_qkv(rng, 4, 4)
        o, l = reference_attention_with_lse(q, k, v)
        merged = merge_partials([AttentionResult(out=o, lse=l)])
        np.testing.assert_allclose(merged.out, o, atol=1e-14)
        np.testing.assert_allclose(merged.lse, l, atol=1e-14)

    def test_empty_partials_are_identity(self, rng):
        q, k, v = make_qkv(rng, 4, 4)
        o, l = reference_attention_with_lse(q, k, v)
        empty = AttentionResult(
            out=np.zeros_like(o), lse=np.full_like(l, -np.inf)
        )
        merged = merge_partials([empty, AttentionResult(out=o, lse=l), empty])
        np.testing.assert_allclose(merged.out, o, atol=1e-12)
        np.testing.assert_allclose(merged.lse, l, atol=1e-12)

    def test_all_empty_partials(self):
        empty = AttentionResult(out=np.zeros((2, 2, 4)), lse=np.full((2, 2), -np.inf))
        merged = merge_partials([empty, empty])
        assert np.all(merged.out == 0)
        assert np.all(np.isneginf(merged.lse))

    def test_permutation_invariance(self, rng):
        q, k, v = make_qkv(rng, 6, 30)
        kpos = np.arange(30)
        qpos = np.arange(24, 30)
        partials = []
        for lo in range(0, 30, 6):
            o, l = reference_attention_with_lse(
                q, k[lo : lo + 6], v[lo : lo + 6], q_pos=qpos, k_pos=kpos[lo : lo + 6]
            )
            partials.append(AttentionResult(out=o, lse=l))
        a = merge_partials(partials)
        b = merge_partials(partials[::-1])
        np.testing.assert_allclose(a.out, b.out, atol=1e-12)
        np.testing.assert_allclose(a.lse, b.lse, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            merge_partials([])
        a = AttentionResult(out=np.zeros((2, 2, 4)), lse=np.zeros((2, 2)))
        b = AttentionResult(out=np.zeros((3, 2, 4)), lse=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            merge_partials([a, b])

"""Tests for the tensor-parallel attention baseline."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.baselines.tensor_parallel import tp_attention, tp_shard_heads
from repro.distributed.process_group import SimProcessGroup

from helpers import comm, make_qkv, traced_group


class TestHeadSharding:
    def test_sharded_kv_heads(self):
        """G <= NKV: each rank owns distinct query and KV heads."""
        shards = tp_shard_heads(n_heads=8, n_kv_heads=4, group_size=2)
        np.testing.assert_array_equal(shards[0]["q_heads"], np.arange(4))
        np.testing.assert_array_equal(shards[0]["kv_heads"], [0, 1])
        np.testing.assert_array_equal(shards[1]["kv_heads"], [2, 3])

    def test_replicated_kv_heads(self):
        """G > NKV: KV heads replicate (the paper's multi-node TP setup)."""
        shards = tp_shard_heads(n_heads=8, n_kv_heads=2, group_size=8)
        # each rank has 1 query head; kv head 0 serves ranks 0-3
        owners_of_kv0 = [r for r, s in enumerate(shards) if 0 in s["kv_heads"]]
        assert owners_of_kv0 == [0, 1, 2, 3]

    def test_llama405b_tp16(self):
        """TP16: 8 query heads per GPU, each KV head on 2 GPUs."""
        shards = tp_shard_heads(128, 8, 16)
        assert all(len(s["q_heads"]) == 8 for s in shards)
        replication = sum(1 for s in shards if 0 in s["kv_heads"])
        assert replication == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            tp_shard_heads(10, 2, 4)
        with pytest.raises(ValueError):
            tp_shard_heads(8, 3, 2)
        with pytest.raises(ValueError):
            tp_shard_heads(8, 2, 0)


class TestTpAttention:
    @pytest.mark.parametrize("world", [1, 2, 4, 8])
    def test_matches_reference(self, rng, world):
        q, k, v = make_qkv(rng, 21, 21, n_heads=8, n_kv_heads=2)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v)
        res = tp_attention(SimProcessGroup(world), q, k, v)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-10)
        np.testing.assert_allclose(res.lse, ref_lse, atol=1e-10)

    def test_partial_prefill_positions(self, rng):
        q, _, _ = make_qkv(rng, 4, 1, n_heads=4, n_kv_heads=2)
        _, k, v = make_qkv(rng, 1, 12, n_heads=4, n_kv_heads=2)
        qpos = np.arange(8, 12)
        kpos = np.arange(12)
        ref_out, _ = reference_attention_with_lse(q, k, v, q_pos=qpos, k_pos=kpos)
        res = tp_attention(SimProcessGroup(2), q, k, v, q_pos=qpos, k_pos=kpos)
        np.testing.assert_allclose(res.out, ref_out, atol=1e-10)

    def test_traffic_traced(self, rng):
        q, k, v = make_qkv(rng, 8, 8, n_heads=4, n_kv_heads=2)
        group = traced_group(2)
        tp_attention(group, q, k, v)
        assert comm(group)["allgather"].count == 1

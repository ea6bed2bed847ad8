"""Tests for the striped-sharding ablation alternative."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.sharding import ShardedKV, ShardedQueries, causal_flops_per_rank
from repro.core.sharding_striped import (
    striped_flops_per_rank,
    striped_imbalance,
    striped_shard_positions,
)
from repro.distributed.process_group import SimProcessGroup

from helpers import make_qkv, run_ring


class TestStripedPositions:
    @pytest.mark.parametrize("length,world", [(16, 4), (17, 4), (5, 8), (100, 3)])
    def test_partition(self, length, world):
        shards = striped_shard_positions(length, world)
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(length))

    def test_round_robin_pattern(self):
        shards = striped_shard_positions(8, 4)
        np.testing.assert_array_equal(shards[0], [0, 4])
        np.testing.assert_array_equal(shards[3], [3, 7])

    def test_validation(self):
        with pytest.raises(ValueError):
            striped_shard_positions(-1, 2)
        with pytest.raises(ValueError):
            striped_shard_positions(4, 0)


class TestStripedBalance:
    def test_striped_is_balanced(self):
        assert striped_imbalance(4096, 8) < 1.01

    def test_both_schemes_balanced_naive_is_not(self):
        """Striping and 2N-chunking agree on total work and balance."""
        length, world = 2048, 4
        striped = striped_flops_per_rank(length, world)
        chunked = causal_flops_per_rank(length, world)
        assert striped.sum() == chunked.sum()
        assert striped.max() / striped.mean() < 1.01
        assert chunked.max() / chunked.mean() < 1.01


class TestStripedThroughRing:
    def test_ring_passkv_exact_with_striping(self, rng):
        """Position-based masks make sharding schemes interchangeable: the
        ring algorithm is exact under striping too."""
        world, t = 3, 23
        q, k, v = make_qkv(rng, t, t)
        ref_out, _ = reference_attention_with_lse(q, k, v)
        queries, kvs = [], []
        for pos in striped_shard_positions(t, world):
            sid = np.zeros(pos.shape[0], dtype=np.int64)
            queries.append(ShardedQueries(q=q[pos], positions=pos, seq_ids=sid))
            kvs.append(ShardedKV(k=k[pos], v=v[pos], positions=pos, seq_ids=sid))
        results = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions], atol=1e-10)

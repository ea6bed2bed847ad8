"""Tests for ring pass-Q prefill (Algorithm 3): lossless exactness."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.distributed.process_group import SimProcessGroup

from helpers import (
    comm,
    make_qkv,
    shard_qkv_full_prefill,
    shard_varseq_full_prefill,
    traced_group,
)


class TestFullPrefill:
    @pytest.mark.parametrize("world", [1, 2, 3, 5])
    def test_matches_reference(self, rng, world):
        t = 37
        q, k, v = make_qkv(rng, t, t)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        group = SimProcessGroup(world)
        results = ring_passq_prefill(group, queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions], atol=1e-10)
            np.testing.assert_allclose(res.lse, ref_lse[qs.positions], atol=1e-10)

    def test_agrees_with_passkv(self, rng):
        """The two lossless variants must agree with each other exactly."""
        world = 4
        q, k, v = make_qkv(rng, 26, 26)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        res_q = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        res_kv = ring_passkv_prefill(SimProcessGroup(world), queries, kvs)
        for a, b in zip(res_q, res_kv):
            np.testing.assert_allclose(a.out, b.out, atol=1e-10)
            np.testing.assert_allclose(a.lse, b.lse, atol=1e-10)

    def test_uses_all2all(self, rng):
        world = 3
        q, k, v = make_qkv(rng, 12, 12)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        group = traced_group(world)
        ring_passq_prefill(group, queries, kvs)
        assert comm(group)["sendrecv"].count == world - 1
        assert comm(group)["all2all"].count == 1


class TestPartialPrefill:
    def test_high_cache_hit_rate(self, rng):
        """pass-Q's home regime: tiny T against a large resident P."""
        world = 4
        p_len, t_len = 60, 4
        total = p_len + t_len
        q_new, k_all, v_all = make_qkv(rng, t_len, total)
        ref_out, _ = reference_attention_with_lse(
            q_new, k_all, v_all, q_pos=np.arange(p_len, total), k_pos=np.arange(total)
        )
        shards = shard_sequences([SequenceSpec(0, t_len, p_len)], world)
        cached_splits = np.array_split(np.arange(p_len), world)
        queries, kvs = [], []
        for (pos, sid), cached_pos in zip(shards, cached_splits):
            queries.append(
                ShardedQueries(q=q_new[pos - p_len], positions=pos, seq_ids=sid)
            )
            all_pos = np.concatenate([cached_pos, pos])
            kvs.append(
                ShardedKV(
                    k=k_all[all_pos], v=v_all[all_pos], positions=all_pos,
                    seq_ids=np.zeros(all_pos.shape[0], dtype=np.int64),
                )
            )
        group = SimProcessGroup(world)
        results = ring_passq_prefill(group, queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions - p_len], atol=1e-10)

    def test_query_padding_trimmed(self, rng):
        """Uneven query shards (T not divisible by N) round-trip exactly."""
        world = 4
        t = 10  # 10 tokens over 4 ranks: shards of 3,3,2,2
        q, k, v = make_qkv(rng, t, t)
        ref_out, _ = reference_attention_with_lse(q, k, v)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        lengths = [len(qs) for qs in queries]
        assert max(lengths) != min(lengths)  # padding actually exercised
        results = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        for res, qs in zip(results, queries):
            assert res.out.shape[0] == len(qs)
            np.testing.assert_allclose(res.out, ref_out[qs.positions], atol=1e-10)

    def test_varseq(self, rng):
        world = 2
        per_seq = {0: make_qkv(rng, 11, 11), 1: make_qkv(rng, 19, 19)}
        queries, kvs = shard_varseq_full_prefill(per_seq, world)
        results = ring_passq_prefill(SimProcessGroup(world), queries, kvs)
        refs = {sid: reference_attention_with_lse(*qkv) for sid, qkv in per_seq.items()}
        for res, qs in zip(results, queries):
            for i, (p, s) in enumerate(zip(qs.positions, qs.seq_ids)):
                np.testing.assert_allclose(res.out[i], refs[int(s)][0][int(p)], atol=1e-10)


class TestValidation:
    def test_world_size_mismatch(self, rng):
        q, k, v = make_qkv(rng, 8, 8)
        queries, kvs = shard_qkv_full_prefill(q, k, v, 2)
        with pytest.raises(ValueError):
            ring_passq_prefill(SimProcessGroup(4), queries, kvs)

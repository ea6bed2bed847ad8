"""Tests for ring pass-KV prefill (Algorithm 2): lossless exactness."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_passkv import ring_passkv_prefill
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
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 8])
    def test_matches_reference(self, rng, world):
        t = 41
        q, k, v = make_qkv(rng, t, t)
        ref_out, ref_lse = reference_attention_with_lse(q, k, v)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        group = SimProcessGroup(world)
        results = ring_passkv_prefill(group, queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions], atol=1e-10)
            np.testing.assert_allclose(res.lse, ref_lse[qs.positions], atol=1e-10)

    def test_sendrecv_count(self, rng):
        """The ring shifts KV exactly N-1 times per call."""
        world = 4
        q, k, v = make_qkv(rng, 16, 16)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        group = traced_group(world)
        ring_passkv_prefill(group, queries, kvs)
        assert comm(group)["sendrecv"].count == world - 1
        assert comm(group)["all2all"].count == 0

    def test_varseq_fused_batch(self, rng):
        """Fused variable-length sequences stay isolated and exact."""
        world = 3
        per_seq = {
            0: make_qkv(rng, 13, 13),
            1: make_qkv(rng, 29, 29),
            2: make_qkv(rng, 7, 7),
        }
        queries, kvs = shard_varseq_full_prefill(per_seq, world)
        group = SimProcessGroup(world)
        results = ring_passkv_prefill(group, queries, kvs)
        refs = {
            sid: reference_attention_with_lse(*qkv) for sid, qkv in per_seq.items()
        }
        for res, qs in zip(results, queries):
            for i, (p, s) in enumerate(zip(qs.positions, qs.seq_ids)):
                np.testing.assert_allclose(
                    res.out[i], refs[int(s)][0][int(p)], atol=1e-10
                )


class TestPartialPrefill:
    def test_unbalanced_cached_kv(self, rng):
        """Cached KV lives wherever earlier turns put it (here: rank 0 holds
        much more) — padding keeps messages equal and output exact."""
        world = 3
        p_len, t_len = 20, 9
        total = p_len + t_len
        q_new, k_all, v_all = make_qkv(rng, t_len, total)
        ref_out, _ = reference_attention_with_lse(
            q_new, k_all, v_all, q_pos=np.arange(p_len, total), k_pos=np.arange(total)
        )
        # new tokens load-balance sharded
        shards = shard_sequences([SequenceSpec(0, t_len, p_len)], world)
        # cached tokens unevenly sharded: rank 0 gets 14, rank 1 gets 6, rank 2 none
        cached_split = [np.arange(0, 14), np.arange(14, 20), np.arange(20, 20)]
        queries, kvs = [], []
        for (pos, sid), cached_pos in zip(shards, cached_split):
            queries.append(
                ShardedQueries(q=q_new[pos - p_len], positions=pos, seq_ids=sid)
            )
            all_pos = np.concatenate([cached_pos, pos])
            kvs.append(
                ShardedKV(
                    k=k_all[all_pos],
                    v=v_all[all_pos],
                    positions=all_pos,
                    seq_ids=np.zeros(all_pos.shape[0], dtype=np.int64),
                )
            )
        group = SimProcessGroup(world)
        results = ring_passkv_prefill(group, queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions - p_len], atol=1e-10)

    def test_padding_bytes_on_wire(self, rng):
        """Padded shards mean every ring message has the max shard's size."""
        world = 2
        q, k, v = make_qkv(rng, 8, 8)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        # Make rank 1 artificially hold one extra cached token of seq 0.
        extra = ShardedKV(
            k=k[:1], v=v[:1],
            positions=np.array([0], dtype=np.int64),
            seq_ids=np.array([0], dtype=np.int64),
        )
        kvs[1] = ShardedKV.concat([kvs[1], extra])
        group = traced_group(world)
        ring_passkv_prefill(group, queries, kvs)
        events = [e for e in group.tracer.events if e.name == "sendrecv"]
        assert len(events) == 1
        # both ranks padded to 5 tokens of seq 0: k+v (2) * 5 tokens * 2 heads
        # * 16 dims + positions/seq_ids (2 * 5) elements, x2 wire bytes
        expected_elements = 2 * 5 * 2 * 16 + 2 * 5
        assert events[0].attrs["bytes"] == expected_elements * group.wire_bytes_per_element


class TestValidation:
    def test_world_size_mismatch(self, rng):
        q, k, v = make_qkv(rng, 8, 8)
        queries, kvs = shard_qkv_full_prefill(q, k, v, 2)
        group = SimProcessGroup(3)
        with pytest.raises(ValueError):
            ring_passkv_prefill(group, queries, kvs)

"""Cross-check: numerically traced wire bytes match the roofline formulas.

The latency model prices communication from the closed forms of Table 3;
the numeric simulator counts the bytes its collectives actually move. This
integration test pins the two against each other, so the analytic tables
cannot silently drift from what the algorithms really send.
"""

import numpy as np
import pytest

from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.model.config import ModelConfig
from repro.perf.roofline import all2all_bytes, kv_bytes, q_bytes

from helpers import comm, run_ring, traced_group


CFG = ModelConfig(
    name="probe", n_layers=1, model_dim=64, ffn_dim=128,
    n_heads=8, n_kv_heads=2, vocab_size=64,
)


def build(world: int, t: int, rng):
    dh = CFG.head_dim
    q = rng.standard_normal((t, CFG.n_heads, dh))
    k = rng.standard_normal((t, CFG.n_kv_heads, dh))
    v = rng.standard_normal((t, CFG.n_kv_heads, dh))
    shards = shard_sequences([SequenceSpec(0, t)], world)
    queries = [ShardedQueries(q=q[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    kvs = [ShardedKV(k=k[pos], v=v[pos], positions=pos, seq_ids=sid) for pos, sid in shards]
    return queries, kvs


class TestPassKvTraffic:
    @pytest.mark.parametrize("world,t", [(2, 64), (4, 64), (4, 96)])
    def test_sendrecv_bytes_match_table3(self, rng, world, t):
        queries, kvs = build(world, t, rng)
        group = traced_group(world)
        run_ring(ring_passkv_prefill, group, queries, kvs)
        traced = comm(group)["sendrecv"].bytes

        # Table 3: KV bytes for the whole context; the ring moves one shard
        # per step for N-1 steps -> (N-1)/N of the total, plus coordinate
        # metadata (positions + seq ids: 2 int per token).
        shard_tokens = t / world
        expected_payload = (world - 1) * kv_bytes(CFG, t, 0, 2.0) / world
        metadata = (world - 1) * 2 * shard_tokens * 2
        assert traced == pytest.approx(expected_payload + metadata, rel=0.02)


class TestPassQTraffic:
    @pytest.mark.parametrize("world,t", [(2, 64), (4, 64)])
    def test_ring_bytes_match_table3(self, rng, world, t):
        queries, kvs = build(world, t, rng)
        group = traced_group(world)
        run_ring(ring_passq_prefill, group, queries, kvs)
        traced = comm(group)["sendrecv"].bytes
        shard_tokens = t / world
        expected_payload = (world - 1) * q_bytes(CFG, t) / world
        metadata = (world - 1) * 2 * shard_tokens * 2
        assert traced == pytest.approx(expected_payload + metadata, rel=0.02)

    @pytest.mark.parametrize("world,t", [(2, 64), (4, 64)])
    def test_all2all_bytes_match_appendix_c(self, rng, world, t):
        queries, kvs = build(world, t, rng)
        group = traced_group(world)
        run_ring(ring_passq_prefill, group, queries, kvs)
        traced = comm(group)["all2all"].bytes
        # Appendix C: (N-1) partials of (D + 1) values per token — our NH
        # heads each carry an LSE, so the exact numeric payload is
        # (D + NH) per token; the paper's D+1 folds heads into one LSE.
        shard_tokens = t / world
        expected = (world - 1) * shard_tokens * (CFG.model_dim + CFG.n_heads) * 2
        assert traced == pytest.approx(expected, rel=0.02)
        # and the Appendix C closed form is within the head-count slack
        closed_form = all2all_bytes(CFG, shard_tokens, world)
        assert traced == pytest.approx(closed_form, rel=0.15)

    def test_passq_moves_less_than_passkv_when_q_smaller(self, rng):
        """With T tokens and deep cache the Q stream is cheaper; for full
        prefill with this GQA ratio (8/2), KV is cheaper (Eq. 1)."""
        world, t = 4, 64
        queries, kvs = build(world, t, rng)
        g_kv = traced_group(world)
        run_ring(ring_passkv_prefill, g_kv, queries, kvs)
        g_q = traced_group(world)
        run_ring(ring_passq_prefill, g_q, queries, kvs)
        # NH=8, NKV=2: KV bytes = 2*(2/8) = 0.5x Q bytes -> pass-KV cheaper
        assert comm(g_kv)["sendrecv"].bytes < comm(g_q)["sendrecv"].bytes

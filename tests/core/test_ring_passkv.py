"""Tests for ring pass-KV prefill (Algorithm 2): lossless exactness."""

import tracemalloc

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.distributed.process_group import SimProcessGroup

from helpers import (
    PrefillRound,
    comm,
    make_qkv,
    run_ring,
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
        results = run_ring(ring_passkv_prefill, group, queries, kvs)
        for res, qs in zip(results, queries):
            np.testing.assert_allclose(res.out, ref_out[qs.positions], atol=1e-10)
            np.testing.assert_allclose(res.lse, ref_lse[qs.positions], atol=1e-10)

    def test_sendrecv_count(self, rng):
        """The ring shifts KV exactly N-1 times per call."""
        world = 4
        q, k, v = make_qkv(rng, 16, 16)
        queries, kvs = shard_qkv_full_prefill(q, k, v, world)
        group = traced_group(world)
        run_ring(ring_passkv_prefill, group, queries, kvs)
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
        results = run_ring(ring_passkv_prefill, group, queries, kvs)
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
        results = run_ring(ring_passkv_prefill, group, queries, kvs)
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
        run_ring(ring_passkv_prefill, group, queries, kvs)
        events = [e for e in group.tracer.events if e.name == "sendrecv"]
        assert len(events) == 1
        # both ranks padded to 5 tokens of seq 0: k+v (2) * 5 tokens * 2 heads
        # * 16 dims + positions/seq_ids (2 * 5) elements, x2 wire bytes
        expected_elements = 2 * 5 * 2 * 16 + 2 * 5
        assert events[0].attrs["bytes"] == expected_elements * 2


class TestRingPlan:
    """A prefill round hands its ring one plan at every layer: the padding,
    the skip decisions and the kernel layouts, built over the first layer's
    shards, serving their structure only."""

    def test_a_plan_handed_another_token_count_raises(self, rng):
        """A plan built over a fused partial-prefill round whose ranks hold
        different per-sequence KV counts (so the KV is padded), handed the
        same shards but one rank's KV a token short: the ring raises,
        naming the rank, before any step runs — it never replans behind
        the caller's back. Over the shards it was built for, the plan's
        result is a fresh ring's, bit for bit, and exact."""
        world = 3
        prefill = PrefillRound(world, {0: ([6, 5, 0], 6), 1: ([0, 0, 4], 9), 2: ([0, 0, 0], 5)})
        per_seq = prefill.arrays(rng)
        queries, kvs = prefill.shards(per_seq)
        plan = plan_prefill(queries, kvs, pass_q=False)
        short = list(kvs)
        kv = short[1]
        short[1] = ShardedKV(k=kv.k[:-1], v=kv.v[:-1], positions=kv.positions[:-1], seq_ids=kv.seq_ids[:-1])
        group = traced_group(world)
        with pytest.raises(ValueError, match="rank 1 holds"):
            ring_passkv_prefill(group, plan, [s.q for s in queries], short)
        assert not group.tracer.events
        got = ring_passkv_prefill(SimProcessGroup(world), plan, [s.q for s in queries], kvs)
        want = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        refs = {}
        for sid, (q, k, v) in per_seq.items():
            p, t = prefill.context(sid)
            refs[sid] = reference_attention_with_lse(q, k, v, q_pos=np.arange(p, p + t), k_pos=np.arange(p + t))[0]
        for g, w, qs in zip(got, want, queries):
            assert np.array_equal(g.out, w.out) and np.array_equal(g.lse, w.lse)
            for i, (pos, sid) in enumerate(zip(qs.positions.tolist(), qs.seq_ids.tolist())):
                np.testing.assert_allclose(g.out[i], refs[sid][pos - prefill.context(sid)[0]], atol=1e-10)


class TestValidation:
    def test_world_size_mismatch(self, rng):
        q, k, v = make_qkv(rng, 8, 8)
        queries, kvs = shard_qkv_full_prefill(q, k, v, 2)
        group = SimProcessGroup(3)
        with pytest.raises(ValueError):
            run_ring(ring_passkv_prefill, group, queries, kvs)


def _transient_per_rank(world: int) -> float:
    """Peak traced bytes of one ring call — results included, inputs and the
    kernel's workspace (warmed by a first call) not — per rank, in units of
    one rank's output partial (``out`` + ``lse``)."""
    rng = np.random.default_rng(world)
    q, k, v = make_qkv(rng, 256, 256)
    queries, kvs = shard_qkv_full_prefill(q, k, v, world)
    run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / world / (results[0].out.nbytes + results[0].lse.nbytes)


class TestMemory:
    def test_transient_per_rank_does_not_grow_with_the_world(self):
        """Each rank adds its steps' sums into one running pair and
        normalises it in place, so what a rank holds at once is about one
        partial whatever N — not N partials and an N-high Eq. 4 stack (12x
        one partial at CP8 when the ring held and merged them)."""
        cp2, cp8 = _transient_per_rank(2), _transient_per_rank(8)
        assert cp8 <= 4.0, f"CP8 holds {cp8:.1f} partials per rank"
        assert cp8 <= cp2, f"CP8 holds {cp8:.1f} partials per rank, CP2 {cp2:.1f}"

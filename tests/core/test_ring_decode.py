"""Tests for batched ring pass-Q decode (Algorithm 4)."""

import numpy as np
import pytest

from repro.attention.flash import AttentionResult
from repro.attention.reference import reference_attention_with_lse
from repro.core.merge import merge_partials
from repro.core.ring_decode import DecodeBatch, ring_passq_decode, round_robin_assignment
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup

from helpers import comm, make_qkv, traced_group


def build_decode_scenario(rng, world, batch, ctx_lens):
    """Per-sequence contexts sharded round-robin-ish across ranks, plus one
    new decode token per sequence (its KV appended to its owner's shard)."""
    assert len(ctx_lens) == batch
    nh, nkv, dh = 8, 2, 16
    seq_kv = {}
    refs = {}
    batch_q = np.zeros((batch, nh, dh))
    positions = np.zeros(batch, dtype=np.int64)
    assignment = round_robin_assignment(batch, world, step=0)

    rank_parts = [[] for _ in range(world)]
    for b, ctx in enumerate(ctx_lens):
        total = ctx + 1  # cached context + the new decode token
        q, k, v = make_qkv(rng, 1, total, n_heads=nh, n_kv_heads=nkv, head_dim=dh)
        seq_kv[b] = (k, v)
        batch_q[b] = q[0]
        positions[b] = ctx
        out, lse = reference_attention_with_lse(
            q, k, v, q_pos=np.array([ctx]), k_pos=np.arange(total)
        )
        refs[b] = (out[0], lse[0])
        # scatter the cached context across ranks by stripes; the decode
        # token's KV goes to the assigned rank
        stripes = np.array_split(np.arange(ctx), world)
        for rank, stripe in enumerate(stripes):
            pos = stripe
            if rank == assignment[b]:
                pos = np.concatenate([stripe, [ctx]])
            if pos.size:
                rank_parts[rank].append(
                    ShardedKV(
                        k=k[pos], v=v[pos],
                        positions=pos.astype(np.int64),
                        seq_ids=np.full(pos.shape[0], b, dtype=np.int64),
                    )
                )
    kv_shards = [
        ShardedKV.concat(parts) if parts else ShardedKV.empty(nkv, dh)
        for parts in rank_parts
    ]
    batch_obj = DecodeBatch(
        q=batch_q, positions=positions, seq_ids=np.arange(batch, dtype=np.int64)
    )
    return kv_shards, batch_obj, refs


class TestRoundRobin:
    def test_offset_rotates(self):
        a0 = round_robin_assignment(4, 4, 0)
        a1 = round_robin_assignment(4, 4, 1)
        np.testing.assert_array_equal(a0, [0, 1, 2, 3])
        np.testing.assert_array_equal(a1, [1, 2, 3, 0])

    def test_balanced_over_steps(self):
        """Over N steps every batch slot visits every rank once — the
        property that levels KV-cache growth (§3.6)."""
        world, batch = 4, 4
        visits = np.zeros((batch, world), dtype=int)
        for step in range(world):
            a = round_robin_assignment(batch, world, step)
            for b in range(batch):
                visits[b, a[b]] += 1
        assert np.all(visits == 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            round_robin_assignment(-1, 4, 0)
        with pytest.raises(ValueError):
            round_robin_assignment(4, 0, 0)
        with pytest.raises(ValueError):
            round_robin_assignment(4, 4, -1)


class TestDecodeExactness:
    @pytest.mark.parametrize("world,batch", [(1, 1), (2, 1), (2, 4), (3, 5), (4, 2)])
    def test_matches_reference(self, rng, world, batch):
        ctx_lens = [int(c) for c in rng.integers(5, 40, size=batch)]
        kv_shards, batch_obj, refs = build_decode_scenario(rng, world, batch, ctx_lens)
        group = SimProcessGroup(world)
        result, assignment = ring_passq_decode(group, kv_shards, batch_obj, step=0)
        for b in range(batch):
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-10)
            np.testing.assert_allclose(result.lse[b], refs[b][1], atol=1e-10)
        np.testing.assert_array_equal(
            assignment, round_robin_assignment(batch, world, 0)
        )

    def test_kv_splits_exact(self, rng):
        """Flash-Decoding split-KV inside the ring stays exact."""
        kv_shards, batch_obj, refs = build_decode_scenario(rng, 2, 3, [20, 31, 9])
        result, _ = ring_passq_decode(
            SimProcessGroup(2), kv_shards, batch_obj, step=0, num_kv_splits=8
        )
        for b in range(3):
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-10)

    def test_comm_pattern(self, rng):
        world = 4
        kv_shards, batch_obj, _ = build_decode_scenario(rng, world, 4, [12, 12, 12, 12])
        group = traced_group(world)
        ring_passq_decode(group, kv_shards, batch_obj, step=0)
        assert comm(group)["sendrecv"].count == world - 1
        assert comm(group)["all2all"].count == 1
        # one row per payload: q [8, 16] plus pos / seq / slot on each SendRecv,
        # (out [8, 16], lse [8]) to each of the N - 1 peers in the All2All —
        # a skipped partial's shared identity pair is priced like any other
        per_element = group.wire_bytes_per_element
        assert comm(group)["sendrecv"].bytes == (world - 1) * (8 * 16 + 3) * per_element
        assert comm(group)["all2all"].bytes == (world - 1) * (8 * 16 + 8) * per_element


def _per_rank_merge(restored, slots, batch_size):
    """The merge the ring used to run: ``merge_partials`` once per rank over
    its N restored partials, each rank's real rows written to its slots."""
    nh, dh = restored[0][0][0].shape[1:]
    out, lse = np.empty((batch_size, nh, dh)), np.empty((batch_size, nh))
    for own, partials in zip(slots, restored):
        merged = merge_partials([AttentionResult(out=o, lse=l) for o, l in partials])
        out[own], lse[own] = merged.out[: own.shape[0]], merged.lse[: own.shape[0]]
    return out, lse


class TestStackedMerge:
    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("size", ["0", "1", "N-1", "N+1"])
    @pytest.mark.parametrize("step", [0, 3])
    def test_equals_the_per_rank_merge_bit_for_bit(self, rng, world, size, step):
        """One stacked Equation 4 over every rank's partials — ranks that own
        no batch slot (B < N) and pad rows riding along unread, skipped
        partials one shared read-only identity pair — is the N per-rank
        merges, bit for bit, in batch order."""
        batch = {"0": 0, "1": 1, "N-1": world - 1, "N+1": world + 1}[size]
        ctx_lens = [int(c) for c in rng.integers(1, 30, size=batch)]
        kv_shards, batch_obj, refs = build_decode_scenario(rng, world, batch, ctx_lens)
        group, seen = SimProcessGroup(world), {}
        exchange = group.all_to_all

        def recording(matrix, **kwargs):
            seen["matrix"], seen["restored"] = matrix, exchange(matrix, **kwargs)
            return seen["restored"]

        group.all_to_all = recording
        result, assignment = ring_passq_decode(group, kv_shards, batch_obj, step=step)
        slots = [np.nonzero(assignment == rank)[0] for rank in range(world)]
        want_out, want_lse = _per_rank_merge(seen["restored"], slots, batch)
        assert result.out.shape == want_out.shape and result.lse.shape == want_lse.shape
        assert np.array_equal(result.out, want_out) and np.array_equal(result.lse, want_lse)
        # every skipped (rank, origin) sent the one identity pair, frozen
        skipped = [pair for row in seen["matrix"] for pair in row if np.all(np.isneginf(pair[1]))]
        assert len({id(pair[0]) for pair in skipped}) <= 1
        assert all(not pair[0].flags.writeable and not pair[1].flags.writeable for pair in skipped)
        for b in range(batch):  # (exact wherever the step puts the rows: the KV never moves)
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-10)


class TestRoundPlan:
    def test_one_batch_across_layers_derives_the_round_once(self, rng, monkeypatch):
        """What ``engine.decode`` does: one batch per round, each layer's
        queries written into it in place. The layer-invariant metadata is
        derived at the first layer only, and the second layer's result is
        the one a freshly built batch gives."""
        import repro.core.ring_decode as ring_decode

        derived = []
        monkeypatch.setattr(
            ring_decode, "round_robin_assignment",
            lambda *a: derived.append(a) or round_robin_assignment(*a),
        )
        world, batch = 4, 6  # 6 over 4 ranks: pad rows in two payloads
        kv_shards, layer0, _ = build_decode_scenario(rng, world, batch, [9, 4, 17, 1, 12, 6])
        group = SimProcessGroup(world)
        ring_passq_decode(group, kv_shards, layer0, step=0)
        next_q = rng.standard_normal(layer0.q.shape)
        layer0.q[...] = next_q  # the next layer's projections, same tokens
        again, _ = ring_passq_decode(group, kv_shards, layer0, step=0)
        assert len(derived) == 1
        fresh = DecodeBatch(q=next_q.copy(), positions=layer0.positions, seq_ids=layer0.seq_ids)
        want, _ = ring_passq_decode(SimProcessGroup(world), kv_shards, fresh, step=0)
        assert np.array_equal(again.out, want.out) and np.array_equal(again.lse, want.lse)
        # another step (or world size) is another plan
        derived.clear()
        ring_passq_decode(group, kv_shards, layer0, step=4)
        assert len(derived) == 1


    def test_one_kv_reach_per_rank_per_round(self, rng, monkeypatch):
        """The shards ``RankKVCache.get`` hands a round carry their reach —
        derived by the layer-0 read, the same object at every later layer —
        so the ring scans none of them; a hand-built shard carries none and
        is scanned, once per ring. Either way the skip decisions, and so the
        result, are the same."""
        import repro.core.ring_decode as ring_decode
        from repro.core.ring_skip import kv_reach
        from repro.kvcache.cache import RankKVCache

        world, batch, layers = 4, 6, 3
        kv_shards, batch_obj, _ = build_decode_scenario(rng, world, batch, [9, 4, 17, 1, 12, 6])
        caches = [RankKVCache(layers, 2, 16) for _ in range(world)]
        for cache, shard in zip(caches, kv_shards):
            for layer in range(layers):
                for sid in range(batch):
                    own = shard.seq_ids == sid
                    cache.append(layer, sid, shard.k[own], shard.v[own], shard.positions[own])
        scanned = []
        monkeypatch.setattr(ring_decode, "kv_reach", lambda *a: scanned.append(a) or kv_reach(*a))
        sids, group = list(range(batch)), SimProcessGroup(world)
        rounds = [[cache.get(layer, sids) for cache in caches] for layer in range(layers)]
        results = [ring_passq_decode(group, shards, batch_obj, step=0)[0] for shards in rounds]
        assert not scanned
        for rank in range(world):
            assert len({id(shards[rank].reach) for shards in rounds}) == 1
            assert rounds[0][rank].reach == kv_reach(kv_shards[rank].positions, kv_shards[rank].seq_ids)
        want, _ = ring_passq_decode(group, kv_shards, batch_obj, step=0)
        assert len(scanned) == world
        for result in results:
            assert np.array_equal(result.out, want.out) and np.array_equal(result.lse, want.lse)


class TestDecodeBatchValidation:
    def test_duplicate_seq_rejected(self, rng):
        q = rng.standard_normal((2, 4, 8))
        with pytest.raises(ValueError):
            DecodeBatch(q=q, positions=np.zeros(2, dtype=np.int64), seq_ids=np.array([1, 1]))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            DecodeBatch(
                q=rng.standard_normal((2, 4)),
                positions=np.zeros(2, dtype=np.int64),
                seq_ids=np.array([0, 1]),
            )

    def test_kv_shard_count_checked(self, rng):
        kv_shards, batch_obj, _ = build_decode_scenario(rng, 2, 2, [8, 8])
        with pytest.raises(ValueError):
            ring_passq_decode(SimProcessGroup(3), kv_shards, batch_obj, step=0)

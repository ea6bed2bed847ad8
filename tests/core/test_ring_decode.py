"""Tests for batched ring pass-Q decode (Algorithm 4)."""

import numpy as np
import pytest

from repro.attention.flash import AttentionResult
from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import ShardedKV, ShardedQueries
from repro.distributed.process_group import SimProcessGroup

from helpers import comm, decode_round, in_batch_order, make_qkv, round_robin_owners, run_ring, traced_group


def build_decode_scenario(rng, world, batch, ctx_lens):
    """Per-sequence contexts sharded round-robin-ish across ranks, plus one
    new decode token per sequence (its KV appended to its owner's shard):
    the KV shards, the batch ``(q, positions, seq_ids)`` in batch order, and
    each slot's reference ``(out, lse)``."""
    assert len(ctx_lens) == batch
    nh, nkv, dh = 8, 2, 16
    seq_kv = {}
    refs = {}
    batch_q = np.zeros((batch, nh, dh))
    positions = np.zeros(batch, dtype=np.int64)
    assignment = round_robin_owners(batch, world)

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
    return kv_shards, (batch_q, positions, np.arange(batch, dtype=np.int64)), refs


def decode(group, kv_shards, batch, step=0):
    """The decode ring over ``batch`` split as the engine splits it at
    ``step``: its result in batch order, and each rank's slots."""
    queries, slots = decode_round(*batch, group.world_size, step)
    return in_batch_order(run_ring(ring_passq_decode, group, queries, kv_shards, slots=slots), slots), slots


class TestRoundRobin:
    def test_offset_rotates(self):
        a0 = round_robin_owners(4, 4, 0)
        a1 = round_robin_owners(4, 4, 1)
        np.testing.assert_array_equal(a0, [0, 1, 2, 3])
        np.testing.assert_array_equal(a1, [1, 2, 3, 0])

    def test_balanced_over_steps(self):
        """Over N steps every batch slot visits every rank once — the
        property that levels KV-cache growth (§3.6)."""
        world, batch = 4, 4
        visits = np.zeros((batch, world), dtype=int)
        for step in range(world):
            a = round_robin_owners(batch, world, step)
            for b in range(batch):
                visits[b, a[b]] += 1
        assert np.all(visits == 1)


class TestDecodeExactness:
    @pytest.mark.parametrize("world,batch", [(1, 1), (2, 1), (2, 4), (3, 5), (4, 2)])
    def test_matches_reference(self, rng, world, batch):
        ctx_lens = [int(c) for c in rng.integers(5, 40, size=batch)]
        kv_shards, batch_qs, refs = build_decode_scenario(rng, world, batch, ctx_lens)
        queries, slots = decode_round(*batch_qs, world)
        results = run_ring(ring_passq_decode, SimProcessGroup(world), queries, kv_shards, slots=slots)
        assert [len(r.out) for r in results] == [len(s) for s in slots]  # each rank its own rows
        result = in_batch_order(results, slots)
        for b in range(batch):
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-10)
            np.testing.assert_allclose(result.lse[b], refs[b][1], atol=1e-10)

    def test_comm_pattern(self, rng):
        world = 4
        kv_shards, batch_qs, _ = build_decode_scenario(rng, world, 4, [12, 12, 12, 12])
        group = traced_group(world)
        decode(group, kv_shards, batch_qs)
        assert comm(group)["sendrecv"].count == world - 1
        assert comm(group)["all2all"].count == 1
        # one row per payload: q [8, 16] plus pos / seq / slot on each SendRecv,
        # (acc [8, 16], den [8]) to each of the N - 1 peers in the All2All —
        # a skipped partial's shared zero pair is priced like any other
        per_element = 2  # bf16 on the wire
        assert comm(group)["sendrecv"].bytes == (world - 1) * (8 * 16 + 3) * per_element
        assert comm(group)["all2all"].bytes == (world - 1) * (8 * 16 + 8) * per_element


def _per_rank_merge(restored):
    """The merge as one rank runs it alone: its N restored sums added in
    origin order and normalised once."""
    return [
        AttentionResult.from_sums(sum(a for a, _ in partials), sum(d for _, d in partials))
        for partials in restored
    ]


class TestStackedMerge:
    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("size", ["0", "1", "N-1", "N+1"])
    @pytest.mark.parametrize("step", [0, 3])
    def test_equals_the_per_rank_merge_bit_for_bit(self, rng, world, size, step):
        """Each rank adds the sums the All2All restored to it and normalises
        once — ranks that own no batch slot (B < N) and pad rows riding along
        unread, skipped partials one shared read-only zero pair — and the
        ring's result on each rank is its merge's real rows, bit for bit."""
        batch = {"0": 0, "1": 1, "N-1": world - 1, "N+1": world + 1}[size]
        ctx_lens = [int(c) for c in rng.integers(1, 30, size=batch)]
        kv_shards, batch_qs, refs = build_decode_scenario(rng, world, batch, ctx_lens)
        group, seen = SimProcessGroup(world), {}
        exchange = group.all_to_all

        def recording(matrix, **kwargs):
            seen["matrix"], seen["restored"] = matrix, exchange(matrix, **kwargs)
            return seen["restored"]

        group.all_to_all = recording
        queries, slots = decode_round(*batch_qs, world, step)
        results = run_ring(ring_passq_decode, group, queries, kv_shards, slots=slots)
        for result, merged, own in zip(results, _per_rank_merge(seen["restored"]), slots):
            assert result.out.shape == (len(own), *merged.out.shape[1:])
            assert np.array_equal(result.out, merged.out[: len(own)])
            assert np.array_equal(result.lse, merged.lse[: len(own)])
        # every skipped (rank, origin) sent the one zero pair, frozen
        skipped = [pair for row in seen["matrix"] for pair in row if not pair[1].any()]
        assert len({id(pair[0]) for pair in skipped}) <= 1
        assert all(not pair[0].flags.writeable and not pair[1].flags.writeable for pair in skipped)
        result = in_batch_order(results, slots)
        for b in range(batch):  # (exact wherever the step puts the rows: the KV never moves)
            np.testing.assert_allclose(result.out[b], refs[b][0], atol=1e-10)


class TestRoundPlan:
    def test_one_batch_across_layers_derives_the_round_once(self, rng, monkeypatch):
        """What the engine's round body does: one plan, built over the first
        layer's shards by the pass-Q prefill planner, and the batch ids
        padded once, both handed to the ring at every layer with only that
        layer's ``q`` rows. A ring plans nothing, and the second layer's
        result is the one a fresh round gives."""
        import repro.core.ring_skip as ring_skip

        world, batch = 4, 6  # 6 over 4 ranks: pad rows in two payloads
        kv_shards, (q, positions, sids), _ = build_decode_scenario(rng, world, batch, [9, 4, 17, 1, 12, 6])
        layer0, slots = decode_round(q, positions, sids, world)
        group = SimProcessGroup(world)
        plan = plan_prefill(layer0, kv_shards, pass_q=True)
        padded = [np.concatenate([own, np.full(2 - len(own), -1)]) for own in slots]
        planned, plan_ring = [], ring_skip.plan_ring
        monkeypatch.setattr(ring_skip, "plan_ring", lambda *a, **kw: planned.append(a) or plan_ring(*a, **kw))
        ring_passq_decode(group, plan, [s.q for s in layer0], kv_shards, slots=padded)
        next_q = rng.standard_normal(q.shape)  # the next layer's projections, same tokens
        again = ring_passq_decode(group, plan, [next_q[own] for own in slots], kv_shards, slots=padded)
        assert not planned
        want, _ = decode(SimProcessGroup(world), kv_shards, (next_q, positions, sids))
        got = in_batch_order(again, slots)
        assert np.array_equal(got.out, want.out) and np.array_equal(got.lse, want.lse)

    def test_one_kv_reach_per_rank_per_round(self, rng, monkeypatch):
        """The shards ``RankKVCache.get`` hands a round carry their reach —
        derived by the layer-0 read and taken, as the same object, by every
        later layer's read ``like`` it — so the plan scans none of them; a
        hand-built shard carries none and is scanned, once per plan. Either
        way the skip decisions, and so the result, are the same."""
        import repro.core.ring_skip as ring_skip
        from repro.core.ring_skip import kv_reach
        from repro.kvcache.cache import RankKVCache

        world, batch, layers = 4, 6, 3
        kv_shards, batch_qs, _ = build_decode_scenario(rng, world, batch, [9, 4, 17, 1, 12, 6])
        caches = [RankKVCache(layers, 2, 16) for _ in range(world)]
        for cache, shard in zip(caches, kv_shards):
            for layer in range(layers):
                for sid in range(batch):
                    own = shard.seq_ids == sid
                    cache.append(layer, sid, shard.k[own], shard.v[own], shard.positions[own])
        scanned = []
        monkeypatch.setattr(ring_skip, "kv_reach", lambda *a: scanned.append(a) or kv_reach(*a))
        sids, group = list(range(batch)), SimProcessGroup(world)
        first = [cache.get(0, sids) for cache in caches]
        rounds = [first] + [
            [cache.get(layer, sids, like=kv) for cache, kv in zip(caches, first)] for layer in range(1, layers)
        ]
        queries, slots = decode_round(*batch_qs, world)
        plan = plan_prefill(queries, first, pass_q=True)
        padded = [np.concatenate([own, np.full(2 - len(own), -1)]) for own in slots]
        results = [
            in_batch_order(ring_passq_decode(group, plan, [s.q for s in queries], shards, slots=padded), slots)
            for shards in rounds
        ]
        assert not scanned
        for rank in range(world):
            assert len({id(shards[rank].reach) for shards in rounds}) == 1
            assert rounds[0][rank].reach == kv_reach(kv_shards[rank].positions, kv_shards[rank].seq_ids)
        want, _ = decode(group, kv_shards, batch_qs)
        assert len(scanned) == world
        for result in results:
            assert np.array_equal(result.out, want.out) and np.array_equal(result.lse, want.lse)


class TestPairLayouts:
    """A round plans its ring's (step, rank) pairs once — the skip decision
    and, for a pair it computes, the kernel layout — over the structure of
    its first layer's shards, and a plan serves that structure only."""

    def test_a_plan_handed_another_kv_token_count_raises(self, rng):
        """A round's plan, built over one set of KV shards, handed shards in
        which one rank holds a token more: the ring raises, naming the
        rank, before any step runs — it never replans behind the caller's
        back. A ring over the same shards' own plan is exact."""
        world, batch = 4, 6
        kv_shards, batch_qs, refs = build_decode_scenario(rng, world, batch, [9, 4, 17, 1, 12, 6])
        queries, slots = decode_round(*batch_qs, world)
        plan = plan_prefill(queries, kv_shards, pass_q=True)
        grown = list(kv_shards)
        kv = grown[2]
        grown[2] = ShardedKV(
            k=np.concatenate([kv.k, kv.k[:1]]), v=np.concatenate([kv.v, kv.v[:1]]),
            positions=np.append(kv.positions, 10**6), seq_ids=np.append(kv.seq_ids, 99),
        )
        group = traced_group(world)
        padded = [np.concatenate([own, np.full(2 - len(own), -1)]) for own in slots]
        with pytest.raises(ValueError, match="rank 2 holds"):
            ring_passq_decode(group, plan, [s.q for s in queries], grown, slots=padded)
        assert not group.tracer.events
        got, _ = decode(SimProcessGroup(world), grown, batch_qs)
        for b in range(batch):
            np.testing.assert_allclose(got.out[b], refs[b][0], atol=1e-10)


class TestDecodeBatchValidation:
    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            ShardedQueries(
                q=rng.standard_normal((2, 4)),
                positions=np.zeros(2, dtype=np.int64),
                seq_ids=np.array([0, 1]),
            )

    def test_kv_shard_count_checked(self, rng):
        kv_shards, batch_qs, _ = build_decode_scenario(rng, 2, 2, [8, 8])
        with pytest.raises(ValueError):
            decode(SimProcessGroup(3), kv_shards, batch_qs)

    def test_one_batch_id_per_query(self, rng):
        """Each message carries its rows' batch ids: a rank handed another
        count of ids than its message has rows is refused before any step."""
        kv_shards, batch_qs, _ = build_decode_scenario(rng, 2, 3, [8, 8, 8])
        queries, slots = decode_round(*batch_qs, 2)
        plan = plan_prefill(queries, kv_shards, pass_q=True)
        group = traced_group(2)
        for wrong in ([slots[0], slots[1]], slots[:1]):  # (rank 1's message: one row of padding)
            with pytest.raises(ValueError, match="one batch id per message row"):
                ring_passq_decode(group, plan, [s.q for s in queries], kv_shards, slots=wrong)
        assert not group.tracer.events

"""Property-based tests: ring algorithms are lossless for arbitrary inputs."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attention.reference import reference_attention_with_lse
from repro.core import ring_skip
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import SequenceSpec, ShardedKV, ShardedQueries, shard_sequences
from repro.distributed.process_group import SimProcessGroup

from helpers import Fallbacks, PrefillRound, decode_round, in_batch_order, run_ring

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def varseq_case(draw):
    """Random fused varseq full-prefill case sharded over a random world."""
    seed = draw(st.integers(0, 2**31 - 1))
    world = draw(st.integers(1, 5))
    n_seqs = draw(st.integers(1, 3))
    lengths = [draw(st.integers(1, 30)) for _ in range(n_seqs)]
    rng = np.random.default_rng(seed)
    per_seq = {
        i: (
            rng.standard_normal((n, 4, 8)),
            rng.standard_normal((n, 2, 8)),
            rng.standard_normal((n, 2, 8)),
        )
        for i, n in enumerate(lengths)
    }
    return world, per_seq


def build_shards(world, per_seq):
    specs = [SequenceSpec(sid, qkv[0].shape[0]) for sid, qkv in sorted(per_seq.items())]
    shards = shard_sequences(specs, world)
    queries, kvs = [], []
    for pos, sids in shards:
        qs = np.zeros((pos.shape[0], 4, 8))
        ks = np.zeros((pos.shape[0], 2, 8))
        vs = np.zeros((pos.shape[0], 2, 8))
        for i, (p, s) in enumerate(zip(pos, sids)):
            q, k, v = per_seq[int(s)]
            qs[i], ks[i], vs[i] = q[int(p)], k[int(p)], v[int(p)]
        queries.append(ShardedQueries(q=qs, positions=pos, seq_ids=sids))
        kvs.append(ShardedKV(k=ks, v=vs, positions=pos, seq_ids=sids))
    return queries, kvs


class TestRingLosslessness:
    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passkv_exact_for_any_case(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        results = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        refs = {sid: reference_attention_with_lse(*qkv)[0] for sid, qkv in per_seq.items()}
        for res, qs in zip(results, queries):
            for i, (p, s) in enumerate(zip(qs.positions, qs.seq_ids)):
                np.testing.assert_allclose(res.out[i], refs[int(s)][int(p)], atol=1e-9)

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passq_exact_for_any_case(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        results = run_ring(ring_passq_prefill, SimProcessGroup(world), queries, kvs)
        refs = {sid: reference_attention_with_lse(*qkv)[0] for sid, qkv in per_seq.items()}
        for res, qs in zip(results, queries):
            for i, (p, s) in enumerate(zip(qs.positions, qs.seq_ids)):
                np.testing.assert_allclose(res.out[i], refs[int(s)][int(p)], atol=1e-9)

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_variants_agree(self, case):
        """pass-KV and pass-Q are interchangeable: identical results."""
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        a = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        b = run_ring(ring_passq_prefill, SimProcessGroup(world), queries, kvs)
        for ra, rb in zip(a, b):
            np.testing.assert_allclose(ra.out, rb.out, atol=1e-9)
            np.testing.assert_allclose(ra.lse, rb.lse, atol=1e-9)


@contextlib.contextmanager
def _every_partial_computed():
    """The rings' one sweep with its shard skip off: the predicate never
    fires, so every ring-step partial is a kernel call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_skip, "partial_fully_masked", lambda q_reach, k_reach: False)
        yield


class TestShardSkipIsPureExecutionStrategy:
    """Skipping provably all-masked ring-step partials substitutes the exact
    merge identity element, so outputs are bitwise unchanged."""

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passkv_skip_on_off_identical(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        a = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        with _every_partial_computed():
            b = run_ring(ring_passkv_prefill, SimProcessGroup(world), queries, kvs)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.out, rb.out)
            assert np.array_equal(ra.lse, rb.lse)

    @given(varseq_case())
    @settings(**SETTINGS)
    def test_passq_skip_on_off_identical(self, case):
        world, per_seq = case
        queries, kvs = build_shards(world, per_seq)
        a = run_ring(ring_passq_prefill, SimProcessGroup(world), queries, kvs)
        with _every_partial_computed():
            b = run_ring(ring_passq_prefill, SimProcessGroup(world), queries, kvs)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.out, rb.out)
            assert np.array_equal(ra.lse, rb.lse)

    @given(varseq_case(), st.integers(0, 5))
    @settings(**SETTINGS)
    def test_decode_skip_on_off_identical(self, case, step):
        """Decode's skip branch (all-pad payloads when B % N != 0, plus
        unrelated/empty shards) substitutes identity partials exactly."""
        world, per_seq = case
        _, kvs = build_shards(world, per_seq)
        rng = np.random.default_rng(step)
        sids = sorted(per_seq)
        queries, slots = decode_round(
            rng.standard_normal((len(sids), 4, 8)),
            np.array([per_seq[s][0].shape[0] - 1 for s in sids]),
            np.array(sids, dtype=np.int64),
            world, step,
        )
        a = run_ring(ring_passq_decode, SimProcessGroup(world), queries, kvs, slots=slots)
        with _every_partial_computed():
            b = run_ring(ring_passq_decode, SimProcessGroup(world), queries, kvs, slots=slots)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.out, rb.out)
            assert np.array_equal(ra.lse, rb.lse)


@st.composite
def decode_round_case(draw):
    """A decode round's structure — world, per-sequence contexts, step —
    and whether its second layer aims one pair's scores at +-800."""
    world = draw(st.integers(1, 4))
    contexts = draw(st.lists(st.integers(1, 20), min_size=1, max_size=2 * world + 1))
    return world, contexts, draw(st.integers(0, 4)), draw(st.booleans()), draw(st.integers(0, 2**31 - 1))


def _decode_layers(world, contexts, step, aim, seed, layers=3):
    """Per layer: the queries and each rank's KV arrays over one fixed
    structure (each context striped over the ranks, the new token's KV on
    its owner). With ``aim``, the second layer's sequence-0 query scores
    +-800 against its keys on one rank only, so that one pair falls back."""
    rng = np.random.default_rng(seed)
    nh, nkv, dh = 4, 2, 16
    owner = (np.arange(len(contexts)) + step) % world
    placed = [[] for _ in range(world)]  # per rank: (seq, positions)
    for sid, ctx in enumerate(contexts):
        stripes = np.array_split(np.arange(ctx), world)
        stripes[owner[sid]] = np.append(stripes[owner[sid]], ctx)
        for rank, pos in enumerate(stripes):
            if pos.size:
                placed[rank].append((sid, pos.astype(np.int64)))
    aimed_rank = next(rank for rank in range(world) if any(sid == 0 for sid, _ in placed[rank]))
    per_layer = []
    for layer in range(layers):
        q = rng.standard_normal((len(contexts), nh, dh))
        shards = []
        for rank, parts in enumerate(placed):
            n = sum(pos.size for _, pos in parts)
            k, v = rng.standard_normal((n, nkv, dh)), rng.standard_normal((n, nkv, dh))
            if aim and layer == 1:
                q[0, :, 0], k[:, :, 0] = 40.0, 0.0
                if rank == aimed_rank:  # sequence 0 is this shard's first run (ids ascend)
                    first = parts[0][1].size
                    k[:first, :, 0] = 80.0 * rng.choice([-1.0, 1.0], (first, nkv))
            shards.append((k, v))
        per_layer.append((q, shards))
    coords = [
        (
            np.concatenate([pos for _, pos in parts]) if parts else np.zeros(0, dtype=np.int64),
            np.concatenate([np.full(pos.size, sid) for sid, pos in parts]) if parts else np.zeros(0, dtype=np.int64),
        )
        for parts in placed
    ]
    return per_layer, coords


class TestDecodeRoundReuse:
    @given(decode_round_case())
    @example((4, [5, 9, 3, 12, 7, 2], 1, True, 3))  # B = 6 over N = 4: two payloads pad
    @example((4, [6, 11, 4], 0, True, 5))  # B = 3 < N = 4: rank 3 owns no slot
    @settings(**SETTINGS)
    def test_a_reused_batch_equals_fresh_batches_bit_for_bit(self, case):
        """The engine's decode round: per layer, each rank's query rows, KV
        shards whose structure objects every layer shares (as
        ``RankKVCache.get(..., like=)`` shares them), and one plan and one
        set of padded batch ids, made over the first layer's shards.
        Each layer's ring equals a fresh round over freshly built shards bit
        for bit — including a second layer whose aimed pair falls back to
        the shifted sweep — and only the first layer lays pairs out."""
        world, contexts, step, aim, seed = case
        per_layer, coords = _decode_layers(world, contexts, step, aim, seed)
        batch = len(contexts)
        positions, sids = np.array(contexts, dtype=np.int64), np.arange(batch, dtype=np.int64)
        structure = [ShardedKV(k=k, v=v, positions=pos, seq_ids=seq) for (k, v), (pos, seq) in zip(per_layer[0][1], coords)]
        first, slots = decode_round(per_layer[0][0], positions, sids, world, step)
        built, laid_out = [], []  # every layout built; those the reused round's layers built
        with pytest.MonkeyPatch.context() as patch:
            layout = ring_skip.attention_layout
            patch.setattr(ring_skip, "attention_layout", lambda *a, **kw: built.append(1) or layout(*a, **kw))
            fallbacks = Fallbacks(patch)
            for layer, (q, shards) in enumerate(per_layer):
                queries = [ShardedQueries(q[own], s.positions, s.seq_ids, s.runs, s.run_index) for own, s in zip(slots, first)]
                layer_kv = [
                    ShardedKV(k=k, v=v, positions=s.positions, seq_ids=s.seq_ids, runs=s.runs, run_index=s.run_index)
                    for (k, v), s in zip(shards, structure)
                ]
                before = len(built), fallbacks.count
                if layer == 0:
                    plan = ring_skip.plan_prefill(queries, layer_kv, pass_q=True)
                    width = len(plan.q[0].positions)
                    padded = [np.concatenate([own, np.full(width - len(own), -1)]) for own in slots]
                got = ring_passq_decode(SimProcessGroup(world), plan, [s.q for s in queries], layer_kv, slots=padded)
                laid_out.append(len(built) - before[0])
                assert fallbacks.count - before[1] == (aim and layer == 1)
                fresh, fresh_slots = decode_round(q.copy(), positions.copy(), sids.copy(), world, step)
                fresh_kv = [
                    ShardedKV(k=k, v=v, positions=pos.copy(), seq_ids=seq.copy())
                    for (k, v), (pos, seq) in zip(shards, coords)
                ]
                want = run_ring(ring_passq_decode, SimProcessGroup(world), fresh, fresh_kv, slots=fresh_slots)
                got, want = in_batch_order(got, slots), in_batch_order(want, fresh_slots)
                assert np.array_equal(got.out, want.out) and np.array_equal(got.lse, want.lse)
        assert laid_out[0] > 0 and not any(laid_out[1:])


@st.composite
def prefill_round_case(draw):
    """A fused partial-prefill round — world, and per sequence its cached
    tokens on each rank and its new tokens — and whether its second layer
    aims one pair's scores at +-800."""
    world = draw(st.integers(1, 4))
    seqs = {
        sid: ([draw(st.integers(0, 6)) for _ in range(world)], draw(st.integers(1, 12)))
        for sid in range(draw(st.integers(1, 3)))
    }
    return world, seqs, draw(st.booleans()), draw(st.integers(0, 2**31 - 1))


def _aim_first_rank(prefill, per_seq):
    """Sequence 0's queries on rank 0 score +-800 against sequence 0's keys
    on rank 0 and ordinarily everywhere else (``test_ring_fallback._aim``):
    rank 0 holds sequence 0's first new token and its key, so exactly one
    pair of the ring — rank 0's queries against rank 0's KV — falls back."""
    q, k, _ = per_seq[0]
    p, _ = prefill.context(0)
    (q_pos, q_seq), (k_pos, k_seq) = prefill.q_coords[0], prefill.kv_coords[0]
    keys = k_pos[k_seq == 0]
    q[..., 0], k[..., 0] = 0.0, 0.0
    q[q_pos[q_seq == 0] - p, :, 0] = 40.0
    k[keys, :, 0] = 80.0 * np.random.default_rng(keys.size).choice([-1.0, 1.0], (keys.size, k.shape[1]))


class TestPrefillRoundReuse:
    @pytest.mark.parametrize("ring", [ring_passkv_prefill, ring_passq_prefill], ids=["passkv", "passq"])
    @given(prefill_round_case())
    @example((3, {0: ([5, 2, 0], 2), 1: ([0, 0, 0], 9), 2: ([3, 1, 3], 1)}, True, 1))  # rank 2 holds no KV of sequence 0
    @example((4, {0: ([0, 7, 1, 0], 5), 1: ([2, 0, 0, 6], 3)}, True, 2))
    @settings(**SETTINGS)
    def test_a_kept_plan_equals_fresh_rings_bit_for_bit(self, ring, case):
        """The engine's prefill round: one plan, built over the first layer's
        shards, handed to the ring at every layer, each layer's shards new
        ``q``, ``k``, ``v`` over the same coordinate objects (as
        ``RankKVCache.get(..., like=)`` shares them), ranks
        holding different per-sequence KV counts. Each layer equals a fresh
        ring over freshly built shards bit for bit — including a second
        layer whose aimed pair falls back to the shifted sweep — and only
        the first layer pads and lays pairs out."""
        world, seqs, aim, seed = case
        rng = np.random.default_rng(seed)
        prefill = PrefillRound(world, seqs)
        structure = prefill.shards(prefill.arrays(rng))
        built, padded = [], []
        with pytest.MonkeyPatch.context() as patch:
            layout = ring_skip.attention_layout
            patch.setattr(ring_skip, "attention_layout", lambda *a, **kw: built.append(1) or layout(*a, **kw))
            for name in ("plan_kv_padding", "plan_query_padding"):
                planner = getattr(ring_skip, name)
                patch.setattr(ring_skip, name, lambda shards, planner=planner: padded.append(1) or planner(shards))
            fallbacks = Fallbacks(patch)
            for layer in range(3):
                per_seq = prefill.arrays(rng)
                if aim and layer == 1:
                    _aim_first_rank(prefill, per_seq)
                before = len(built), len(padded), fallbacks.count
                shards = prefill.shards(per_seq, like=structure)
                if layer == 0:
                    plan = ring_skip.plan_prefill(*shards, pass_q=ring is ring_passq_prefill)
                got = ring(SimProcessGroup(world), plan, [s.q for s in shards[0]], shards[1])
                assert (len(built) > before[0], len(padded) - before[1]) == (layer == 0, int(layer == 0))
                assert fallbacks.count - before[2] == (aim and layer == 1)
                want = run_ring(ring, SimProcessGroup(world), *prefill.shards(per_seq))
                for g, w in zip(got, want):
                    assert np.array_equal(g.out, w.out) and np.array_equal(g.lse, w.lse)

"""The rings when one step's range check fails: that step's partial comes
back normalised from the kernel's shifted sweep, and its rank merges it
through Eq. 4 with the sums of every other step (mixed fallback)."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention_with_lse
from repro.core.ring_decode import ring_passq_decode
from repro.core.ring_passkv import ring_passkv_prefill
from repro.core.ring_passq import ring_passq_prefill
from repro.core.sharding import ShardedKV
from repro.distributed.process_group import SimProcessGroup

from helpers import (
    Fallbacks,
    decode_round,
    in_batch_order,
    make_qkv,
    round_robin_owners,
    run_ring,
    shard_qkv_full_prefill,
)

WORLD = 4


def _aim(q, k, q_rows, k_rows, rng):
    """Scores of ``+-800`` between ``q_rows`` and ``k_rows`` and ordinary
    ones everywhere else: axis 0 of the head dimension (16: scale 1/4) is
    zero but for ``40`` on those query rows and ``+-80`` on those keys."""
    q[..., 0], k[..., 0] = 0.0, 0.0
    q[q_rows, :, 0] = 40.0
    k[k_rows, :, 0] = 80.0 * rng.choice([-1.0, 1.0], (len(k_rows), k.shape[1]))


def _assert_exact(out, lse, ref_out, ref_lse):
    empty = np.isneginf(ref_lse)
    assert np.array_equal(np.isneginf(lse), empty) and np.all(out[empty] == 0)
    np.testing.assert_allclose(out, ref_out, atol=1e-12, rtol=0)
    np.testing.assert_allclose(lse[~empty], ref_lse[~empty], atol=1e-12, rtol=0)


@pytest.mark.parametrize("ring", [ring_passkv_prefill, ring_passq_prefill], ids=["passkv", "passq"])
def test_prefill_ring_with_one_shifted_step(rng, ring):
    """Rank 2's queries score ``+-800`` against rank 2's keys only, so its
    diagonal step, and no other, takes the shifted sweep."""
    q, k, v = make_qkv(rng, 53, 53)
    queries, _ = shard_qkv_full_prefill(q, k, v, WORLD)
    aimed = queries[2].positions
    _aim(q, k, aimed, aimed, rng)
    queries, kvs = shard_qkv_full_prefill(q, k, v, WORLD)
    with pytest.MonkeyPatch.context() as patch:
        fallbacks = Fallbacks(patch)
        results = run_ring(ring, SimProcessGroup(WORLD), queries, kvs)
    assert fallbacks.count == 1
    ref_out, ref_lse = reference_attention_with_lse(q, k, v)
    for res, qs in zip(results, queries):
        _assert_exact(res.out, res.lse, ref_out[qs.positions], ref_lse[qs.positions])


def test_decode_ring_with_one_shifted_step(rng):
    """Sequence 2's decode query scores ``+-800`` against its keys on rank 1
    only: one of the ring's 16 steps takes the shifted sweep."""
    contexts = [9, 30, 21, 1, 14, 26]
    batch = len(contexts)
    assignment = round_robin_owners(batch, WORLD)
    seqs = [make_qkv(rng, 1, ctx + 1) for ctx in contexts]
    parts = [[] for _ in range(WORLD)]
    for b, (ctx, (q, k, v)) in enumerate(zip(contexts, seqs)):
        stripes = np.array_split(np.arange(ctx), WORLD)
        stripes[assignment[b]] = np.append(stripes[assignment[b]], ctx)  # the new token's KV
        if b == 2:
            _aim(q, k, [0], stripes[1], rng)
        for rank, pos in enumerate(stripes):
            if pos.size:
                seq = np.full(pos.size, b)
                parts[rank].append(ShardedKV(k=k[pos], v=v[pos], positions=pos, seq_ids=seq))
    kv_shards = [ShardedKV.concat(p) if p else ShardedKV.empty(2, 16) for p in parts]
    queries, slots = decode_round(
        np.concatenate([q for q, _, _ in seqs]), np.array(contexts), np.arange(batch), WORLD
    )
    with pytest.MonkeyPatch.context() as patch:
        fallbacks = Fallbacks(patch)
        result = in_batch_order(run_ring(ring_passq_decode, SimProcessGroup(WORLD), queries, kv_shards, slots=slots), slots)
    assert fallbacks.count == 1
    for b, (ctx, (q, k, v)) in enumerate(zip(contexts, seqs)):
        ref_out, ref_lse = reference_attention_with_lse(q, k, v, q_pos=np.array([ctx]))
        _assert_exact(result.out[b : b + 1], result.lse[b : b + 1], ref_out, ref_lse)

"""The one ring sweep of Algorithms 2-4, and its shard-level causal skip.

Pass-KV prefill (Algorithm 2), pass-Q prefill (Algorithm 3) and batched
pass-Q decode (Algorithm 4) are one schedule, run by :func:`ring_sweep`:
at step ``j`` rank ``k`` holds the payload that started on rank
``(k - j) mod N``. They differ in which side travels and where a step's
shift-free sums ``(acc, den)`` go: pass-KV adds them into the holder's
:class:`~repro.core.merge.RunningSum` as they arrive (one partial's memory
per rank, whatever ``N``); pass-Q keeps them per origin and one All2All
returns them there. Each rank adds and normalises once (merge attention at
shift 0). Only arrays travel; a payload's runs and reach stay with its origin.

**The skip.** Under the causal mask many partials are provably all-masked:
every key in the shard sits strictly after every query of its sequence, or
the payload is pure padding (``PAD_SEQ``). Such a partial is the merge
identity (``O = 0``, ``LSE = -inf``; as sums, ``(0, 0)``), so the sweep
never calls the kernel for it — pass-KV adds nothing, pass-Q sends the
ring's one shared zero pair — and the output is bit-for-bit the same. The
test reads two summaries per shard, each computed **once** before the ring
starts: :func:`query_reach` (``{seq_id: max position}``) and
:func:`kv_reach` (``{seq_id: min position}``) over non-pad tokens. A
partial is visible iff some sequence id appears on both sides with
``min(k_pos) <= max(q_pos)`` — inclusive, because a query sees its own
position. The rings take no mask override: every partial is under the
causal, same-sequence mask this test is exact for, so it alone decides.
**The plan.** A round runs its ring once per layer, and only ``q``, ``k``
and ``v`` change between layers. So what a ring derives from structure —
the messages' padding (:class:`~repro.core.sharding.Padding`), each
``(step, rank)`` pair's skip decision and its kernel layout — is one plain
value, a :class:`RingPlan`, built eagerly by :func:`plan_ring` from layer
0's query shards and KV reads. The engine's one round body builds one
per round and hands it to the ring at every layer; every ring takes a plan,
so a single-use caller plans first with :func:`plan_prefill`. The sweep
only reads it. A plan handed a shard of another token count raises.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.attention.flash import AttentionResult, Layout, attention_layout, flash_attention
from repro.attention.masks import PAD_SEQ, run_offsets
from repro.core.merge import RunningSum
from repro.core.sharding import Padding, ShardedKV, ShardedQueries, plan_kv_padding, plan_query_padding
from repro.distributed.process_group import SimProcessGroup
from repro.distributed.ring import source_rank_at_step


def query_reach(
    positions: np.ndarray, seq_ids: np.ndarray | None, runs: np.ndarray | None = None
) -> dict[int, int]:
    """Per-sequence maximum query position over non-pad tokens.

    Args:
        positions: ``[T]`` absolute positions.
        seq_ids: ``[T]`` sequence ids (``None`` = all sequence 0).
        runs: offsets of the constant ``seq_ids`` runs, when the shard
            carries them (:class:`repro.core.sharding.ShardedQueries`).

    Returns:
        ``{seq_id: max position}``; empty for an all-pad (or empty) shard.
    """
    return _reach(positions, seq_ids, runs, np.maximum)


def kv_reach(
    positions: np.ndarray, seq_ids: np.ndarray | None, runs: np.ndarray | None = None
) -> dict[int, int]:
    """Per-sequence minimum key position over non-pad tokens (see above)."""
    return _reach(positions, seq_ids, runs, np.minimum)


def _reach(positions, seq_ids, runs, op) -> dict[int, int]:
    positions = np.asarray(positions)
    if positions.size == 0:
        return {}
    if seq_ids is None:
        return {0: int(op.reduce(positions))}
    seq_ids = np.asarray(seq_ids)
    if runs is None:
        # no run structure handed over: a stable sort makes one run per id
        order = np.argsort(seq_ids, kind="stable")
        seq_ids, positions = seq_ids[order], positions[order]
        runs = run_offsets(seq_ids)
    starts = runs[:-1]
    out: dict[int, int] = {}
    for sid, extreme in zip(seq_ids[starts].tolist(), op.reduceat(positions, starts).tolist()):
        if sid != PAD_SEQ:
            # a sequence split over several runs folds them together
            out[sid] = extreme if sid not in out else int(op(out[sid], extreme))
    return out


def partial_fully_masked(q_reach: dict[int, int], k_reach: dict[int, int]) -> bool:
    """True iff the causal mask between the summarised shards is all-False.

    Args:
        q_reach: output of :func:`query_reach` for the query shard.
        k_reach: output of :func:`kv_reach` for the key shard.
    """
    for sid, q_max in q_reach.items():
        k_min = k_reach.get(sid)
        if k_min is not None and k_min <= q_max:
            return False
    return True


@functools.cache
def _schedule(n: int) -> tuple[tuple[int, ...], ...]:
    """``[step][rank]``: the origin of the payload ``rank`` holds at ``step``."""
    return tuple(tuple(source_rank_at_step(rank, step, n) for rank in range(n)) for step in range(n))


class RingPlan(NamedTuple):
    """A ring's plan, built from its shards' structure alone (positions,
    sequence ids, runs, reach) and never from ``q``, ``k`` or ``v``, so one
    plan serves every layer of a round: per origin rank, its query and KV
    :class:`~repro.core.sharding.Padding` messages; per rank, the
    ``(query, KV)`` token counts it was built for; per ``(step, rank)``
    pair, the pair's kernel :class:`~repro.attention.flash.Layout`, or
    ``None`` where the partial is masked.

    A plan holds one round's layouts: each visible pair's ``[S, R, L]``
    mask and gather indices, about one bool per query–key pair of the
    partial, beside the padded coordinates. It dies with the round.
    """

    q: list[Padding]
    kv: list[Padding]
    counts: list[tuple[int, int]]
    pairs: tuple[tuple[Layout | None, ...], ...]

    def wire(self, qs: list[np.ndarray], kv_shards: list[ShardedKV]) -> tuple[list[dict], list[dict]]:
        """This layer's on-wire arrays: each rank's query rows ``qs`` and
        its shard's ``k`` and ``v``, filled into the planned messages beside
        the planned coordinates.

        Raises:
            ValueError: unless there is one query array and KV shard per
                planned rank, each of the token counts the plan was built
                for (naming the first rank that differs).
        """
        n = len(self.counts)
        if len(qs) != n or len(kv_shards) != n:
            raise ValueError(f"the plan is for {n} ranks, handed {len(qs)} queries and {len(kv_shards)} KV shards")
        counts = [(len(q), len(s.k)) for q, s in zip(qs, kv_shards)]
        if counts != self.counts:
            rank = next(r for r, (got, want) in enumerate(zip(counts, self.counts)) if got != want)
            (nq, nk), (wq, wk) = counts[rank], self.counts[rank]
            raise ValueError(
                f"rank {rank} holds {nq} query and {nk} KV tokens, its plan {wq} and {wk}: "
                "a plan serves the structure it was built from"
            )
        # a message planned as its shard (``rows is None``) is handed over as it is
        q_wire = [
            {"q": q if p.rows is None else p.fill(q), "pos": p.positions, "seq": p.seq_ids}
            for q, p in zip(qs, self.q)
        ]
        kv_wire = []
        for s, p in zip(kv_shards, self.kv):
            k, v = (s.k, s.v) if p.rows is None else (p.fill(s.k), p.fill(s.v))
            kv_wire.append({"k": k, "v": v, "pos": p.positions, "seq": p.seq_ids})
        return q_wire, kv_wire


def plan_ring(q: list[Padding], q_counts: list[int], kv_shards: list[ShardedKV], *, pass_q: bool) -> RingPlan:
    """The :class:`RingPlan` of a ring over these query messages (of
    ``q_counts`` tokens each) and KV shards: pass-KV pads the KV
    (:func:`~repro.core.sharding.plan_kv_padding`), pass-Q sends it as it
    stands; each ``(step, rank)`` pair is decided on the origins' reach and,
    where visible, laid out. The KV reach is the one ``RankKVCache.get``
    attached, else one scan (padding moves no sequence's first key).
    """
    if len(q) != len(kv_shards):
        raise ValueError(f"need one query payload per KV shard: queries={len(q)}, kvs={len(kv_shards)}")
    kv = [Padding.as_is(s) for s in kv_shards] if pass_q else plan_kv_padding(kv_shards)[0]
    q_reach = [query_reach(p.positions, p.seq_ids, p.runs) for p in q]
    k_reach = [s.reach if s.reach is not None else kv_reach(s.positions, s.seq_ids, s.runs) for s in kv_shards]
    pairs = []
    for origins in _schedule(len(q)):
        layouts = []
        for rank, src in enumerate(origins):
            qo, ko = (src, rank) if pass_q else (rank, src)  # origins of the held Q and KV
            masked = partial_fully_masked(q_reach[qo], k_reach[ko])
            layouts.append(None if masked else attention_layout(q[qo], kv[ko]))
        pairs.append(tuple(layouts))
    return RingPlan(q, kv, [(nq, len(s.k)) for nq, s in zip(q_counts, kv_shards)], tuple(pairs))


def plan_prefill(queries: list[ShardedQueries], kv_shards: list[ShardedKV], *, pass_q: bool) -> RingPlan:
    """A prefill ring's plan: pass-Q pads the queries
    (:func:`~repro.core.sharding.plan_query_padding`), pass-KV the KV."""
    q = plan_query_padding(queries)[0] if pass_q else [Padding.as_is(s) for s in queries]
    return plan_ring(q, [len(s) for s in queries], kv_shards, pass_q=pass_q)


def ring_sweep(
    group: SimProcessGroup,
    q_wire: list[dict],
    kv_wire: list[dict],
    pairs: tuple[tuple[Layout | None, ...], ...],
    *,
    pass_q: bool,
    tags: tuple[str, str | None],
) -> list[AttentionResult]:
    """One exact ring: each rank's attention for the queries that started on it.

    Args:
        q_wire: per origin rank, the queries' on-wire arrays: ``"q"``
            ``[T, NH, DH]``, ``"pos"``, ``"seq"`` and whatever rides beside
            them (decode's batch ``slots``); one ``T`` when they travel.
        kv_wire: per origin rank, the KV's on-wire arrays: ``"k"`` and
            ``"v"`` ``[T, NKV, DH]``, ``"pos"``, ``"seq"``; one ``T`` when
            they travel.
        pairs: ``[step][rank]``, the pair's kernel layout, ``None`` where
            masked (:attr:`RingPlan.pairs`).
        pass_q: the queries travel (pass-Q), not the KV (pass-KV).
        tags: the ring shift's collective tag, then pass-Q's All2All's.

    Raises:
        ValueError: unless there is one query payload and KV payload per
            rank, every query payload ``[*, NH, DH]`` and every KV payload
            ``[*, NKV, DH]`` as on rank 0 (naming the first rank that differs).
    """
    n = group.world_size
    if len(q_wire) != n or len(kv_wire) != n:
        raise ValueError(
            f"need one query payload and KV shard per rank: world={n}, "
            f"queries={len(q_wire)}, kvs={len(kv_wire)}"
        )
    heads = (q_wire[0]["q"].shape[1:], kv_wire[0]["k"].shape[1:])
    for rank, (w, kv) in enumerate(zip(q_wire, kv_wire)):
        got = (w["q"].shape[1:], kv["k"].shape[1:])
        if got != heads:  # (another head layout would attend in another GQA grouping)
            i = int(got[0] == heads[0])
            side = ("query payload", "KV shard")[i]
            raise ValueError(f"rank {rank}'s {side} has [NH, DH] {got[i]}, rank 0's {heads[i]}")

    held = q_wire if pass_q else kv_wire  # the travelling side, by holder
    if pass_q:
        # sent[k][s]: the sums rank k computed for origin s, for the All2All;
        # a skipped step sends the ring's one shared zero pair
        tq, nh, dh = q_wire[0]["q"].shape
        zero = (np.zeros((tq, nh, dh)), np.zeros((tq, nh)))
        sent = [[zero] * n for _ in range(n)]
    else:
        running = [RunningSum() for _ in range(n)]
    for step, (origins, layouts) in enumerate(zip(_schedule(n), pairs)):
        for rank, (src, layout) in enumerate(zip(origins, layouts)):
            if layout is None:
                continue
            q, kv = (held[rank], kv_wire[rank]) if pass_q else (q_wire[rank], held[rank])
            sums = flash_attention(q["q"], kv["k"], kv["v"], layout)
            if pass_q:
                sent[rank][src] = sums
            else:
                running[rank].add(sums)
            del sums  # (a step's sums must not outlive it into the next step)
        if step < n - 1:
            held = group.ring_shift(held, step=step, tag=tags[0])

    if pass_q:  # each origin adds the sums its holders computed for it
        received = group.all_to_all(sent, tag=tags[1])
        return [RunningSum(got).result(*w["q"].shape) for got, w in zip(received, q_wire)]
    return [sums.result(*w["q"].shape) for sums, w in zip(running, q_wire)]

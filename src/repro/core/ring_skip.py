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
and ``v`` change between layers. So a caller that runs the same ring again
— ``engine.prefill`` and ``engine.decode``, once per layer — keeps a
:class:`RingPlan` for the round: each ``(step, rank)`` pair's skip decision
and kernel layout, and what the ring's adapter derives from the shards'
structure — for a prefill ring, both sides' padding
(:class:`~repro.core.sharding.Padding`), runs and reach
(:class:`PaddedSides`). The first layer plans; every later layer over the
very same structure objects only fills its ``q``, ``k`` and ``v`` into the
planned messages and sweeps. A single-use call plans for itself alone.
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


class RingSides(NamedTuple):
    """What :func:`ring_sweep` reads of each side's structure, per origin
    rank: the queries' and the KV's ``(offsets, index)`` runs and reach."""

    q_runs: list[tuple]
    q_reach: list[dict[int, int]]
    k_runs: list[tuple]
    k_reach: list[dict[int, int]]


def kv_structure(shards: list[ShardedKV]) -> tuple[list[tuple], list[dict[int, int]]]:
    """Per KV shard, its ``(runs, run_index)`` and its reach — the one
    ``RankKVCache.get`` attached, else one scan."""
    runs, reach = [], []
    for kv in shards:
        runs.append((kv.runs, kv.run_index))
        reach.append(kv.reach if kv.reach is not None else kv_reach(kv.positions, kv.seq_ids, kv.runs))
    return runs, reach


class PaddedSides(NamedTuple):
    """A prefill ring's two sides as :class:`~repro.core.sharding.Padding`
    messages per rank — the travelling side padded to equal lengths, the
    other as it stands — and the structure the sweep reads of them."""

    q: list[Padding]
    kv: list[Padding]
    structure: RingSides

    def wire(self, queries: list[ShardedQueries], kv_shards: list[ShardedKV]) -> tuple[list[dict], list[dict]]:
        """This layer's on-wire arrays: its ``q``, ``k`` and ``v``, padded,
        beside the planned coordinates."""
        q_wire = [{"q": p.fill(s.q), "pos": p.positions, "seq": p.seq_ids} for s, p in zip(queries, self.q)]
        kv_wire = [
            {"k": p.fill(s.k), "v": p.fill(s.v), "pos": p.positions, "seq": p.seq_ids}
            for s, p in zip(kv_shards, self.kv)
        ]
        return q_wire, kv_wire


def padded_sides(queries: list[ShardedQueries], kv_shards: list[ShardedKV], *, pass_q: bool) -> PaddedSides:
    """Plan a prefill ring's sides: pass-Q pads the queries, pass-KV the KV."""
    if pass_q:
        q, _ = plan_query_padding(queries)
        kv = [Padding.as_is(s) for s in kv_shards]
    else:
        q = [Padding.as_is(s) for s in queries]
        kv, _ = plan_kv_padding(kv_shards)
    q_runs, q_reach = [], []
    for p in q:
        q_runs.append((p.runs, p.run_index))
        q_reach.append(query_reach(p.positions, p.seq_ids, p.runs))
    _, k_reach = kv_structure(kv_shards)  # (padding moves no sequence's first key)
    return PaddedSides(q, kv, RingSides(q_runs, q_reach, [(p.runs, p.run_index) for p in kv], k_reach))


class RingPlan:
    """A ring's plan, kept across runs of the same ring over new ``q``,
    ``k`` and ``v`` (a round's layers): per ``(step, rank)`` pair, ``None``
    where the pair's partial is masked, else its kernel
    :class:`~repro.attention.flash.Layout` (``pairs``), and what the ring's
    adapter derived from the shards' structure (``sides``: a prefill ring's
    :class:`PaddedSides`, decode's :class:`RingSides`). The first run plans;
    a later run reuses the plan only while every shard it is handed carries
    the very ``positions``, ``seq_ids`` and ``runs`` objects the plan was
    built from — what ``RankKVCache.get`` shares across a round's layers,
    and what the engine's queries ride on — and starts over otherwise. A
    decode ring checks its KV shards alone: its query side is fixed by the
    round plan that owns this one.

    A kept plan holds one round's: each visible pair's layout (its
    ``[S, R, L]`` mask and gather indices, about one bool per query–key
    pair of the partial) and the padded coordinates. It dies with the round.
    """

    def __init__(self) -> None:
        self.built_from: list = []
        self.pairs: dict[tuple[int, int], Layout | None] = {}
        self.sides: PaddedSides | RingSides | None = None

    def for_structure(self, *sides: list) -> dict:
        """The pairs planned over these shards' structure (one list of
        shards per side): what a run over the same objects left, else none."""
        structure = [(s.positions, s.seq_ids, s.runs) for shards in sides for s in shards]
        if len(structure) != len(self.built_from) or any(
            a is not b for now, then in zip(structure, self.built_from) for a, b in zip(now, then)
        ):
            self.built_from, self.pairs, self.sides = structure, {}, None
        return self.pairs


def planned_sides(
    plan: RingPlan | None, queries: list[ShardedQueries], kv_shards: list[ShardedKV], *, pass_q: bool
) -> tuple[PaddedSides, dict | None]:
    """A prefill ring's sides and pairs: ``plan``'s while it was built over
    these shards' structure, else planned now (and kept on ``plan``)."""
    if plan is None:
        return padded_sides(queries, kv_shards, pass_q=pass_q), None
    pairs = plan.for_structure(queries, kv_shards)
    if plan.sides is None:
        plan.sides = padded_sides(queries, kv_shards, pass_q=pass_q)
    return plan.sides, pairs


@functools.cache
def _schedule(n: int) -> tuple[tuple[int, ...], ...]:
    """``[step][rank]``: the origin of the payload ``rank`` holds at ``step``."""
    return tuple(tuple(source_rank_at_step(rank, step, n) for rank in range(n)) for step in range(n))


def ring_sweep(
    group: SimProcessGroup,
    q_wire: list[dict],
    kv_wire: list[dict],
    sides: RingSides,
    *,
    pass_q: bool,
    tags: tuple[str, str | None],
    block_size: int,
    pairs: dict | None = None,
) -> list[AttentionResult]:
    """One exact ring: each rank's attention for the queries that started on it.

    Args:
        q_wire: per origin rank, the queries' on-wire arrays: ``"q"``
            ``[T, NH, DH]``, ``"pos"``, ``"seq"`` and whatever rides beside
            them (decode's batch ``slots``); one ``T`` when they travel.
        kv_wire: per origin rank, the KV's on-wire arrays: ``"k"`` and
            ``"v"`` ``[T, NKV, DH]``, ``"pos"``, ``"seq"``; one ``T`` when
            they travel.
        sides: per origin rank, both sides' ``(offsets, index)`` runs and
            reach (:class:`RingSides`).
        pass_q: the queries travel (pass-Q), not the KV (pass-KV).
        tags: the ring shift's collective tag, then pass-Q's All2All's.
        pairs: the pairs' plan, ``RingPlan.for_structure``'s, kept by a
            caller that runs this ring again over the same structure (a
            round's layers); without one, each pair is decided and laid out
            for this run alone.

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
    q_runs, q_reach, k_runs, k_reach = sides

    held = q_wire if pass_q else kv_wire  # the travelling side, by holder
    if pass_q:
        # sent[k][s]: the sums rank k computed for origin s, for the All2All;
        # a skipped step sends the ring's one shared zero pair
        tq, nh, dh = q_wire[0]["q"].shape
        zero = (np.zeros((tq, nh, dh)), np.zeros((tq, nh)))
        sent = [[zero] * n for _ in range(n)]
    else:
        running = [RunningSum() for _ in range(n)]
    # Each pair is decided and laid out here, once; the plan is kept only
    # where the caller keeps it, for the round.
    keep = pairs is not None
    pairs = pairs if keep else {}
    for step, origins in enumerate(_schedule(n)):
        for rank, src in enumerate(origins):
            qo, ko = (src, rank) if pass_q else (rank, src)  # origins of the held Q and KV
            q, kv = (held[rank], kv_wire[rank]) if pass_q else (q_wire[rank], held[rank])
            if (step, rank) in pairs:
                layout = pairs[step, rank]
            else:
                layout = None if partial_fully_masked(q_reach[qo], k_reach[ko]) else attention_layout(
                    q["q"].shape[0], kv["k"].shape[0],
                    q_pos=q["pos"], k_pos=kv["pos"], q_seq=q["seq"], k_seq=kv["seq"],
                    q_runs=q_runs[qo], k_runs=k_runs[ko],
                )
                if keep:
                    pairs[step, rank] = layout
            if layout is None:
                continue
            sums = flash_attention(q["q"], kv["k"], kv["v"], block_size=block_size, sums=True, layout=layout)
            if pass_q:
                sent[rank][src] = sums
            else:
                running[rank].add(sums)
            del sums, layout  # (a step's sums must not outlive it into the next step)
        if step < n - 1:
            held = group.ring_shift(held, step=step, tag=tags[0])

    if pass_q:  # each origin adds the sums its holders computed for it
        received = group.all_to_all(sent, tag=tags[1])
        return [RunningSum(got).result(*w["q"].shape) for got, w in zip(received, q_wire)]
    return [sums.result(*w["q"].shape) for sums, w in zip(running, q_wire)]

"""Shared test helpers (importable as `helpers` via pytest pythonpath)."""

from __future__ import annotations

import contextlib
import inspect
import textwrap

import numpy as np
import pytest

from repro.attention import flash
from repro.attention.flash import AttentionResult
from repro.attention.masks import attention_mask
from repro.core.merge import RunningSum
from repro.core.ring_skip import plan_prefill
from repro.core.sharding import (
    SequenceSpec,
    ShardedKV,
    ShardedQueries,
    ShardPlan,
    shard_sequences,
)
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.distributed.process_group import SimProcessGroup
from repro.obs import NULL_TRACER, RecordingTracer, comm_totals
from repro.runtime import FaultPlan, ServeConfig
from repro.runtime.state import RequestState
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import divergences, submit_scripts_to_runtime

#: Model every traced serving case runs (weights are read-only).
TRACE_MODEL = LlamaModel(tiny_config(), seed=0)


def assert_exact_vs_sequential(
    report,
    rids: dict[int, list[int]],
    reference: dict[int, list[list[int]]],
    *,
    completed_only: bool = False,
    context: str = "",
) -> None:
    """The serving-exactness harness over
    :func:`repro.workloads.replay.divergences`.

    Args:
        report: a ``RuntimeReport`` or ``FleetReport``.
        rids: ``{seq_id: [request_id per turn]}``.
        reference: ``{seq_id: [expected tokens per turn]}``.
        completed_only: ``False`` (default) also asserts every request
            reached ``FINISHED`` — the fault-free contract. ``True``
            rescopes to fault schedules: shed and timed-out turns are
            legal as long as ``divergences`` finds nothing.
        context: appended to failure messages (fault plans, policies,
            counters — whatever identifies the schedule that diverged).
    """
    problems = divergences(report, rids, reference)
    if not completed_only:
        problems += [
            f"seq {seq_id} turn {i} did not finish: {report.record(rid).state}"
            for seq_id, turn_rids in rids.items()
            for i, rid in enumerate(turn_rids)
            if report.record(rid).state is not RequestState.FINISHED
        ]
    suffix = f" ({context})" if context else ""
    assert not problems, "; ".join(problems) + suffix


def assert_leak_free(target, *, context: str = "") -> None:
    """Post-drain KV audit for a runtime or a whole fleet: no orphaned
    KV, leaked paged blocks/refcounts, dangling radix anchors, stale pins
    or host-side swap payload outlived the drain, on any replica."""
    leaks = target.kv_leak_report()
    assert not leaks, f"KV state leaked after drain ({context}): {leaks}"


def traced_group(world_size: int, **kwargs) -> SimProcessGroup:
    """A process group recording one span per collective."""
    return SimProcessGroup(world_size, tracer=RecordingTracer(), **kwargs)


def comm(group: SimProcessGroup):
    """Per-kind (count, bytes, seconds) totals of a traced group's collectives."""
    return comm_totals(group.tracer.events)


def make_qkv(
    rng: np.random.Generator,
    tq: int,
    tk: int,
    n_heads: int = 8,
    n_kv_heads: int = 2,
    head_dim: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random GQA tensors with the library's token-major layout."""
    q = rng.standard_normal((tq, n_heads, head_dim))
    k = rng.standard_normal((tk, n_kv_heads, head_dim))
    v = rng.standard_normal((tk, n_kv_heads, head_dim))
    return q, k, v


def layout_of(q: np.ndarray, k: np.ndarray, *, q_pos=None, k_pos=None, q_seq=None, k_seq=None, mask_fn=None):
    """The kernel :class:`~repro.attention.flash.Layout` of ``q``'s rows
    against ``k``'s keys at these coordinates (storage order and one
    sequence where omitted) under ``mask_fn``, built from the structures a
    caller holds: a ``ShardedQueries`` and a ``ShardedKV`` (whose ``v`` the
    layout never reads)."""
    queries = ShardedQueries(q, *_coordinates(len(q), q_pos, q_seq))
    keys = ShardedKV(k, k, *_coordinates(len(k), k_pos, k_seq))
    return flash.attention_layout(queries, keys, mask_fn=mask_fn)


def _coordinates(tokens: int, positions, seq_ids) -> tuple[np.ndarray, np.ndarray]:
    positions = np.arange(tokens) if positions is None else np.asarray(positions)
    return positions, np.zeros(tokens, dtype=np.int64) if seq_ids is None else np.asarray(seq_ids)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, *, block_size=128, compute_dtype=None, **coords):
    """One exact attention call, the one way through the kernel: laid out
    (:func:`layout_of`, ``coords`` its keywords), swept, and normalised by
    ``RunningSum`` into an :class:`AttentionResult`. The kernel is looked up
    on its module at each call, so a patched one is the one called."""
    sums = flash.flash_attention(
        q, k, v, layout_of(q, k, **coords), block_size=block_size, compute_dtype=compute_dtype
    )
    return RunningSum([sums]).result(*q.shape)


def window_mask_fn(window: int, *, sink_tokens: int = 0):
    """A ``mask_fn`` for the kernels: causal attention over the last
    ``window`` positions of a query's own sequence, plus the first
    ``sink_tokens`` positions (attention sinks)."""

    def fn(q_pos, k_pos, q_seq=None, k_seq=None):
        q_pos, k_pos = np.asarray(q_pos), np.asarray(k_pos)
        near = (k_pos > q_pos[:, None] - window) | (k_pos < sink_tokens)
        return attention_mask(q_pos, k_pos, q_seq, k_seq) & near

    return fn


def patch_source(patch, owner, name: str, old: str, new: str) -> None:
    """Replaces ``owner.name`` — a module's function or a class's method —
    through ``patch`` (a ``MonkeyPatch``) with its own source edited at one
    place — ``old``, which must occur exactly once, becomes ``new`` —
    compiled against its module's globals: a seeded defect, or a path the
    code offers no switch for."""
    function = getattr(owner, name)
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, f"{old!r} is not one place in {name}"
    # Padded to its own line numbers in the module's file, and run in the
    # module's live globals, so a later monkeypatch of a name it calls
    # still reaches it.
    padded = "\n" * (first - 1) + source.replace(old, new)
    code = compile(padded, function.__code__.co_filename, "exec")
    namespace: dict = {}
    exec(code, function.__globals__, namespace)
    patch.setattr(owner, name, namespace[name])


class Fallbacks:
    """Counts, under ``patch`` (a ``MonkeyPatch``), the ranges the flash
    kernel's shift-free sweep handed to the shifted one."""

    def __init__(self, patch):
        self.count, inner = 0, flash._sweep_shifted

        def counting(*sweep):
            self.count += 1
            return inner(*sweep)

        patch.setattr(flash, "_sweep_shifted", counting)


@contextlib.contextmanager
def every_block_swept():
    """The flash kernel with its block skip off: every block of keys scored
    in full, none skipped, no band of rows or keys trimmed."""
    with pytest.MonkeyPatch.context() as patch:
        patch_source(patch, flash, "_score_tiles", "if seen < mb.size:", "if False:")
        yield


class OnlineSoftmaxState:
    """Eq. 4 (paper Appendix B) in its incremental form, one partial folded
    at a time with O(1) extra memory — the test oracle for the one-shot
    :func:`repro.core.merge.merge_partials` and the kernel's shifted sweep.

    The state tracks, per (token, head): the running max LSE ``m``, the
    running denominator ``denom = sum_s exp(LSE_s - m)`` and the running
    numerator ``acc = sum_s O_s * exp(LSE_s - m)``, all in float64 whatever
    the partials' dtype. ``finalize`` returns ``acc / denom`` and the combined
    LSE ``m + log(denom)``. An empty partial (``LSE = -inf``, ``O = 0``) is
    the identity element; ``update`` returns early on one.
    """

    def __init__(self, out_shape: tuple[int, ...], lse_shape: tuple[int, ...]):
        if out_shape[: len(lse_shape)] != lse_shape:
            raise ValueError(f"lse shape {lse_shape} must prefix output shape {out_shape}")
        self._acc = np.zeros(out_shape, dtype=np.float64)
        self._m = np.full(lse_shape, -np.inf, dtype=np.float64)
        self._denom = np.zeros(lse_shape, dtype=np.float64)

    def update(self, partial_out: np.ndarray, partial_lse: np.ndarray) -> None:
        """Fold one partial ``(O_s [..., DH], LSE_s [...])`` into the state."""
        partial_out = np.asarray(partial_out)
        partial_lse = np.asarray(partial_lse)
        if partial_out.shape != self._acc.shape:
            raise ValueError(f"partial out shape {partial_out.shape} != {self._acc.shape}")
        if partial_lse.shape != self._m.shape:
            raise ValueError(f"partial lse shape {partial_lse.shape} != {self._m.shape}")
        if np.all(np.isneginf(partial_lse)):
            return
        new_m = np.maximum(self._m, partial_lse)
        # Identity when both sides are empty (-inf): keep zeros. ``safe_m``
        # is always finite, so ``x - safe_m`` is -inf exactly when x is.
        safe_m = np.where(np.isinf(new_m), 0.0, new_m)
        old_scale = np.exp(self._m - safe_m)
        new_scale = np.exp(partial_lse - safe_m)
        self._acc *= old_scale[..., None]
        self._acc += partial_out * new_scale[..., None]
        self._denom *= old_scale
        self._denom += new_scale
        self._m = new_m

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """``(O, LSE)`` over every folded partial; a token that never saw a
        key comes back ``O = 0, LSE = -inf``."""
        seen = self._denom > 0
        denom = np.where(seen, self._denom, 1.0)
        out = np.where(seen[..., None], self._acc / denom[..., None], 0.0)
        lse = np.where(seen, self._m + np.log(denom), -np.inf)
        return out, lse


def shard_qkv_full_prefill(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    world_size: int,
    *,
    seq_id: int = 0,
) -> tuple[list[ShardedQueries], list[ShardedKV]]:
    """Load-balance shard one full-prefill sequence across ranks."""
    t = q.shape[0]
    shards = shard_sequences([SequenceSpec(seq_id, t)], world_size)
    queries, kvs = [], []
    for pos, sid in shards:
        queries.append(ShardedQueries(q=q[pos], positions=pos, seq_ids=sid))
        kvs.append(ShardedKV(k=k[pos], v=v[pos], positions=pos, seq_ids=sid))
    return queries, kvs


def shard_varseq_full_prefill(
    per_seq_qkv: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
    world_size: int,
) -> tuple[list[ShardedQueries], list[ShardedKV]]:
    """Load-balance shard a fused batch of full-prefill sequences."""
    specs = [SequenceSpec(sid, qkv[0].shape[0]) for sid, qkv in sorted(per_seq_qkv.items())]
    shards = shard_sequences(specs, world_size)
    queries, kvs = [], []
    for pos, sids in shards:
        qs, ks, vs = [], [], []
        for p, sid in zip(pos, sids):
            q, k, v = per_seq_qkv[int(sid)]
            qs.append(q[int(p)])
            ks.append(k[int(p)])
            vs.append(v[int(p)])
        if qs:
            queries.append(
                ShardedQueries(q=np.stack(qs), positions=pos, seq_ids=sids)
            )
            kvs.append(
                ShardedKV(k=np.stack(ks), v=np.stack(vs), positions=pos, seq_ids=sids)
            )
        else:
            nh, dh = next(iter(per_seq_qkv.values()))[0].shape[1:]
            nkv = next(iter(per_seq_qkv.values()))[1].shape[1]
            queries.append(
                ShardedQueries(
                    q=np.zeros((0, nh, dh)),
                    positions=np.zeros(0, dtype=np.int64),
                    seq_ids=np.zeros(0, dtype=np.int64),
                )
            )
            kvs.append(ShardedKV.empty(nkv, dh))
    return queries, kvs


def round_robin_owners(batch: int, world: int, step: int = 0) -> np.ndarray:
    """The rank owning each slot of a ``batch``-slot decode round at
    ``step``, read off :meth:`ShardPlan.round_robin`'s spans."""
    owner = np.empty(batch, dtype=np.int64)
    for rank, spans in enumerate(ShardPlan.round_robin(list(range(batch)), [0] * batch, world, step).spans):
        owner[[span.seq_id for span in spans]] = rank
    return owner


def decode_round(
    q: np.ndarray, positions: np.ndarray, seq_ids: np.ndarray, world: int, step: int = 0
) -> tuple[list[ShardedQueries], list[np.ndarray]]:
    """A decode batch given in batch order (row ``b`` is slot ``b``), split
    as ``engine.decode`` splits it: per rank, the one-token queries of the
    slots it owns at ``step`` (:func:`round_robin_owners`), and those
    slots."""
    owner = round_robin_owners(len(q), world, step)
    slots = [np.nonzero(owner == rank)[0] for rank in range(world)]
    return [ShardedQueries(q=q[s], positions=positions[s], seq_ids=seq_ids[s]) for s in slots], slots


def run_ring(ring, group, queries, kv_shards, *, slots=None, **kw) -> list[AttentionResult]:
    """A single-use call of ``ring`` (one of the three ring adapters), made
    as a round makes its first layer's: plan with ``plan_prefill`` (pass-Q
    unless ``ring`` is pass-KV's), then ring over the plan and each rank's
    ``q`` rows. Decode's per-rank ``slots`` are ``-1``-padded to the
    message length first."""
    plan = plan_prefill(queries, kv_shards, pass_q=ring.__name__ != "ring_passkv_prefill")
    if slots is not None:
        width = len(plan.q[0].positions)
        kw["slots"] = [np.concatenate([s, np.full(width - len(s), -1, dtype=np.int64)]) for s in slots]
    return ring(group, plan, [s.q for s in queries], kv_shards, **kw)


def in_batch_order(results: list[AttentionResult], slots: list[np.ndarray]) -> AttentionResult:
    """A decode ring's per-rank results scattered back into batch order."""
    batch = sum(len(s) for s in slots)
    out = np.empty((batch, *results[0].out.shape[1:]))
    lse = np.empty((batch, *results[0].lse.shape[1:]))
    for r, s in zip(results, slots):
        out[s], lse[s] = r.out, r.lse
    return AttentionResult(out=out, lse=lse)


class PrefillRound:
    """A fused partial-prefill round's coordinates on ``world`` ranks (Figure
    2). ``seqs[sid] = (cached, new)``: ``cached[r]`` of the sequence's
    tokens already sit on rank ``r`` (rank 0 the lowest positions, then
    rank 1's, ...), and its ``new`` tokens are load-balance sharded. Each
    rank's KV holds every sequence's cached tokens, then its new ones, in
    sequence-id order — what ``RankKVCache.get`` reads for the round."""

    def __init__(self, world: int, seqs: dict[int, tuple[list[int], int]]):
        self.seqs = dict(sorted(seqs.items()))
        specs = [SequenceSpec(sid, new, sum(cached)) for sid, (cached, new) in self.seqs.items()]
        self.q_coords = ShardPlan(specs, world).coordinates()
        self.kv_coords = []
        for rank, (pos, seq) in enumerate(self.q_coords):
            k_pos, k_seq = [], []
            for sid, (cached, _) in self.seqs.items():
                first = sum(cached[:rank])
                mine = np.concatenate([np.arange(first, first + cached[rank]), pos[seq == sid]])
                k_pos.append(mine)
                k_seq.append(np.full(mine.size, sid))
            self.kv_coords.append(
                (np.concatenate(k_pos).astype(np.int64), np.concatenate(k_seq).astype(np.int64))
            )

    def context(self, sid: int) -> tuple[int, int]:
        """``(P, T)`` of sequence ``sid``."""
        cached, new = self.seqs[sid]
        return sum(cached), new

    def arrays(self, rng: np.random.Generator, nh: int = 4, nkv: int = 2, dh: int = 16) -> dict:
        """Per sequence, a layer's ``(q, k, v)``: ``q`` row ``j`` is position
        ``P + j``, ``k`` and ``v`` row ``p`` position ``p``."""
        out = {}
        for sid in self.seqs:
            p, t = self.context(sid)
            out[sid] = (
                rng.standard_normal((t, nh, dh)),
                rng.standard_normal((p + t, nkv, dh)),
                rng.standard_normal((p + t, nkv, dh)),
            )
        return out

    def shards(self, per_seq: dict, like=None) -> tuple[list[ShardedQueries], list[ShardedKV]]:
        """Each rank's query and KV shard of ``per_seq``'s rows; with ``like``
        (another layer's shards), over its very coordinate and run objects,
        as a round's layers are; else over fresh copies."""

        def rows(side: int, pos: np.ndarray, seq: np.ndarray) -> np.ndarray:
            shape = next(iter(per_seq.values()))[side].shape[1:]
            picked = [
                per_seq[s][side][p - (self.context(s)[0] if side == 0 else 0)]
                for p, s in zip(pos.tolist(), seq.tolist())
            ]
            return np.stack(picked) if picked else np.zeros((0, *shape))

        queries, kvs = [], []
        for rank, ((q_pos, q_seq), (k_pos, k_seq)) in enumerate(zip(self.q_coords, self.kv_coords)):
            q, k, v = rows(0, q_pos, q_seq), rows(1, k_pos, k_seq), rows(2, k_pos, k_seq)
            if like is None:
                queries.append(ShardedQueries(q=q, positions=q_pos.copy(), seq_ids=q_seq.copy()))
                kvs.append(ShardedKV(k=k, v=v, positions=k_pos.copy(), seq_ids=k_seq.copy()))
            else:
                lq, lkv = like[0][rank], like[1][rank]
                queries.append(ShardedQueries(q, lq.positions, lq.seq_ids, lq.runs, lq.run_index))
                kvs.append(ShardedKV(k, v, lkv.positions, lkv.seq_ids, lkv.runs, lkv.run_index, lkv.reach))
        return queries, kvs


def finish_fields(**fields) -> dict:
    """A ``finish`` event's fields, identity labels included: a turn of
    conversation 0 that streamed nothing, unless ``fields`` say otherwise."""
    return {
        "status": "finished",
        "seq_id": 0,
        "tokens": 0,
        "ttit": [],
        "prompt": 1,
        "cached": 0,
        "algo": "pass-kv",
        "generated": [],
        **fields,
    }


def trace_scripts(case):
    """The conversations a traced serving ``case`` submits."""
    gen = WorkloadGenerator(TRACE_MODEL.config.vocab_size, seed=case["seed"])
    if case["shared"]:
        return gen.shared_prefix_traffic(
            n_system_prompts=2,
            n_fewshot_variants=2,
            conversations=case["sessions"],
            system_tokens=24,
            fewshot_tokens=8,
            unique_range=(4, 12),
            turns=case["turns"],
            response_range=(2, 5),
        )
    return [
        gen.conversation(
            sid, turns=case["turns"], first_prompt=24,
            followup_range=(4, 12), response_range=(2, 5),
        )
        for sid in range(case["sessions"])
    ]


def run_traced(case, *, record: bool = True, model=TRACE_MODEL):
    """Build the case through :class:`ServeConfig` with a fresh tracer, run it, return
    ``(tracer, runtime_or_fleet, fleet_or_None, report)``.

    ``case`` is a dict that fully determines the run: ``seed``,
    ``n_replicas``, ``policy`` (routing), ``disaggregate``,
    ``preemption``, ``prefix_cache``, ``chunk``, ``capacity``, ``think``,
    ``shared``, ``sessions``, ``turns`` and ``faults`` (``FaultPlan`` kwargs
    or ``None``). ``record=False`` runs the same case with no recorder
    attached (the returned tracer is the null tracer). ``model`` builds the
    engines: a :class:`~repro.core.shape_engine.ShapeModel` replays the case
    on shape-only ones.
    """
    tracer = RecordingTracer() if record else NULL_TRACER
    runtime = ServeConfig(
        decode_world=2 if case["disaggregate"] else None,
        capacity=case["capacity"],
        chunk=case["chunk"],
        round_budget=2 * case["chunk"],
        preemption=case["preemption"],
        prefix_cache=case["prefix_cache"],
        faults=FaultPlan(**case["faults"]) if case["faults"] else None,
        replicas=case["n_replicas"],
        routing=case["policy"],
    ).build(model, tracer=tracer)
    fleet = runtime if case["n_replicas"] > 1 else None
    submit_scripts_to_runtime(runtime, trace_scripts(case), think_time_s=case["think"])
    report = runtime.run(max_steps=200_000)
    return tracer, runtime, fleet, report


def token_source(report):
    """A finished run's tokens as a token source, to replay the run on
    shape-only engines: ``next_token(seq_id, position)`` is the token at
    ``position`` of the stream ``seq_id``'s requests committed (each turn's
    prompt, then its decoded tokens, in submission order), and 0 past it."""
    streams: dict[int, list[int]] = {}
    for rid in sorted(report.records):
        rec = report.records[rid]
        streams.setdefault(rec.seq_id, []).extend(rec.request.prompt.tolist() + rec.generated)
    return lambda seq_id, position: (
        streams[seq_id][position] if position < len(streams[seq_id]) else 0
    )

"""Seeded-mutant catalogue: every invariant the runtime leans on must
have teeth.

Each entry seeds one plausible bug by monkeypatch and runs only the
golden trace case or named test that kills it: the digest must move, or
the test must fail. A mutant that survives fails tier-1 and names a hole
in the tests that guard that code. Add an entry with the cheapest killer
(the golden cases run in ~0.1-0.4 s each; keep the whole file within a
few seconds).

Entries so far cover the remedy seam in ``runtime/runtime.py``: the one
victim loop (``_make_room``), the two bounds on a victim (``_find_victim``:
younger than the beneficiary, never the oldest live request) and the
remedy ladder (``_rungs``, then full eviction), and the prefill fit
(``_fit_prefill_round``), which must squeeze out a round's youngest
member — its FCFS tail — before its oldest; the one ring sweep
(``ring_skip.ring_sweep``): its shard skip (``partial_fully_masked``),
which alone decides which ring-step partials are replaced by the merge
identity and must test a pass-Q payload by its origin's reach (decided
once per round, in ``ring_skip.plan_ring``), and its sum of every step's
partial (``RunningSum``); the varlen kernel's pairing of a padded group's
query and key runs; what the deployment
builder (``runtime/config.py``) derives: per-replica tracer scopes, TP
decode pricing and the decode pool's capacity; the counters
(``serving/metrics.py``): a round's duration check, the ``finish`` row's
TTIT values, the peak-KV clause and the Prometheus exposition's bucket
bounds and replica label; the trace replay behind ``reconcile``
(``obs/timeline.py``), which must hand the fold each event's identity
labels; the serving-exactness check (``workloads/replay.py::divergences``),
which must compare every turn and catch a turn finished after its
conversation was shed; the pricing of collective spans
(``HostSpec.all2all_s`` and ``distributed/process_group.py``), which must
be the hardware model's own; and the latency model behind the paper's
tables (``HostSpec.sendrecv_s`` / ``allreduce_s``, the ring overlap in
``perf/latency.py`` and ``LatencySimulator.kv_transfer_s``, the price of
§4.3's KV stream), whose killers are paper claims
(``experiments/test_paper_claims.py``) or calibration tests; the decode
round's split (``ShardPlan.round_robin``), which both engines read and
which must rotate its placement by the step, killed by the KV-balance
test and a golden case; the engines' one round body
(``ContextParallelEngine._round``), which must skip exactly the ranks
that hold no rows, and the prefill logits, whose rows a partial prefill
offsets by its cached length; and the flash kernel's shift-free sweep (``attention/flash.py::
_sweep_additive``), whose one-row base case must mask, and whose range
check must run at every height and tell a blind row by the mask, not by
``den == 0``; and the kernel's one entry (``flash_attention``), which must
refuse a layout built for another call's shape. Those four are one-line
edits of the kernel's source (``helpers.patch_source``), compiled into the
kernel module in its place.
Two more edit the boundary where bad input must fail: a turn's arrival
must be a finite time (``TurnRequest.__post_init__``), and the fleet must
check a prompt's vocabulary before it routes (``ReplicaFleet.submit``).
Two edit the process group's delivery (``process_group._deliver``), which
must freeze every array it hands a receiver — the rings' source ranks add
the sums they receive — and refuse what it cannot freeze. Two edit the
seams of a round's one structure: a later layer's KV read must check that
it holds the token set of the layer-0 read it takes its structure from
(``RankKVCache.get``), and a ring's plan must refuse a shard of another
token count than it was built for (``ring_skip.RingPlan.wire``). One moves
the KV cache's tail cut (``RankKVCache.drop_tail``) by one position, and one
lets a stream append in place below its ``lent`` mark (``_Stream.append``),
under a read that still covers those rows. One makes a preempted request
resample its pending token on resume (``_reschedule_preempted``), and one
takes Algorithm 4's batch ids off the decode ring's query messages
(``ring_decode.ring_passq_decode``). Two
edit the runtime's KV moves: dropping a host-store payload must hand its
tokens back to the swap budget (``Pool.discard_stored``), and a cancelled
transfer must refund its un-streamed wire time (``KVTransferStream.cancel``).
Two edit a turn's finish (``_finish_turn``): it must release its prefix
donor's pin, and it must hold its successor's ``ready_at`` to its finish
time, so the next turn is not admitted on an idle pool's older clock.
Two edit the sharing seams of the KV: an append into a shared, partly
filled last block must split it copy-on-write (``PagedAllocator.append``),
and an evicted sequence must leave the engine's prefix index
(``ContextParallelEngine.evict``).
An entry may name several killers; each must pass on the real code and
fail on the mutant.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from repro.attention import flash
from repro.cluster import ReplicaFleet
from repro.core import ring_decode, ring_skip
from repro.core.merge import RunningSum
from repro.core.engine import ContextParallelEngine
from repro.core.sharding import ShardPlan
from repro.distributed import process_group
from repro.kvcache.cache import RankKVCache, _Stream
from repro.kvcache.paged import PagedAllocator
from repro.model.config import llama3_405b_config, tiny_config
from repro.model.llama import LlamaModel
from repro.obs import dumps_jsonl, timeline
from repro.perf import latency
from repro.perf.hardware import HostSpec, gtt_host
from repro.runtime import config as serve_config
from repro.runtime.pool import Pool
from repro.runtime.runtime import ContinuousBatchingRuntime as Runtime
from repro.runtime.state import RequestState, TurnRequest
from repro.runtime.transfer import KVTransferStream
from repro.serving import metrics as serving_metrics
from repro.workloads import replay

from helpers import patch_source, run_traced

TESTS = Path(__file__).resolve().parents[1]


@functools.cache
def _test_module(relpath: str):
    """Load a test module by path under a private name (pytest collects
    the real one itself)."""
    path = TESTS / relpath
    spec = importlib.util.spec_from_file_location(f"_catalogue_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------- #
# mutants
# ---------------------------------------------------------------------- #


def _make_room_evicts_once(monkeypatch):
    """The victim loop evicts one victim and reports success without
    probing ``fits`` again."""

    def make_room(self, role, fits, *, protected, younger_than, reason):
        if fits():
            return True
        victim = self._find_victim(role=role, protected=protected, younger_than=younger_than)
        if victim is None:
            return False
        self._evict(*victim, role=role, at=self._pools[role].t, reason=reason)
        return True

    monkeypatch.setattr(Runtime, "_make_room", make_room)


def _younger_than_ignored(monkeypatch):
    """Every caller's FCFS bound is dropped (only the oldest-live default
    is left), so a round may evict requests older than its own members."""
    find_victim = Runtime._find_victim

    def ignoring(self, *, role, protected, younger_than):
        return find_victim(self, role=role, protected=protected, younger_than=None)

    monkeypatch.setattr(Runtime, "_find_victim", ignoring)


def _oldest_live_evictable(monkeypatch):
    """A victim search with no bound (the decode fit's) may take the
    oldest live request."""
    find_victim = Runtime._find_victim
    unbounded = (float("-inf"), -1)

    def anyone(self, *, role, protected, younger_than):
        bound = unbounded if younger_than is None else younger_than
        return find_victim(self, role=role, protected=protected, younger_than=bound)

    monkeypatch.setattr(Runtime, "_find_victim", anyone)


def _trim_ignores_adopted_prefix(monkeypatch):
    """The trim rung cuts into a victim's adopted shared prefix."""
    trim = Runtime._trim

    def unguarded(self, seq_id, rec, **kw):
        if rec is None:
            return trim(self, seq_id, rec, **kw)
        shared, rec.prefix_shared = rec.prefix_shared, 0
        try:
            return trim(self, seq_id, rec, **kw)
        finally:
            rec.prefix_shared = shared

    monkeypatch.setattr(Runtime, "_trim", unguarded)


def _fit_drops_oldest_member(monkeypatch):
    """A prefill round that cannot fit drops its head, the oldest request,
    instead of its youngest tail."""
    patch_source(monkeypatch, Runtime, "_fit_prefill_round", "round_.pop()", "round_.pop(0)")


def _swap_ignores_store_budget(monkeypatch):
    """The swap rung exports a victim however full the host store is."""
    swap_out = Runtime._swap_out

    def unbounded(self, *args, **kw):
        budget, self.swap_capacity_tokens = self.swap_capacity_tokens, None
        try:
            return swap_out(self, *args, **kw)
        finally:
            self.swap_capacity_tokens = budget

    monkeypatch.setattr(Runtime, "_swap_out", unbounded)


def _full_eviction_before_rung(monkeypatch):
    """Full eviction is tried first. It always applies, so the configured
    rung is never reached: the ladder behaves as if it had no rungs."""
    init = Runtime.__init__

    def reordered(self, *args, **kw):
        init(self, *args, **kw)
        self._rungs = ()

    monkeypatch.setattr(Runtime, "__init__", reordered)


def _ring_skip_off_by_one(monkeypatch):
    """The shard skip compares ``<`` for ``<=``: a shard whose first key
    sits at a query's own position counts as masked, so the diagonal
    partial is replaced by the identity."""

    def strict(q_reach, k_reach):
        return not any(sid in k_reach and k_reach[sid] < q_max for sid, q_max in q_reach.items())

    monkeypatch.setattr(ring_skip, "partial_fully_masked", strict)


def _passq_skips_by_holder_reach(monkeypatch):
    """The pass-Q skip test reads the query reach of the rank holding the
    payload, not of the rank it started on: a travelling payload's visible
    partial is skipped wherever the holder's own queries see none of its KV."""
    patch_source(
        monkeypatch, ring_skip, "plan_ring",
        "qo, ko = (src, rank) if pass_q else (rank, src)",
        "qo, ko = (rank, rank) if pass_q else (rank, src)",
    )
    # (every ring plans through ``plan_prefill``, which reaches ``plan_ring``
    # through ``ring_skip``'s globals: no module binds ``plan_ring`` itself)


def _decode_slots_off_the_wire(monkeypatch):
    """The decode ring stops carrying each query message's batch ids
    (Algorithm 4's ``slots``): its SendRecvs move fewer bytes than the
    paper's schedule prices."""
    patch_source(monkeypatch, ring_decode, "ring_passq_decode", 'wire["slots"] =', "_ =")
    monkeypatch.setattr(_test_module("core/test_ring_decode.py"), "ring_passq_decode", ring_decode.ring_passq_decode)  # (bound by name)


class _DropsLastSums(RunningSum):
    """A running sum that never adds the last partial handed to it."""

    def add(self, partial):
        held = getattr(self, "held", None)
        if held is not None:
            super().add(held)
        self.held = partial


def _merge_drops_last_partial(monkeypatch):
    """The ring sweep's running sums drop the last partial handed to them —
    pass-KV's last computed step, the last holder's at a pass-Q source
    rank — so the attention output loses the keys of one shard."""
    monkeypatch.setattr(ring_skip, "RunningSum", _DropsLastSums)


def _replicas_share_unscoped_tracer(monkeypatch):
    """Fleet replicas record through the fleet's tracer itself instead of
    ``tracer.scoped(replica=i)``, so their events carry no replica."""
    runtime = serve_config.ServeConfig._runtime

    def unscoped(self, model, sim, tracer):
        return runtime(self, model, sim, getattr(tracer, "_root", tracer))

    monkeypatch.setattr(serve_config.ServeConfig, "_runtime", unscoped)


def _tp_decode_not_derived(monkeypatch):
    """The built clock prices decode at CP whatever the deployment shape."""
    clock = serve_config.SimulatedStepClock

    def cp_only(sim, *, n_ranks, tp_decode=False):
        return clock(sim, n_ranks=n_ranks)

    monkeypatch.setattr(serve_config, "SimulatedStepClock", cp_only)


def _decode_pool_sized_by_capacity(monkeypatch):
    """The decode pool is built with ``capacity``, not ``decode_capacity``."""
    runtime = serve_config.ServeConfig._runtime

    def prefill_sized(self, model, sim, tracer):
        return runtime(replace(self, decode_capacity=None), model, sim, tracer)

    monkeypatch.setattr(serve_config.ServeConfig, "_runtime", prefill_sized)


def _bucket_bound_exclusive(monkeypatch):
    """A histogram bucket counts samples ``< le`` instead of ``<= le``."""
    monkeypatch.setattr(serving_metrics, "bisect_right", bisect.bisect_left)


def _replica_label_dropped(monkeypatch):
    """The fleet exposition renders every replica's series unlabelled."""
    labels = serving_metrics._labels
    monkeypatch.setattr(serving_metrics, "_labels", lambda replica, **kw: labels(None, **kw))


def _round_duration_unchecked(monkeypatch):
    """A round's duration is added to its pool however negative it is."""

    def unchecked(pool):
        def row(m, dur, fields):
            m._pool_busy[pool] = m._pool_busy.get(pool, 0) + float(dur)
            m._pool_rounds[pool] = m._pool_rounds.get(pool, 0) + 1

        return row

    for pool in ("prefill", "decode"):
        monkeypatch.setitem(serving_metrics.FOLD, f"{pool}_round", unchecked(pool))


def _finish_drops_last_ttit_gap(monkeypatch):
    """The ``finish`` row files every TTIT gap but the turn's last."""
    finish = serving_metrics._fold_finish

    def dropping(m, dur, fields):
        finish(m, dur, {**fields, "ttit": fields["ttit"][:-1]})

    monkeypatch.setitem(serving_metrics.FOLD, "finish", dropping)


def _peak_kv_keeps_latest(monkeypatch):
    """The peak-KV clause keeps each pool's latest sample, not its max."""

    def fold(self, name, dur, fields):
        row = serving_metrics.FOLD.get(name)
        if row is not None:
            row(self, dur, fields)
        self._peak_kv.update(fields.get("kv", {}))

    monkeypatch.setattr(serving_metrics.ServingMetrics, "fold", fold)


def _replay_without_labels(monkeypatch):
    """``reconcile`` replays each event's attrs alone, without the
    ``pool`` / ``request_id`` / ``seq_id`` labels the live fold saw."""

    def bare(events, metrics):
        for e in events:
            metrics.fold(e.name, e.dur, dict(e.attrs))
        return metrics

    monkeypatch.setattr(timeline, "replay", bare)


def _divergences_first_turn_only(monkeypatch):
    """The exactness check compares each conversation's first turn only."""
    divergences = replay.divergences

    def first_turn(report, rids, reference):
        return divergences(report, {s: turn_rids[:1] for s, turn_rids in rids.items()}, reference)

    monkeypatch.setattr(replay, "divergences", first_turn)


def _divergences_ignores_shed_chain(monkeypatch):
    """The exactness check compares every finished turn and nothing else,
    so a turn that finishes after its conversation's shed turn passes."""

    def finished_only(report, rids, reference):
        return [
            f"seq {seq_id} turn {i}"
            for seq_id, turn_rids in rids.items()
            for i, rec in enumerate(map(report.record, turn_rids))
            if rec.state is RequestState.FINISHED and list(rec.generated) != reference[seq_id][i]
        ]

    monkeypatch.setattr(replay, "divergences", finished_only)


def _all2all_without_latency(monkeypatch):
    """An All2All is priced as its bytes alone, without the ``(N-1)``
    per-peer message latency."""
    monkeypatch.setattr(HostSpec, "all2all_s", lambda self, nbytes, n_ranks: nbytes / self.all2all_bandwidth)


def _allgather_single_hop(monkeypatch):
    """An AllGather is priced as one SendRecv of the largest shard instead
    of ``N-1``."""
    trace = process_group.SimProcessGroup._trace

    def one_hop(self, kind, nbytes, duration, **kw):
        if kind == "allgather":
            duration = process_group._HOST.sendrecv_s(nbytes // (self.world_size - 1))
        trace(self, kind, nbytes, duration, **kw)

    monkeypatch.setattr(process_group.SimProcessGroup, "_trace", one_hop)


def _sendrecv_without_latency(monkeypatch):
    """A ring SendRecv is priced as its bytes alone, without the
    per-message latency that dominates decode's tiny Q messages."""
    monkeypatch.setattr(HostSpec, "sendrecv_s", lambda self, nbytes: nbytes / self.ring_bandwidth)


def _ring_overlap_dropped(monkeypatch):
    """A ring step costs its attention plus its SendRecv instead of their
    max, so pass-KV communication never hides under compute."""
    monkeypatch.setattr(latency, "max", lambda a, b: a + b, raising=False)


def _allreduce_free(monkeypatch):
    """The TP baseline's activation AllReduce costs nothing, so
    multi-node TP scales like CP."""
    monkeypatch.setattr(HostSpec, "allreduce_s", lambda self, nbytes, n_ranks: 0.0)


def _kv_transfer_free(monkeypatch):
    """A prefill-to-decode KV transfer costs nothing, so disaggregation's
    one wire wait vanishes and it wins every response length."""
    monkeypatch.setattr(latency.LatencySimulator, "kv_transfer_s", lambda self, tokens: 0.0)


def _shape_decode_unrotated(monkeypatch):
    """The round-robin split places every decode step as its first,
    ignoring the ``decode_steps`` offset (§3.6): both engines' decode rounds
    read this one split, so a sequence's generated KV piles up on ranks."""
    patch_source(
        monkeypatch, ShardPlan, "round_robin",
        "split.specs, split.seq_ids, split._coords, split._batch_ids = None, seq_ids, None, None",
        "step = 0; split.specs, split.seq_ids, split._coords, split._batch_ids = None, seq_ids, None, None",
    )


def _partial_prefill_logits_unshifted(monkeypatch):
    """A prefill round places each span's logit rows at their absolute
    positions, not offset by the sequence's cached length: a partial
    prefill's rows land past its new tokens."""
    patch_source(
        monkeypatch, ContextParallelEngine, "_prefill_logits",
        "rows = positions[lo:hi] - self.context_length(sid)", "rows = positions[lo:hi]",
    )


def _round_body_skips_nonempty_rank(monkeypatch):
    """The round body's empty-rank test is off by one: a rank that holds
    one sequence's rows is taken for empty, so it projects, transforms and
    unembeds nothing."""
    patch_source(monkeypatch, ContextParallelEngine, "_round", "if spans]", "if len(spans) > 1]")


def _one_row_mask_dropped(monkeypatch):
    """The one-row base case exponentiates every score and keeps them all:
    a decode row attends its segment's pad keys and unseen keys."""
    patch_source(
        monkeypatch, flash, "_sweep_additive",
        "np.where(mask[:, :, None], np.exp(p, out=p), 0.0)", "np.exp(p, out=p)",
    )


def _one_row_range_unchecked(monkeypatch):
    """The range check runs only on sweeps of two or more rows, so a decode
    row whose ``exp`` overflowed or flushed to zero is returned as is."""
    patch_source(
        monkeypatch, flash, "_sweep_additive",
        "if not (den_min <= lowest", "if tq > 1 and not (den_min <= lowest",
    )


def _blind_rows_by_den(monkeypatch):
    """A row is blind wherever its ``den`` is 0, whatever the mask says: a
    row whose every visible ``exp`` underflowed passes the range check as
    ``O = 0, LSE = -inf``."""
    patch_source(
        monkeypatch, flash, "_sweep_additive",
        "sighted = mask.any(axis=2)[:, None, :, None]", "sighted = den > 0",
    )


def _layout_shape_unchecked(monkeypatch):
    """The kernel sweeps a layout built for another ``(Tq, Tk)``: a layout
    of fewer keys silently leaves the call's last keys unattended."""
    patch_source(monkeypatch, flash, "flash_attention", "if (layout.tq, layout.tk) != (tq, tk):", "if False:")


def _varlen_group_pairs_wrong_run(monkeypatch):
    """A padded group of the varlen sweep gathers its key runs in reverse
    (``_pad_groups``' segments, starts and lengths reversed together), so
    every query run of a group of two or more meets another sequence's keys."""
    patch_source(
        monkeypatch, flash, "attention_layout",
        "ki, k_valid = _padded_index(k_start[group], keys[group], max_keys, k_order)",
        "ki, k_valid = _padded_index(k_start[group][::-1], keys[group][::-1], max_keys, k_order)",
    )


def _resume_resamples_pending_token(monkeypatch):
    """A preempted request that had sampled tokens resamples on resume: the
    re-prefill's logits reproduce the pending token, appended a second time."""
    patch_source(
        monkeypatch, Runtime, "_reschedule_preempted",
        "rec.resample_on_prefill = not rec.generated", "rec.resample_on_prefill = True",
    )


def _lent_mark_ignored(monkeypatch):
    """A stream appends in place below its ``lent`` high-water mark: after a
    tail cut, the rows a returned read still covers are overwritten."""
    patch_source(
        monkeypatch, _Stream, "append",
        "if need > capacity or n < self.lent or not cols[-1].flags.writeable:",
        "if need > capacity or not cols[-1].flags.writeable:",
    )


def _like_read_skips_token_set_check(monkeypatch):
    """A later layer's read takes the layer-0 read's structure without
    checking that its streams hold the same token set."""
    patch_source(
        monkeypatch, RankKVCache, "get", "if (had_sids, had_lengths) != (sids, lengths):", "if False:"
    )


def _plan_accepts_another_length(monkeypatch):
    """A ring's plan fills a shard of another token count into messages
    planned for the shard it was built over."""
    patch_source(monkeypatch, ring_skip.RingPlan, "wire", "if counts != self.counts:", "if False:")


def _delivered_payload_thawed(monkeypatch):
    """A collective hands the receiver the sender's arrays without freezing
    them, so either side can write into a buffer the other still reads."""
    patch_source(monkeypatch, process_group, "_deliver", "value.flags.writeable = False", "pass")


def _deliver_passes_unknown_payload(monkeypatch):
    """A collective hands the receiver an object it cannot freeze (a plain
    object, a ``str``) as the sender's own, shared between ranks."""
    patch_source(
        monkeypatch, process_group, "_deliver",
        'raise TypeError(f"unsupported payload type {type(value)!r}")', "pass",
    )


def _tail_trim_off_by_one(monkeypatch):
    """The tail cut keeps the token at ``from_pos``: a trimmed sequence
    keeps one position it gave back (and charges the pool for it)."""
    patch_source(
        monkeypatch, RankKVCache, "drop_tail",
        "keep = stream.count_below(from_pos)", "keep = stream.count_below(from_pos + 1)",
    )


def _discard_keeps_store_tokens(monkeypatch):
    """Dropping a host-store payload (a swap-in, a discard) leaves its
    tokens charged to the store, so the swap budget shrinks for good."""
    patch_source(monkeypatch, Pool, "discard_stored", "self.store_tokens -= export.tokens", "pass")


def _transfer_refund_dropped(monkeypatch):
    """A cancelled transfer hands back none of its un-streamed wire time:
    the channel stays reserved and its successors stay queued behind it."""
    patch_source(monkeypatch, KVTransferStream, "cancel", "if refund > 0.0:", "if False:")


def _donor_pin_not_released(monkeypatch):
    """A finished warm turn keeps its prefix donor pinned, so the donor
    can never be LRU-evicted again."""
    patch_source(monkeypatch, Runtime, "_finish_turn", "self.prefix_index.unpin(rec.prefix_donor)", "pass")


def _stale_ready_at(monkeypatch):
    """A finished turn leaves its successor's ``ready_at`` as it was: the
    next turn is admitted at the idle prefill pool's older clock, before
    the turn whose tokens it re-prefills has finished."""
    patch_source(monkeypatch, Runtime, "_finish_turn", "nxt.ready_at = max(nxt.ready_at, at)", "pass")


def _cow_split_skipped(monkeypatch):
    """An append into a stream whose partly filled last block another
    stream shares fills that shared block in place, without the
    copy-on-write split: the other stream's rows are written over."""
    patch_source(monkeypatch, PagedAllocator, "append", "if n_tokens > 0 and self._needs_cow(key):", "if False:")


def _evict_keeps_prefix_anchor(monkeypatch):
    """An evicted sequence stays anchored in the engine's ``PrefixIndex``,
    so a later prompt may adopt KV that is no longer resident."""
    patch_source(monkeypatch, ContextParallelEngine, "evict", "self.prefix_index.remove(seq_id)", "pass")


def _nan_arrival_admitted(monkeypatch):
    """A turn's arrival is checked by ``arrival < 0`` alone, which a NaN
    (and an infinity) passes: the runtime never drains."""
    patch_source(
        monkeypatch, TurnRequest, "__post_init__",
        "not (math.isfinite(self.arrival) and self.arrival >= 0)", "self.arrival < 0",
    )


def _fleet_checks_vocab_after_routing(monkeypatch):
    """The fleet leaves the vocabulary check to the replica's own submit,
    after the router placed the turn and the fleet recorded its owner."""
    patch_source(
        monkeypatch, ReplicaFleet, "submit",
        "request.check_vocab(min(r.runtime.vocab_size for r in targets))", "pass",
    )


# ---------------------------------------------------------------------- #
# killers
# ---------------------------------------------------------------------- #


def _golden_case(name: str) -> None:
    """Fails when the named golden case's trace digest moves (or the run
    raises on the way)."""
    golden = _test_module("runtime/test_golden_traces.py")
    tracer = run_traced(golden.CASES[name])[0]
    digest = hashlib.sha256(dumps_jsonl(tracer.events).encode()).hexdigest()
    assert digest == golden.GOLDEN[name], f"golden case {name} moved"


@functools.cache
def _instance(cls: type):
    """One instance per test class: hypothesis fails a ``@given`` method
    called from two instances (``differing_executors``), which would pass
    for a kill."""
    return cls()


def _named_test(nodeid: str, *params) -> None:
    """Runs one fixture-free test, ``path::Class::method`` or
    ``path::function``, in-process; ``params`` pick a parametrized case."""
    relpath, *names = nodeid.split("::")
    target = _test_module(relpath)
    for i, name in enumerate(names):
        target = getattr(target, name)
        if i < len(names) - 1 and isinstance(target, type):
            target = _instance(target)
    target(*params)


_ONE_HARDWARE_MODEL = (
    "distributed/test_process_group.py::TestOneHardwareModel"
    "::test_every_collective_span_is_priced_by_the_host_formula"
)

_PASSKV_EXACT = "properties/test_prop_ring.py::TestRingLosslessness::test_passkv_exact_for_any_case"

_FIXED_EXACT = "core/test_ring_skip.py::TestFixedShapeExactness"

_ONE_ROW = "properties/test_prop_flash_fused.py::TestOneRowBaseCase"

_VARLEN = "properties/test_prop_flash_varlen.py"

_SIM_405B = latency.LatencySimulator(llama3_405b_config(), gtt_host())

#: ``tests/core/test_engine.py``'s module model, for its fixture-taking killers.
_TINY_3 = LlamaModel(tiny_config(), seed=3)

CATALOGUE = [
    ("make-room-evicts-once", _make_room_evicts_once,
     functools.partial(_golden_case, "coloc-recompute-prefix-clean")),
    ("younger-than-ignored", _younger_than_ignored,
     functools.partial(_golden_case, "coloc-swap-noprefix-clean")),
    ("oldest-live-evictable", _oldest_live_evictable,
     functools.partial(_named_test, "runtime/test_runtime.py"
                       "::test_sole_decoder_that_cannot_grow_raises_instead_of_livelocking",
                       "swap")),
    ("trim-ignores-adopted-prefix", _trim_ignores_adopted_prefix,
     functools.partial(_named_test, "runtime/test_prefix_cache.py::TestPinning"
                       "::test_trim_respects_shared_prefix_floor")),
    ("fit-drops-oldest-member", _fit_drops_oldest_member,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemption"
                       "::test_capacity_pressure_preempts_and_stays_exact")),
    ("swap-ignores-store-budget", _swap_ignores_store_budget,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemptionModes"
                       "::test_swap_store_capacity_falls_back_to_full_evict")),
    ("full-eviction-before-rung", _full_eviction_before_rung,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemptionModes"
                       "::test_trim_keeps_prefix_resident")),
    ("ring-skip-off-by-one", _ring_skip_off_by_one, functools.partial(_named_test, _PASSKV_EXACT)),
    ("merge-drops-last-partial", _merge_drops_last_partial,
     (functools.partial(_named_test, f"{_FIXED_EXACT}::test_passkv_exact"),
      functools.partial(_named_test, f"{_FIXED_EXACT}::test_passq_exact"))),
    ("passq-skips-by-holder-reach", _passq_skips_by_holder_reach,
     functools.partial(_named_test, "core/test_ring_passq.py::TestShardSkip"
                       "::test_skip_reads_the_travelling_queries_reach")),
    ("decode-slots-off-the-wire", _decode_slots_off_the_wire,
     functools.partial(_named_test, "core/test_ring_decode.py::TestDecodeExactness::test_comm_pattern",
                       np.random.default_rng(7))),
    ("varlen-group-pairs-wrong-run", _varlen_group_pairs_wrong_run,
     functools.partial(_named_test, f"{_VARLEN}::TestSegmentedMatchesMonolithic"
                       "::test_against_one_segment_and_the_reference")),
    ("layout-shape-unchecked", _layout_shape_unchecked,
     functools.partial(_named_test, "attention/test_flash.py::TestFlashEdgeCases"
                       "::test_a_layout_for_another_shape_is_rejected", np.random.default_rng(7), 5, 4)),
    ("like-read-skips-token-set-check", _like_read_skips_token_set_check,
     functools.partial(_named_test, "kvcache/test_cache.py::TestStructureIsSharedAcrossLayers"
                       "::test_a_length_mismatch_at_one_layer_raises")),
    ("replicas-share-unscoped-tracer", _replicas_share_unscoped_tracer,
     functools.partial(_golden_case, "fleet3-disagg-swap-noprefix-clean-round-robin")),
    ("tp-decode-not-derived", _tp_decode_not_derived,
     functools.partial(_named_test, "runtime/test_serve_config.py"
                       "::test_decode_is_tp_priced_exactly_when_disaggregated", 2)),
    ("decode-pool-sized-by-capacity", _decode_pool_sized_by_capacity,
     functools.partial(_named_test, "runtime/test_serve_config.py"
                       "::test_decode_capacity_sizes_only_the_decode_pool")),
    ("bucket-bound-exclusive", _bucket_bound_exclusive,
     functools.partial(_named_test, "serving/test_metrics.py::TestExposition::test_runtime_text")),
    ("replica-label-dropped", _replica_label_dropped,
     functools.partial(_named_test, "serving/test_metrics.py::TestExposition::test_fleet_text")),
    ("round-duration-unchecked", _round_duration_unchecked,
     functools.partial(_named_test, "serving/test_metrics.py::TestServingMetrics"
                       "::test_negative_round_duration_rejected", "prefill_round")),
    ("finish-drops-last-ttit-gap", _finish_drops_last_ttit_gap,
     functools.partial(_named_test, "serving/test_metrics.py::TestFoldTable::test_finish_row")),
    ("peak-kv-keeps-latest", _peak_kv_keeps_latest,
     functools.partial(_named_test, "serving/test_metrics.py::TestServingMetrics"
                       "::test_kv_occupancy_keeps_peak")),
    ("replay-without-labels", _replay_without_labels,
     functools.partial(_named_test, "obs/test_request_timeline.py::TestReconcile"
                       "::test_finish_replays_under_its_labels")),
    ("divergences-first-turn-only", _divergences_first_turn_only,
     functools.partial(_named_test, "workloads/test_replay.py::TestDivergences"
                       "::test_divergence_in_a_later_turn_is_reported")),
    ("divergences-ignores-shed-chain", _divergences_ignores_shed_chain,
     functools.partial(_named_test, "workloads/test_replay.py::TestDivergences"
                       "::test_turn_finishing_after_its_shed_turn_is_reported")),
    ("all2all-without-latency", _all2all_without_latency,
     functools.partial(_named_test, _ONE_HARDWARE_MODEL)),
    ("allgather-single-hop", _allgather_single_hop,
     functools.partial(_named_test, _ONE_HARDWARE_MODEL)),
    ("sendrecv-without-latency", _sendrecv_without_latency,
     functools.partial(_named_test, "perf/test_calibration.py::TestDecodeAnchors"
                       "::test_cp2_whole_passq", _SIM_405B)),
    ("ring-overlap-dropped", _ring_overlap_dropped,
     functools.partial(_named_test, "experiments/test_paper_claims.py"
                       "::test_figure6b_gti_scales_like_gtt_to_4_nodes")),
    ("allreduce-free", _allreduce_free,
     functools.partial(_named_test, "experiments/test_paper_claims.py::test_figure7_tp_plateaus")),
    ("kv-transfer-free", _kv_transfer_free,
     functools.partial(_named_test, "experiments/test_paper_claims.py"
                       "::test_section4_3_disaggregation_breaks_even_after_the_kv_wait")),
    ("shape-decode-unrotated", _shape_decode_unrotated,
     (functools.partial(_named_test, "core/test_engine.py::TestDecode::test_round_robin_balances_decode_kv",
                        _TINY_3),
      functools.partial(_named_test, "runtime/test_golden_traces.py::test_trace_digest_is_unchanged",
                        "coloc-recompute-noprefix-clean"))),
    ("partial-prefill-logits-unshifted", _partial_prefill_logits_unshifted,
     functools.partial(_named_test, "core/test_engine_multiturn.py::TestMultiTurn"
                       "::test_partial_prefill_matches_forward", LlamaModel(tiny_config(), seed=11))),
    ("round-body-skips-nonempty-rank", _round_body_skips_nonempty_rank,
     functools.partial(_named_test, "core/test_engine.py::TestDecode::test_batched_decode", _TINY_3)),
    ("one-row-mask-dropped", _one_row_mask_dropped,
     functools.partial(_named_test, f"{_ONE_ROW}::test_equals_the_shifted_sweep_and_the_reference")),
    ("one-row-range-unchecked", _one_row_range_unchecked,
     functools.partial(_named_test, f"{_ONE_ROW}::test_out_of_range_returns_none_and_the_fallback_answers",
                       np.float64, 800.0)),
    ("blind-rows-by-den", _blind_rows_by_den,
     functools.partial(_named_test, f"{_ONE_ROW}::test_out_of_range_returns_none_and_the_fallback_answers",
                       np.float64, -800.0)),
    ("nan-arrival-admitted", _nan_arrival_admitted,
     functools.partial(_named_test, "runtime/test_runtime.py::test_arrival_must_be_a_finite_time",
                       math.nan)),
    ("fleet-checks-vocab-after-routing", _fleet_checks_vocab_after_routing,
     functools.partial(_named_test, "cluster/test_fleet.py::TestIdsAndStickiness"
                       "::test_out_of_vocabulary_prompt_changes_nothing")),
    ("delivered-payload-thawed", _delivered_payload_thawed,
     functools.partial(_named_test, "distributed/test_process_group.py::TestRingShift::test_no_aliasing")),
    ("deliver-passes-unknown-payload", _deliver_passes_unknown_payload,
     functools.partial(_named_test, "distributed/test_process_group.py::TestRingShift"
                       "::test_a_payload_it_cannot_freeze_is_rejected", False, object)),
    ("plan-accepts-another-length", _plan_accepts_another_length,
     (functools.partial(_named_test, "core/test_ring_decode.py::TestPairLayouts"
                        "::test_a_plan_handed_another_kv_token_count_raises", np.random.default_rng(7)),
      functools.partial(_named_test, "core/test_ring_passkv.py::TestRingPlan"
                        "::test_a_plan_handed_another_token_count_raises", np.random.default_rng(7)))),
    ("resume-resamples-pending-token", _resume_resamples_pending_token,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemption"
                       "::test_forced_preemption_mid_decode_resumes_exactly")),
    ("lent-mark-ignored", _lent_mark_ignored,
     functools.partial(_named_test, "kvcache/test_cache_slab.py::TestReadsAreStable"
                       "::test_trim_then_append_never_changes_a_returned_read")),
    ("tail-trim-off-by-one", _tail_trim_off_by_one,
     functools.partial(_named_test, "kvcache/test_cache.py::TestDropTail"
                       "::test_the_cut_falls_exactly_at_from_pos")),
    ("discard-keeps-store-tokens", _discard_keeps_store_tokens,
     functools.partial(_named_test, "runtime/test_runtime.py::TestPreemptionModes"
                       "::test_a_swap_in_hands_the_store_budget_back")),
    ("transfer-refund-dropped", _transfer_refund_dropped,
     functools.partial(_named_test, "runtime/test_transfer.py::TestKVTransferStream"
                       "::test_cancel_queued_refunds_fully_and_unblocks_successors")),
    ("donor-pin-not-released", _donor_pin_not_released,
     functools.partial(_named_test, "runtime/test_prefix_cache.py::TestPinning"
                       "::test_donor_pinned_for_borrower_lifetime")),
    ("stale-ready-at", _stale_ready_at,
     functools.partial(_named_test, "runtime/test_disaggregated_runtime.py::TestLifecycle"
                       "::test_a_follow_up_turn_waits_for_its_predecessor_to_finish")),
    ("cow-split-skipped", _cow_split_skipped,
     functools.partial(_named_test, "kvcache/test_paged_sharing.py::TestCopyOnWrite"
                       "::test_append_into_shared_partial_block_cows")),
    ("evict-keeps-prefix-anchor", _evict_keeps_prefix_anchor,
     functools.partial(_named_test, "core/test_engine_prefix.py::TestIndexLockstep"
                       "::test_evict_removes_anchor")),
]


@pytest.mark.parametrize(
    ("mutant", "killer"), [entry[1:] for entry in CATALOGUE], ids=[entry[0] for entry in CATALOGUE]
)
def test_seeded_mutant_is_killed(monkeypatch, mutant, killer):
    killers = killer if isinstance(killer, tuple) else (killer,)
    for kill in killers:
        kill()  # passes on the real code, so a broken killer cannot "kill"
    mutant(monkeypatch)
    for kill in killers:
        # an assertion, a pytest failure (``DID NOT RAISE``), or the run itself breaking
        with pytest.raises((Exception, pytest.fail.Exception)):
            kill()

"""Property test: the continuous-batching runtime is exact.

The runtime's continuous batching — fused chunked prefill across
requests, batched decode interleaving, admission control and
capacity-pressure preemption with re-prefill on resume — must change
*scheduling only*: for any replayed multi-session trace, every request's
decoded tokens are identical to replaying its conversation alone,
uninterrupted, through :class:`repro.serving.session.ChatSession`, and
the final logits agree to the library's exactness tolerance. This is the
serving-level face of the paper's "lossless exact" claim.

The disaggregated variant extends the property over deployment shape:
for any prefill/decode pool split (any world sizes), any per-pool
capacities, any transfer schedule and any forced-preemption storm
(including evictions that cancel transfers mid-stream), the decoded
tokens stay identical to sequential replay.

The preemption-remedy variants extend it over *what eviction does*: any
tail-trim schedule (partial eviction, suffix-only re-prefill) and any
CPU-swap schedule (host-store export/import, including host-store
capacity fallbacks and swap-in evictions) must also leave every token
identical — the remedies may change only what an eviction costs.

The prefix-cache variants extend it over *sharing*: with the radix
prefix cache enabled, any schedule of index hits and misses, adoptions
through refcounted copy-on-write paged blocks, LRU evictions of cached
residents, remedy applications against borrowers and donors, pool
splits, and chunk-packing orders (FIFO or SRPF) must still decode every
token identically to sequential replay — reuse changes what a prompt
costs, never what it computes.
"""

import numpy as np
import pytest
from helpers import assert_exact_vs_sequential
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.obs import RecordingTracer
from repro.runtime import (
    ContinuousBatchingRuntime,
    FaultPlan,
    RequestState,
    TurnRequest,
)
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.replay import (
    replay_scripts_sequential,
    submit_scripts_to_runtime,
)

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size
SETTINGS = dict(max_examples=10, deadline=None)


def fresh_engine(world):
    return ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)


@st.composite
def trace_case(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    world = draw(st.sampled_from([1, 2, 3]))
    n_sessions = draw(st.integers(1, 4))
    turns = draw(st.integers(1, 3))
    chunk = draw(st.sampled_from([5, 16, 64]))
    # None = no pressure; small pools force organic preemptions
    capacity = draw(st.sampled_from([None, 96, 144]))
    think = draw(st.sampled_from([0.0, 2.5]))
    gen = WorkloadGenerator(VOCAB, seed=seed)
    scripts = [
        gen.conversation(
            sid,
            turns=turns,
            first_prompt=int(gen.rng.integers(10, 50)),
            followup_range=(4, 12),
            response_range=(2, 5),
        )
        for sid in range(n_sessions)
    ]
    return scripts, world, chunk, capacity, think


@st.composite
def shared_trace_case(draw):
    """Templated shared-prefix traffic: the prefix cache's home turf."""
    seed = draw(st.integers(0, 2**31 - 1))
    world = draw(st.sampled_from([1, 2, 3]))
    templates = draw(st.integers(1, 2))
    conversations = draw(st.integers(2, 5))
    turns = draw(st.integers(1, 2))
    chunk = draw(st.sampled_from([5, 16, 64]))
    # None = no pressure; small pools force LRU cache evictions and
    # organic preemptions of borrowers and donors alike
    capacity = draw(st.sampled_from([None, 96, 144]))
    think = draw(st.sampled_from([0.0, 2.5]))
    order = draw(st.sampled_from(["fifo", "srpf"]))
    gen = WorkloadGenerator(VOCAB, seed=seed)
    scripts = gen.shared_prefix_traffic(
        n_system_prompts=templates,
        n_fewshot_variants=2,
        conversations=conversations,
        system_tokens=int(gen.rng.integers(16, 40)),
        fewshot_tokens=8,
        unique_range=(4, 12),
        turns=turns,
        followup_range=(4, 12),
        response_range=(2, 5),
    )
    return scripts, world, chunk, capacity, think, order


class TestRuntimeExactness:
    @given(trace_case())
    @settings(**SETTINGS)
    def test_tokens_identical_to_sequential_replay(self, case):
        scripts, world, chunk, capacity, think = case
        engine = ContextParallelEngine(MODEL, world_size=world, capacity_tokens=capacity)
        runtime = ContinuousBatchingRuntime(
            engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        report = runtime.run(max_steps=200_000)
        reference = replay_scripts_sequential(lambda: fresh_engine(world), scripts)
        # asserts every request FINISHED and every stream bit-identical
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"capacity={capacity}, chunk={chunk}, "
                    f"preemptions={report.metrics.preemptions}",
        )
        # the trace is fully accounted
        assert len(report.metrics.turns) == sum(s.turns for s in scripts)

    @given(trace_case(), st.integers(1, 6))
    @settings(**SETTINGS)
    def test_forced_preemption_resumes_exactly(self, case, every):
        """Evicting the youngest active request every few steps — far more
        preemption than capacity pressure produces — never changes tokens."""
        scripts, world, chunk, _, think = case
        engine = ContextParallelEngine(MODEL, world_size=world)
        runtime = ContinuousBatchingRuntime(
            engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        steps = 0
        forced = 0
        while runtime.step():
            steps += 1
            if steps > 200_000:
                pytest.fail("runtime did not drain")
            if steps % every == 0 and forced < 25:
                active = [
                    r
                    for r in runtime.report().records.values()
                    if r.state in (RequestState.PREFILL, RequestState.DECODE)
                    and runtime.engine.context_length(r.seq_id) > 0
                ]
                if active:
                    victim = max(active, key=lambda r: (r.request.arrival, r.request_id))
                    runtime.preempt(victim.request_id)
                    forced += 1
        report = runtime.report()
        reference = replay_scripts_sequential(lambda: fresh_engine(world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference, context=f"forced={forced}"
        )

    @given(trace_case(), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]))
    @settings(**SETTINGS)
    def test_disaggregated_pools_identical_to_sequential_replay(self, case, split):
        """Any prefill/decode pool split serves bit-identical tokens."""
        scripts, _world, chunk, capacity, think = case
        world_p, world_d = split
        engine = ContextParallelEngine(MODEL, world_size=world_p)
        decode_engine = ContextParallelEngine(
            MODEL, world_size=world_d, capacity_tokens=capacity
        )
        runtime = ContinuousBatchingRuntime(
            engine,
            decode_engine=decode_engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        report = runtime.run(max_steps=200_000)
        reference = replay_scripts_sequential(lambda: fresh_engine(world_p), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"split={split}, capacity={capacity}, chunk={chunk}, "
                    f"preemptions={report.metrics.preemptions}, "
                    f"refusals={report.metrics.transfer_refusals}",
        )
        # every prompt token crossed the wire exactly once per (re)transfer
        assert report.metrics.transfers >= sum(s.turns for s in scripts) - sum(
            1 for s in scripts for b in s.response_budgets if b == 0
        )

    @given(trace_case(), st.sampled_from([(1, 2), (2, 1), (2, 2)]), st.integers(1, 6))
    @settings(**SETTINGS)
    def test_disaggregated_forced_preemption_storm(self, case, split, every):
        """Evicting the youngest active request every few steps — from
        either pool, cancelling transfers mid-stream — never changes
        tokens."""
        scripts, _world, chunk, _, think = case
        world_p, world_d = split
        engine = ContextParallelEngine(MODEL, world_size=world_p)
        decode_engine = ContextParallelEngine(MODEL, world_size=world_d)
        runtime = ContinuousBatchingRuntime(
            engine,
            decode_engine=decode_engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        steps = 0
        forced = 0
        active_states = (
            RequestState.PREFILL, RequestState.KV_TRANSFER, RequestState.DECODE
        )
        while runtime.step():
            steps += 1
            if steps > 200_000:
                pytest.fail("runtime did not drain")
            if steps % every == 0 and forced < 25:
                active = [
                    r
                    for r in runtime.report().records.values()
                    if r.state in active_states
                    and (
                        runtime.engine.context_length(r.seq_id) > 0
                        or runtime.decode_engine.context_length(r.seq_id) > 0
                    )
                ]
                if active:
                    victim = max(active, key=lambda r: (r.request.arrival, r.request_id))
                    runtime.preempt(victim.request_id)
                    forced += 1
        report = runtime.report()
        reference = replay_scripts_sequential(lambda: fresh_engine(world_d), scripts)
        assert_exact_vs_sequential(
            report, rids, reference, context=f"split={split}, forced={forced}"
        )

    @given(trace_case(), st.sampled_from(["trim", "swap"]))
    @settings(**SETTINGS)
    def test_preemption_remedies_identical_to_sequential_replay(self, case, mode):
        """Organic capacity pressure under tail-trim / CPU-swap remedies
        never changes tokens."""
        scripts, world, chunk, capacity, think = case
        engine = ContextParallelEngine(MODEL, world_size=world, capacity_tokens=capacity)
        runtime = ContinuousBatchingRuntime(
            engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
            preemption=mode,
            # a tight host store exercises the swap->full-evict fallback
            swap_capacity_tokens=256 if mode == "swap" else None,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        report = runtime.run(max_steps=200_000)
        reference = replay_scripts_sequential(lambda: fresh_engine(world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"mode={mode}, capacity={capacity}, "
                    f"trims={report.metrics.trims}, "
                    f"swaps={report.metrics.swaps_out}, "
                    f"full evicts={report.metrics.preemptions}",
        )
        assert report.metrics.swaps_in == report.metrics.swaps_out

    @given(trace_case(), st.sampled_from(["trim", "swap"]), st.integers(1, 6))
    @settings(**SETTINGS)
    def test_forced_eviction_storm_with_remedies(self, case, mode, every):
        """A forced-eviction storm resolved by tail-trims / CPU swaps —
        far more remedy applications than capacity pressure produces —
        never changes tokens (the ``--preemption swap`` bit-check)."""
        scripts, world, chunk, _, think = case
        engine = ContextParallelEngine(MODEL, world_size=world)
        runtime = ContinuousBatchingRuntime(
            engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
            preemption=mode,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        steps = 0
        forced = 0
        while runtime.step():
            steps += 1
            if steps > 200_000:
                pytest.fail("runtime did not drain")
            if steps % every == 0 and forced < 25:
                active = [
                    r
                    for r in runtime.report().records.values()
                    if r.state in (RequestState.PREFILL, RequestState.DECODE)
                    and runtime.engine.context_length(r.seq_id) > 0
                ]
                if active:
                    victim = max(active, key=lambda r: (r.request.arrival, r.request_id))
                    runtime.preempt(victim.request_id)
                    forced += 1
        report = runtime.report()
        if forced:
            # every forced preempt applied exactly one remedy: the mode's
            # (trim/swap), or its full-evict fallback on tiny contexts
            m = report.metrics
            assert m.trims + m.swaps_out + m.preemptions >= forced
        reference = replay_scripts_sequential(lambda: fresh_engine(world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference, context=f"mode={mode}, forced={forced}"
        )

    @given(
        trace_case(),
        st.sampled_from([(1, 2), (2, 1), (2, 2)]),
        st.sampled_from(["trim", "swap"]),
        st.integers(2, 5),
    )
    @settings(**SETTINGS)
    def test_disaggregated_storm_with_remedies(self, case, split, mode, every):
        """Remedy storms across disaggregated pools (decode-pool trims
        reship deltas, decode-pool swaps skip the wire entirely) never
        change tokens."""
        scripts, _world, chunk, _, think = case
        world_p, world_d = split
        engine = ContextParallelEngine(MODEL, world_size=world_p)
        decode_engine = ContextParallelEngine(MODEL, world_size=world_d)
        runtime = ContinuousBatchingRuntime(
            engine,
            decode_engine=decode_engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk, max_seqs_per_round=4
            ),
            preemption=mode,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        steps = 0
        forced = 0
        active_states = (
            RequestState.PREFILL, RequestState.KV_TRANSFER, RequestState.DECODE
        )
        while runtime.step():
            steps += 1
            if steps > 200_000:
                pytest.fail("runtime did not drain")
            if steps % every == 0 and forced < 25:
                active = [
                    r
                    for r in runtime.report().records.values()
                    if r.state in active_states
                    and (
                        runtime.engine.context_length(r.seq_id) > 0
                        or runtime.decode_engine.context_length(r.seq_id) > 0
                    )
                ]
                if active:
                    victim = max(active, key=lambda r: (r.request.arrival, r.request_id))
                    runtime.preempt(victim.request_id)
                    forced += 1
        report = runtime.report()
        reference = replay_scripts_sequential(lambda: fresh_engine(world_d), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"split={split}, mode={mode}, forced={forced}",
        )

    @given(shared_trace_case(), st.sampled_from(["recompute", "trim", "swap"]))
    @settings(**SETTINGS)
    def test_prefix_cache_identical_to_sequential_replay(self, case, mode):
        """Shared-prefix traffic through the radix prefix cache — any
        hit/miss/adoption/LRU-eviction schedule under any preemption
        remedy and packing order — decodes bit-identical tokens."""
        scripts, world, chunk, capacity, think, order = case
        engine = ContextParallelEngine(MODEL, world_size=world, capacity_tokens=capacity)
        runtime = ContinuousBatchingRuntime(
            engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk,
                max_seqs_per_round=4, order=order,
            ),
            preemption=mode,
            prefix_cache=True,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        report = runtime.run(max_steps=200_000)
        reference = replay_scripts_sequential(lambda: fresh_engine(world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"capacity={capacity}, chunk={chunk}, mode={mode}, "
                    f"order={order}, hits={report.metrics.prefix_hits}, "
                    f"prefix evictions={report.metrics.prefix_evictions}, "
                    f"preemptions={report.metrics.preemptions}",
        )
        # reuse accounting is internally consistent
        m = report.metrics
        assert m.prefix_hits + m.prefix_misses >= len(scripts) or capacity is not None
        if m.prefix_hits:
            assert m.prefix_reused_tokens >= m.prefix_hits

    @given(shared_trace_case(), st.sampled_from([(1, 2), (2, 1), (2, 2)]))
    @settings(**SETTINGS)
    def test_prefix_cache_disaggregated_identical(self, case, split):
        """Prefix cache on the prefill pool of any disaggregated split:
        retained residents, delta-only reshipping and index adoptions
        never change tokens."""
        scripts, _world, chunk, capacity, think, order = case
        world_p, world_d = split
        engine = ContextParallelEngine(MODEL, world_size=world_p, capacity_tokens=capacity)
        decode_engine = ContextParallelEngine(MODEL, world_size=world_d)
        runtime = ContinuousBatchingRuntime(
            engine,
            decode_engine=decode_engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk,
                max_seqs_per_round=4, order=order,
            ),
            prefix_cache=True,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        report = runtime.run(max_steps=200_000)
        reference = replay_scripts_sequential(lambda: fresh_engine(world_p), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"split={split}, capacity={capacity}, chunk={chunk}, "
                    f"hits={report.metrics.prefix_hits}",
        )

    @given(shared_trace_case(), st.sampled_from(["recompute", "trim", "swap"]), st.integers(1, 6))
    @settings(**SETTINGS)
    def test_prefix_cache_forced_eviction_storm(self, case, mode, every):
        """A forced-eviction storm over shared-prefix traffic — donors
        and borrowers evicted mid-flight, copy-on-write splits, pinned
        prefixes dropped as last resort — never changes tokens."""
        scripts, world, chunk, _, think, order = case
        engine = ContextParallelEngine(MODEL, world_size=world)
        runtime = ContinuousBatchingRuntime(
            engine,
            policy=ChunkedPrefillPolicy(
                chunk_tokens=chunk, max_tokens_per_round=2 * chunk,
                max_seqs_per_round=4, order=order,
            ),
            preemption=mode,
            prefix_cache=True,
        )
        rids = submit_scripts_to_runtime(runtime, scripts, think_time_s=think)
        steps = 0
        forced = 0
        while runtime.step():
            steps += 1
            if steps > 200_000:
                pytest.fail("runtime did not drain")
            if steps % every == 0 and forced < 25:
                active = [
                    r
                    for r in runtime.report().records.values()
                    if r.state in (RequestState.PREFILL, RequestState.DECODE)
                    and runtime.engine.context_length(r.seq_id) > 0
                ]
                if active:
                    victim = max(active, key=lambda r: (r.request.arrival, r.request_id))
                    runtime.preempt(victim.request_id)
                    forced += 1
        report = runtime.report()
        reference = replay_scripts_sequential(lambda: fresh_engine(world), scripts)
        assert_exact_vs_sequential(
            report, rids, reference,
            context=f"mode={mode}, order={order}, forced={forced}",
        )

    def test_final_logits_match_sequential(self):
        """Beyond token ids: the last decode logits of a batched, chunked,
        preempted run agree numerically with the sequential run."""
        world, budget = 2, 5
        gen = WorkloadGenerator(VOCAB, seed=7)
        prompt = gen.prompt(40)

        runtime = ContinuousBatchingRuntime(
            ContextParallelEngine(MODEL, world_size=world),
            policy=ChunkedPrefillPolicy(chunk_tokens=8, max_tokens_per_round=16),
        )
        rid = runtime.submit(
            TurnRequest(
                request_id=-1, seq_id=0, prompt=prompt, max_new_tokens=budget,
                last_turn=False,
            )
        )
        preempted = False
        while runtime.step():
            rec = runtime.report().records[rid]
            if not preempted and rec.state is RequestState.DECODE and len(rec.generated) == 2:
                runtime.preempt(rid)
                preempted = True
        assert preempted
        generated = runtime.report().generated(rid)

        engine = fresh_engine(world)
        out = engine.prefill({0: prompt})
        logits = out.last_logits(0)
        seq_tokens = []
        for _ in range(budget):
            tok = int(np.argmax(logits))
            seq_tokens.append(tok)
            logits = engine.decode({0: tok}).logits[0]
        assert generated == seq_tokens

        # replay the final committed context through both engines: the
        # runtime's engine must hold a cache state producing the same
        # next-token logits as the sequential engine
        probe = np.array([1, 2, 3], dtype=np.int64)
        a = runtime.engine.prefill({0: probe}).last_logits(0)
        b = engine.prefill({0: probe}).last_logits(0)
        np.testing.assert_allclose(a, b, atol=1e-9, rtol=0)


# --------------------------------------------------------------------------- #
# arrival-ordered admission == the scan it replaced
# --------------------------------------------------------------------------- #
# `_admit` used to sort `_waiting` and probe every head on every call; it now
# pops a heap of (arrival, seq_id). The property: whatever a call handles
# (admits or sheds), in the order the trace shows it, is exactly what that
# scan would have handled — ascending seq_id over the heads due by the prefill
# clock. (The 32 golden digests pin the same thing on fixed schedules; this
# says which property they were pinning.)


class ScanCheckedRuntime(ContinuousBatchingRuntime):
    """Checks every `_admit` call against the scan, computed independently
    of the heap from `_waiting` and the chain heads."""

    admit_calls_with_work = 0

    def __init__(self, engine, **kwargs):
        self.recorder = RecordingTracer()  # the runtime emits through a stream over it
        super().__init__(engine, tracer=self.recorder, **kwargs)

    def _admit(self):
        now = self._pools["prefill"].t
        due = [
            seq_id
            for seq_id in sorted(self._waiting)
            if self._records[self._chains[seq_id][0]].request.arrival <= now
        ]
        seen = len(self.recorder.events)
        super()._admit()
        handled = []
        for event in self.recorder.events[seen:]:
            # a shed chain emits one `shed` per cascaded turn: one conversation
            if event.name in ("admit", "shed") and handled[-1:] != [event.seq_id]:
                handled.append(event.seq_id)
        assert handled == due, f"admitted/shed {handled}, the scan handles {due} at t={now}"
        assert not self._waiting.intersection(due)
        self.admit_calls_with_work += bool(due)


def check_admission_equals_scan(arrivals, turns, think, depth):
    """`arrivals[i]` is conversation i's first arrival; its seq_id is chosen
    so that seq_id order and arrival order disagree."""
    gen = WorkloadGenerator(VOCAB, seed=len(arrivals))
    runtime = ScanCheckedRuntime(
        ContextParallelEngine(MODEL, world_size=1),
        policy=ChunkedPrefillPolicy(chunk_tokens=8, max_tokens_per_round=16, max_seqs_per_round=2),
        faults=FaultPlan(seed=0, max_queue_depth=depth) if depth else None,
    )
    n = len(arrivals)
    for i, arrival in enumerate(arrivals):
        script = gen.conversation(
            (7 * (n - i)) % 23, turns=turns, first_prompt=6, followup_range=(2, 4),
            response_range=(1, 2),
        )
        runtime.submit_script(script, arrival=arrival, think_time=think)
    report = runtime.run(max_steps=50_000)
    assert set(report.statuses()) <= {"finished", "shed"}
    assert runtime.admit_calls_with_work > 0
    if not depth:
        assert report.statuses() == {"finished": n * turns}
    return report.statuses()


class TestArrivalOrderedAdmission:
    def test_fixed_schedule_with_followups_and_shedding(self):
        """The property's hard corner, pinned: tied arrivals over a queue
        cap of one shed whole chains while follow-up turns re-enter."""
        statuses = check_admission_equals_scan([0.0, 0.0, 0.0, 1.0, 1.0, 4.0], 2, 0.25, 1)
        assert statuses.get("shed", 0) >= 2 and statuses.get("finished", 0) >= 2

    @given(
        st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 4.0, 9.5]), min_size=2, max_size=7),
        st.integers(1, 3),
        st.sampled_from([0.0, 0.25, 6.0]),
        st.sampled_from([None, 1, 2]),
    )
    @settings(**SETTINGS)
    def test_admit_and_shed_order_equals_the_scans(self, arrivals, turns, think, depth):
        check_admission_equals_scan(arrivals, turns, think, depth)

    def test_mutant_heap_keyed_on_seq_id_first_dies(self, monkeypatch):
        """Ordered by (seq_id, arrival), the lowest seq_id hides every
        conversation that is due before it."""
        import repro.runtime.runtime as runtime_module

        class SeqFirstHeap:
            @staticmethod
            def heappush(heap, item):
                heap.append(item)
                heap.sort(key=lambda entry: (entry[1], entry[0]))

            @staticmethod
            def heappop(heap):
                return heap.pop(0)

        case = ([0.0, 0.0, 5.0], 2, 0.25, None)  # seq_ids 21, 14, 7: the late one is lowest
        check_admission_equals_scan(*case)
        monkeypatch.setattr(runtime_module, "heapq", SeqFirstHeap)
        with pytest.raises(AssertionError, match="the scan handles"):
            check_admission_equals_scan(*case)

    def test_reads_per_admit_do_not_grow_with_waiting_conversations(self):
        """Scaling guard: a call with one conversation due reads the same
        number of records whether 4 or 64 others are waiting for a later
        arrival (the scan read every head on every call)."""

        class CountingDict(dict):
            reads = 0

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

        def reads_with(not_yet_due):
            runtime = ContinuousBatchingRuntime(ContextParallelEngine(MODEL, world_size=1))
            prompt = np.arange(4, dtype=np.int64)
            for i in range(not_yet_due + 1):
                runtime.submit(
                    TurnRequest(
                        request_id=-1, seq_id=i, prompt=prompt, max_new_tokens=1,
                        arrival=0.0 if i == 0 else 100.0 + i,
                    )
                )
            runtime._records = CountingDict(runtime._records)
            runtime._admit()
            assert runtime.queue_depth() == not_yet_due + 1  # one in the FIFO, rest waiting
            assert len(runtime._prefill_queue) == 1
            return runtime._records.reads

        assert reads_with(4) == reads_with(64)

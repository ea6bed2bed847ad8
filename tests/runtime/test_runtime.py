"""Tests for the continuous-batching serving runtime.

Covers the per-request state machine, chunked prefill, decode
interleaving, admission timing, capacity-pressure preemption with exact
resume, idle-conversation eviction, and the streaming metrics. The
full runtime-vs-sequential exactness property lives in
``tests/properties/test_prop_runtime.py``.
"""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import (
    ContinuousBatchingRuntime,
    RequestState,
    TurnRequest,
    UnitStepClock,
)
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.serving.session import ChatSession
from repro.workloads.generator import WorkloadGenerator

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size


def make_runtime(*, world=2, capacity=None, chunk=16, round_budget=32, seqs=4, **kw):
    engine = ContextParallelEngine(MODEL, world_size=world, capacity_tokens=capacity)
    return ContinuousBatchingRuntime(
        engine,
        policy=ChunkedPrefillPolicy(
            chunk_tokens=chunk, max_tokens_per_round=round_budget, max_seqs_per_round=seqs
        ),
        **kw,
    )


def prompt(n, seed=0):
    return (np.arange(n) * 7 + seed) % VOCAB


def sequential_tokens(prompt_ids, budget, *, world=2):
    engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)
    return list(ChatSession(engine, 0).send(prompt_ids, max_new_tokens=budget).generated)


class TestLifecycle:
    def test_single_request_runs_to_completion(self):
        rt = make_runtime()
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=5))
        report = rt.run(max_steps=1000)
        rec = report.records[rid]
        assert rec.state is RequestState.FINISHED
        assert len(rec.generated) == 5
        assert rec.first_token_at is not None
        assert rec.finished_at >= rec.first_token_at
        # 40 tokens at chunk 16 => 3 prefill rounds; 5 decode rounds
        assert report.prefill_rounds == 3
        assert report.decode_rounds == 5

    def test_tokens_match_sequential(self):
        rt = make_runtime()
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=6))
        report = rt.run(max_steps=1000)
        assert report.generated(rid) == sequential_tokens(prompt(40), 6)

    def test_zero_budget_turn_finishes_at_prefill(self):
        rt = make_runtime()
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=0))
        report = rt.run(max_steps=100)
        rec = report.records[rid]
        assert rec.state is RequestState.FINISHED
        assert rec.generated == []
        assert rec.first_token_at is None
        assert report.decode_rounds == 0

    def test_kv_released_after_last_turn(self):
        rt = make_runtime()
        rt.submit(TurnRequest(request_id=-1, seq_id=7, prompt=prompt(20), max_new_tokens=3))
        rt.run(max_steps=1000)
        assert rt.engine.context_length(7) == 0

    def test_kv_kept_when_not_last_turn(self):
        rt = make_runtime()
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=7, prompt=prompt(20), max_new_tokens=3, last_turn=False
            )
        )
        rt.run(max_steps=1000)
        assert rt.engine.context_length(7) == 23

    def test_step_false_when_idle(self):
        rt = make_runtime()
        assert rt.step() is False

    def test_duplicate_request_id_rejected(self):
        rt = make_runtime()
        rt.submit(TurnRequest(request_id=3, seq_id=0, prompt=prompt(4), max_new_tokens=0))
        with pytest.raises(ValueError):
            rt.submit(TurnRequest(request_id=3, seq_id=1, prompt=prompt(4), max_new_tokens=0))

    def test_request_validation(self):
        with pytest.raises(ValueError):
            TurnRequest(request_id=0, seq_id=0, prompt=np.zeros(0), max_new_tokens=0)
        with pytest.raises(ValueError):
            TurnRequest(request_id=0, seq_id=0, prompt=prompt(4), max_new_tokens=-1)
        with pytest.raises(ValueError):
            TurnRequest(request_id=0, seq_id=0, prompt=prompt(4), max_new_tokens=0, arrival=-1.0)
        with pytest.raises(ValueError):
            ContinuousBatchingRuntime(
                ContextParallelEngine(MODEL, world_size=2), max_prefill_rounds_per_decode=0
            )


class TestContinuousBatching:
    def test_prefill_chunks_interleave_with_decode(self):
        """While one long prompt prefills in chunks, an already-decoding
        request keeps streaming tokens between the chunks."""
        rt = make_runtime(chunk=8, round_budget=8)
        short = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=8))
        long_ = rt.submit(
            TurnRequest(request_id=-1, seq_id=1, prompt=prompt(64, seed=3), max_new_tokens=2)
        )
        report = rt.run(max_steps=1000)
        short_rec, long_rec = report.records[short], report.records[long_]
        # the short request finished its first token before the long
        # prompt's prefill completed
        assert short_rec.first_token_at < long_rec.first_token_at
        # and its decode stream was not starved until the long prefill
        # ended: its last token arrived before the long request's first
        assert short_rec.token_times[-1] < long_rec.first_token_at

    def test_fused_round_batches_multiple_prompts(self):
        rt = make_runtime(chunk=16, round_budget=64)
        for sid in range(4):
            rt.submit(
                TurnRequest(
                    request_id=-1, seq_id=sid, prompt=prompt(16, seed=sid), max_new_tokens=0
                )
            )
        report = rt.run(max_steps=100)
        assert report.prefill_rounds == 1  # all four prompts fused

    def test_decode_rounds_batch_all_decoders(self):
        rt = make_runtime(chunk=32, round_budget=64)
        for sid in range(3):
            rt.submit(
                TurnRequest(
                    request_id=-1, seq_id=sid, prompt=prompt(8, seed=sid), max_new_tokens=4
                )
            )
        report = rt.run(max_steps=1000)
        # 1 fused prefill + 4 batched decode rounds (all sequences together)
        assert report.decode_rounds == 4

    def test_arrival_times_respected(self):
        rt = make_runtime(clock=UnitStepClock())
        early = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=1)
        )
        late = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1, prompt=prompt(8, seed=1), max_new_tokens=1,
                arrival=50.0,
            )
        )
        report = rt.run(max_steps=1000)
        assert report.records[early].finished_at < 50.0
        assert report.records[late].admitted_at >= 50.0

    def test_turn_chain_waits_for_predecessor(self):
        rt = make_runtime()
        first = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=0, prompt=prompt(24), max_new_tokens=4, last_turn=False
            )
        )
        second = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8, seed=2), max_new_tokens=2)
        )
        report = rt.run(max_steps=1000)
        r1, r2 = report.records[first], report.records[second]
        assert r1.finished_at <= r2.admitted_at
        # the follow-up turn saw the whole first turn as cached context
        assert r2.cached_at_start == 24 + 4

    def test_multi_turn_matches_chat_session(self):
        gen = WorkloadGenerator(VOCAB, seed=9)
        script = gen.conversation(0, turns=3, first_prompt=30)
        rt = make_runtime()
        rids = rt.submit_script(script, think_time=3.0)
        report = rt.run(max_steps=2000)

        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)


class TestPreemption:
    def test_capacity_pressure_preempts_and_stays_exact(self):
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = make_runtime(capacity=80)
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=100_000)
        assert report.metrics.preemptions > 0
        assert report.metrics.evicted_tokens > 0
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_forced_preemption_mid_decode_resumes_exactly(self):
        rt = make_runtime()
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=8))
        preempted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not preempted and rec.state is RequestState.DECODE and len(rec.generated) == 4:
                rt.preempt(rid)
                preempted = True
                assert rt.engine.context_length(0) == 0
        assert preempted
        report = rt.report()
        assert report.records[rid].preemptions == 1
        assert report.metrics.preemptions == 1
        assert report.generated(rid) == sequential_tokens(prompt(40), 8)

    def test_forced_preemption_mid_prefill_resumes_exactly(self):
        rt = make_runtime(chunk=8, round_budget=8)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=4))
        preempted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not preempted and rec.state is RequestState.PREFILL and rec.prefill_done >= 16:
                rt.preempt(rid)
                preempted = True
        assert preempted
        assert rt.report().generated(rid) == sequential_tokens(prompt(40), 4)

    def test_preempt_requires_active_request(self):
        rt = make_runtime()
        rid = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=0, arrival=9.0)
        )
        with pytest.raises(ValueError):
            rt.preempt(rid)  # still QUEUED

    def test_idle_conversation_evicted_under_pressure(self):
        """A conversation waiting between turns loses its KV before any
        active request is preempted, and still resumes exactly."""
        rt = make_runtime(capacity=64)
        gen = WorkloadGenerator(VOCAB, seed=2)
        script = gen.conversation(0, turns=2, first_prompt=30, response_range=(3, 3))
        rids = rt.submit_script(script, think_time=500.0)  # long idle gap
        crowd = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=99, prompt=prompt(90, seed=4), max_new_tokens=2,
                arrival=20.0,
            )
        )
        report = rt.run(max_steps=100_000)
        assert report.metrics.preemptions > 0
        assert report.records[crowd].state is RequestState.FINISHED
        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_capacity_too_small_raises(self):
        rt = make_runtime(capacity=16, chunk=8, round_budget=8)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(64), max_new_tokens=2))
        # the failure carries its evidence: requests per state and the
        # pool's clock, holders and occupancy
        with pytest.raises(
            RuntimeError,
            match=r"capacity.*states: \{'prefill': 1\}; prefill pool: t=4, 1 holders, KV 100%",
        ):
            rt.run(max_steps=100_000)

    def test_sole_decoder_yields_pool_to_older_request(self):
        """Regression: when the only decoding request is the youngest KV
        holder and an older request needs the space, the decoder is
        preempted (and resumes exactly) instead of the runtime declaring
        the pool exhausted — each conversation fits capacity alone."""
        rt = make_runtime(world=1, capacity=96, chunk=8, round_budget=16)
        old = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(80), max_new_tokens=4)
        )
        young = rt.submit(
            TurnRequest(request_id=-1, seq_id=1, prompt=prompt(8, seed=1), max_new_tokens=40)
        )
        report = rt.run(max_steps=100_000)
        assert report.metrics.preemptions > 0
        assert report.generated(old) == sequential_tokens(prompt(80), 4, world=1)
        assert report.generated(young) == sequential_tokens(prompt(8, seed=1), 40, world=1)


class TestPreemptionModes:
    """Tail-trim and CPU-swap remedies: cheaper than recompute, never
    different tokens."""

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="preemption"):
            make_runtime(preemption="hibernate")
        with pytest.raises(ValueError, match="swap_capacity"):
            make_runtime(preemption="trim", swap_capacity_tokens=100)
        with pytest.raises(ValueError, match="swap_capacity"):
            make_runtime(preemption="swap", swap_capacity_tokens=-1)

    def test_trim_keeps_prefix_resident(self):
        """A trimmed decode victim keeps a KV prefix and re-prefills only
        the dropped suffix — exactly."""
        rt = make_runtime(preemption="trim")
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=8))
        trimmed = False
        while rt.step():
            rec = rt.report().records[rid]
            if not trimmed and rec.state is RequestState.DECODE and len(rec.generated) == 4:
                before = rt.engine.context_length(0)
                rt.preempt(rid)
                after = rt.engine.context_length(0)
                assert 0 < after < before
                assert rec.prefill_done == after
                trimmed = True
        assert trimmed
        report = rt.report()
        assert report.metrics.trims == 1
        assert report.metrics.trimmed_kv_tokens > 0
        assert report.metrics.preemptions == 0  # remedy applied, no full evict
        assert report.generated(rid) == sequential_tokens(prompt(40), 8)

    def test_trim_under_capacity_pressure_stays_exact(self):
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = make_runtime(capacity=80, preemption="trim")
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=100_000)
        assert report.metrics.trims > 0
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_trimmed_idle_conversation_resumes_from_prefix(self):
        """An idle conversation trimmed between turns re-prefills only
        the trimmed suffix when its next turn admits."""
        rt = make_runtime(capacity=64, preemption="trim")
        gen = WorkloadGenerator(VOCAB, seed=2)
        script = gen.conversation(0, turns=2, first_prompt=30, response_range=(3, 3))
        rids = rt.submit_script(script, think_time=500.0)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=99, prompt=prompt(90, seed=4), max_new_tokens=2,
                arrival=20.0,
            )
        )
        report = rt.run(max_steps=100_000)
        assert report.metrics.trims > 0
        turn2 = report.records[rids[1]]
        # the resident prefix counted as cached when turn 2 started
        assert 0 < turn2.cached_at_start
        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_swap_decode_victim_resumes_without_recompute(self):
        """A swapped decode victim goes SWAPPED, swaps back in, and
        resumes decoding directly — zero extra prefill rounds."""
        rt = make_runtime(preemption="swap")
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=8))
        swapped = False
        while rt.step():
            rec = rt.report().records[rid]
            if not swapped and rec.state is RequestState.DECODE and len(rec.generated) == 4:
                rt.preempt(rid)
                assert rec.state is RequestState.SWAPPED
                assert rt.engine.context_length(0) == 0
                swapped = True
        assert swapped
        report = rt.report()
        m = report.metrics
        assert m.swaps_out == 1 and m.swaps_in == 1
        assert m.swapped_out_tokens == m.swapped_in_tokens > 0
        assert m.preemptions == 0
        assert report.generated(rid) == sequential_tokens(prompt(40), 8)
        # no re-prefill happened: same prefill rounds as an undisturbed run
        undisturbed = make_runtime()
        undisturbed.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=8)
        )
        assert report.prefill_rounds == undisturbed.run(max_steps=10_000).prefill_rounds

    def test_swap_mid_prefill_resumes_exactly(self):
        rt = make_runtime(chunk=8, round_budget=8, preemption="swap")
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=4))
        swapped = False
        while rt.step():
            rec = rt.report().records[rid]
            if not swapped and rec.state is RequestState.PREFILL and rec.prefill_done >= 16:
                rt.preempt(rid)
                assert rec.state is RequestState.SWAPPED
                swapped = True
        assert swapped
        assert rt.report().generated(rid) == sequential_tokens(prompt(40), 4)

    def test_swap_store_capacity_falls_back_to_full_evict(self):
        """A host store too small for the victim declines the swap; the
        eviction degrades to recompute and stays exact."""
        rt = make_runtime(preemption="swap", swap_capacity_tokens=4)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=6))
        forced = False
        while rt.step():
            rec = rt.report().records[rid]
            if not forced and rec.state is RequestState.DECODE and len(rec.generated) == 2:
                rt.preempt(rid)
                assert rec.state is RequestState.PREEMPTED  # not SWAPPED
                forced = True
        assert forced
        report = rt.report()
        assert report.metrics.swaps_out == 0
        assert report.metrics.preemptions == 1
        assert report.generated(rid) == sequential_tokens(prompt(40), 6)

    def test_swapped_idle_conversation_restored_for_next_turn(self):
        """An idle conversation swapped out between turns swaps back in
        when its next turn arrives — the history is never recomputed."""
        rt = make_runtime(capacity=64, preemption="swap")
        gen = WorkloadGenerator(VOCAB, seed=2)
        script = gen.conversation(0, turns=2, first_prompt=30, response_range=(3, 3))
        rids = rt.submit_script(script, think_time=500.0)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=99, prompt=prompt(90, seed=4), max_new_tokens=2,
                arrival=20.0,
            )
        )
        report = rt.run(max_steps=100_000)
        m = report.metrics
        assert m.swaps_out >= 1 and m.swaps_in == m.swaps_out
        turn2 = report.records[rids[1]]
        # the whole history counted as cached: restored, not re-prefilled
        assert turn2.cached_at_start == 30 + 3
        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_swap_under_capacity_pressure_stays_exact(self):
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = make_runtime(capacity=80, preemption="swap", swap_capacity_tokens=400)
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=100_000)
        assert report.metrics.swaps_out > 0
        assert report.metrics.swaps_in == report.metrics.swaps_out
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_swap_cost_priced_by_clock(self):
        """Swap-out + swap-in each stall the pool by the clock's price."""
        clock = UnitStepClock(swap_cost=5.0)
        rt = make_runtime(preemption="swap", clock=clock)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(24), max_new_tokens=6))
        swapped = False
        while rt.step():
            rec = rt.report().records[rid]
            if not swapped and rec.state is RequestState.DECODE and len(rec.generated) == 2:
                before = rt.now
                rt.preempt(rid)
                assert rt.now == pytest.approx(before + 5.0)
                swapped = True
        assert swapped
        assert rt.report().metrics.swap_stall_s == pytest.approx(10.0)


class TestRouterProbes:
    def test_queued_tokens_memo_follows_submit_step_and_preempt(self):
        """The router's load probe is memoised; every call that can change
        it (submit, step, preempt) must leave the next read equal to a
        recount. Each assertion below kills dropping one of the resets."""
        rt = make_runtime(chunk=8, round_budget=8)

        def recount():
            rt._queued_tokens = None
            return rt.queued_tokens()

        assert rt.queued_tokens() == 0
        first = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=2))
        assert rt.queued_tokens() == 40  # submit
        rt.submit(TurnRequest(request_id=-1, seq_id=1, prompt=prompt(24, seed=3), max_new_tokens=2))
        assert rt.queued_tokens() == 64
        seen = {64}
        while rt.report().records[first].prefill_done < 16:
            rt.step()
            probe = rt.queued_tokens()
            assert probe == recount()  # step
            seen.add(probe)
        assert len(seen) > 1, "the probe never moved: the loop proved nothing"
        before = rt.queued_tokens()
        rt.preempt(first)
        assert rt.queued_tokens() == recount() != before  # preempt
        rt.run(max_steps=1000)
        assert rt.queued_tokens() == recount() == 0


class TestMetricsAndClock:
    def test_unit_clock_timing(self):
        rt = make_runtime(clock=UnitStepClock(prefill_cost=2.0, decode_cost=1.0))
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(32), max_new_tokens=3))
        report = rt.run(max_steps=1000)
        # 2 prefill rounds * 2.0 + 3 decode rounds * 1.0
        assert report.makespan == pytest.approx(7.0)
        rec = next(iter(report.records.values()))
        assert rec.first_token_at == pytest.approx(4.0)
        assert rec.ttit_samples() == pytest.approx([1.0, 1.0])

    def test_streaming_metrics_recorded(self):
        rt = make_runtime()
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(16), max_new_tokens=4))
        report = rt.run(max_steps=1000)
        m = report.metrics
        assert len(m.ttft_samples) == 1
        assert len(m.ttit_samples) == 3
        assert m.total_generated_tokens == 4
        assert report.tokens_per_second() > 0

    def test_turn_records_carry_cache_state(self):
        rt = make_runtime()
        gen = WorkloadGenerator(VOCAB, seed=1)
        rt.submit_script(gen.conversation(0, turns=2, first_prompt=20))
        report = rt.run(max_steps=1000)
        first, second = report.metrics.turns
        assert first.cached_tokens == 0
        assert second.cached_tokens > 0
        assert 0 < second.miss_rate < 1

    def test_state_counts(self):
        rt = make_runtime()
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=1))
        assert rt.state_counts() == {"queued": 1}
        rt.run(max_steps=100)
        assert rt.state_counts() == {"finished": 1}

"""Tests for the continuous-batching serving runtime.

Covers the per-request state machine, chunked prefill, decode
interleaving, admission timing, capacity-pressure preemption with exact
resume, idle-conversation eviction, and the streaming metrics. The
full runtime-vs-sequential exactness property lives in
``tests/properties/test_prop_runtime.py``.
"""

import math

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.runtime import (
    ContinuousBatchingRuntime,
    RequestState,
    ServeConfig,
    TurnRequest,
    UnitStepClock,
)
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.serving.session import ChatSession
from repro.workloads.generator import WorkloadGenerator

MODEL = LlamaModel(tiny_config(), seed=0)
VOCAB = MODEL.config.vocab_size


#: Packing of ``ServeConfig()``, for the tests that hand-price a clock and
#: so construct the runtime directly.
POLICY = ChunkedPrefillPolicy(chunk_tokens=16, max_tokens_per_round=32, max_seqs_per_round=4)


def prompt(n, seed=0):
    return (np.arange(n) * 7 + seed) % VOCAB


def sequential_tokens(prompt_ids, budget, *, world=2):
    engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)
    return list(ChatSession(engine, 0).send(prompt_ids, max_new_tokens=budget).generated)


class TestChainOrder:
    """A conversation's turns leave its chain from the head only. A broken
    chain is a RuntimeError naming the invariant, also under ``python -O``."""

    @staticmethod
    def _two_turns():
        rt = ServeConfig().build(MODEL)
        first = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=2, last_turn=False))
        second = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(4, seed=1), max_new_tokens=2))
        return rt, first, second

    def test_only_chain_heads_are_shed(self, monkeypatch):
        rt, first, second = self._two_turns()
        monkeypatch.setitem(rt._chains, 0, [second, first])
        with pytest.raises(RuntimeError, match="only chain heads are shed"):
            rt._shed_chain(rt._records[first], status=RequestState.SHED, at=0.0)

    def test_turns_finish_in_chain_order(self, monkeypatch):
        rt, first, second = self._two_turns()
        monkeypatch.setitem(rt._chains, 0, [second, first])
        with pytest.raises(RuntimeError, match="turns finish in chain order"):
            rt._finish_turn(rt._records[first], at=0.0)


class TestLifecycle:
    def test_single_request_runs_to_completion(self):
        rt = ServeConfig().build(MODEL)
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
        rt = ServeConfig().build(MODEL)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=6))
        report = rt.run(max_steps=1000)
        assert report.record(rid).generated == sequential_tokens(prompt(40), 6)

    def test_zero_budget_turn_finishes_at_prefill(self):
        rt = ServeConfig().build(MODEL)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=0))
        report = rt.run(max_steps=100)
        rec = report.records[rid]
        assert rec.state is RequestState.FINISHED
        assert rec.generated == []
        assert rec.first_token_at is None
        assert report.decode_rounds == 0

    def test_kv_released_after_last_turn(self):
        rt = ServeConfig().build(MODEL)
        rt.submit(TurnRequest(request_id=-1, seq_id=7, prompt=prompt(20), max_new_tokens=3))
        rt.run(max_steps=1000)
        assert rt.engine.context_length(7) == 0

    def test_kv_kept_when_not_last_turn(self):
        rt = ServeConfig().build(MODEL)
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=7, prompt=prompt(20), max_new_tokens=3, last_turn=False
            )
        )
        rt.run(max_steps=1000)
        assert rt.engine.context_length(7) == 23

    def test_step_false_when_idle(self):
        rt = ServeConfig().build(MODEL)
        assert rt.step() is False

    def test_duplicate_request_id_rejected(self):
        rt = ServeConfig().build(MODEL)
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


class TestContinuousBatching:
    def test_prefill_chunks_interleave_with_decode(self):
        """While one long prompt prefills in chunks, an already-decoding
        request keeps streaming tokens between the chunks."""
        rt = ServeConfig(chunk=8, round_budget=8).build(MODEL)
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
        rt = ServeConfig(chunk=16, round_budget=64).build(MODEL)
        for sid in range(4):
            rt.submit(
                TurnRequest(
                    request_id=-1, seq_id=sid, prompt=prompt(16, seed=sid), max_new_tokens=0
                )
            )
        report = rt.run(max_steps=100)
        assert report.prefill_rounds == 1  # all four prompts fused

    def test_decode_rounds_batch_all_decoders(self):
        rt = ServeConfig(chunk=32, round_budget=64).build(MODEL)
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
        rt = ServeConfig().build(MODEL)
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
        rt = ServeConfig().build(MODEL)
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
        rt = ServeConfig().build(MODEL)
        rids = rt.submit_script(script, think_time=3.0)
        report = rt.run(max_steps=2000)

        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)


class TestPreemption:
    def test_capacity_pressure_preempts_and_stays_exact(self):
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = ServeConfig(capacity=80).build(MODEL)
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=100_000)
        assert report.metrics.preemptions > 0
        assert report.metrics.evicted_tokens > 0
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)

    def test_forced_preemption_mid_decode_resumes_exactly(self):
        rt = ServeConfig().build(MODEL)
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
        assert report.record(rid).generated == sequential_tokens(prompt(40), 8)

    def test_forced_preemption_mid_prefill_resumes_exactly(self):
        rt = ServeConfig(chunk=8, round_budget=8).build(MODEL)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=4))
        preempted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not preempted and rec.state is RequestState.PREFILL and rec.prefill_done >= 16:
                rt.preempt(rid)
                preempted = True
        assert preempted
        assert rt.report().record(rid).generated == sequential_tokens(prompt(40), 4)

    def test_preempt_requires_active_request(self):
        rt = ServeConfig().build(MODEL)
        rid = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=0, arrival=9.0)
        )
        with pytest.raises(ValueError):
            rt.preempt(rid)  # still QUEUED

    def test_idle_conversation_evicted_under_pressure(self):
        """A conversation waiting between turns loses its KV before any
        active request is preempted, and still resumes exactly."""
        rt = ServeConfig(capacity=64).build(MODEL)
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
            assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)

    def test_capacity_too_small_raises(self):
        rt = ServeConfig(capacity=16, chunk=8, round_budget=8).build(MODEL)
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
        rt = ServeConfig(world=1, capacity=96, chunk=8, round_budget=16).build(MODEL)
        old = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(80), max_new_tokens=4)
        )
        young = rt.submit(
            TurnRequest(request_id=-1, seq_id=1, prompt=prompt(8, seed=1), max_new_tokens=40)
        )
        report = rt.run(max_steps=100_000)
        assert report.metrics.preemptions > 0
        assert report.record(old).generated == sequential_tokens(prompt(80), 4, world=1)
        assert report.record(young).generated == sequential_tokens(prompt(8, seed=1), 40, world=1)


@pytest.mark.parametrize("remedy", ["recompute", "trim", "swap"])
def test_sole_decoder_that_cannot_grow_raises_instead_of_livelocking(remedy):
    """The oldest live request is never a victim. A lone conversation
    whose context outgrows the pool (12 prompt + 10 new tokens against one
    16-token block) must raise at the wall: evicting it would only send it
    back to re-prefill into the same wall, every step, until ``max_steps``."""
    rt = ServeConfig(world=1, capacity=16, preemption=remedy).build(MODEL)
    rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(12), max_new_tokens=10))
    with pytest.raises(RuntimeError, match="decode step cannot fit"):
        rt.run(max_steps=500)
    assert rt.report().records[rid].preemptions == 0  # by any remedy


@pytest.mark.parametrize("arrival", [math.nan, math.inf, -1.0])
def test_arrival_must_be_a_finite_time(arrival):
    """A NaN arrival passed ``arrival < 0`` (every comparison with NaN is
    false) and wedged the runtime and the fleet: ``run`` raised "did not
    drain" at ``max_steps``, or spun forever without it. It fails when the
    turn is built now, before any runtime or fleet sees it."""
    with pytest.raises(ValueError, match="arrival must be a finite number >= 0"):
        TurnRequest(request_id=-1, seq_id=0, prompt=prompt(4), max_new_tokens=1, arrival=arrival)


@pytest.mark.parametrize("think_time", [math.nan, math.inf, -1.0])
def test_think_time_must_be_a_finite_time(think_time):
    """An infinite think time puts turn 0 at ``arrival + 0 * inf``, a NaN."""
    script = WorkloadGenerator(VOCAB, seed=0).conversation(0, turns=2, first_prompt=8)
    rt = ServeConfig().build(MODEL)
    with pytest.raises(ValueError, match="think_time must be a finite number >= 0"):
        rt.submit_script(script, think_time=think_time)
    assert rt.report().records == {}


@pytest.mark.parametrize("ids", [[10**6, 3], [VOCAB, 0], [-1, 2]], ids=["far", "vocab", "negative"])
def test_out_of_vocabulary_prompt_fails_at_submit(ids):
    """A bad id passed submit and raised from the embedding inside the
    prefill round, leaving it and the unrelated request fused into the
    same round stuck in ``prefill``. Submit rejects it now and changes
    nothing: no id is spent, and the other requests run to the end."""
    rt = ServeConfig().build(MODEL)
    good = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=3))
    with pytest.raises(ValueError, match=rf"prompt token ids must lie in \[0, {VOCAB}\)"):
        rt.submit(TurnRequest(request_id=-1, seq_id=1, prompt=ids, max_new_tokens=3))
    late = rt.submit(TurnRequest(request_id=-1, seq_id=2, prompt=prompt(4, seed=1), max_new_tokens=1))
    assert late == good + 1
    report = rt.run(max_steps=1000)
    assert sorted(report.records) == [good, late]
    assert report.statuses() == {"finished": 2}


class TestPreemptionModes:
    """Tail-trim and CPU-swap remedies: cheaper than recompute, never
    different tokens."""

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="preemption"):
            ServeConfig(preemption="hibernate").build(MODEL)
        with pytest.raises(ValueError, match="swap capacity"):
            ServeConfig(preemption="trim", swap_capacity=100).build(MODEL)
        with pytest.raises(ValueError, match="swap capacity"):
            ServeConfig(preemption="swap", swap_capacity=-1).build(MODEL)

    def test_trim_keeps_prefix_resident(self):
        """A trimmed decode victim keeps a KV prefix and re-prefills only
        the dropped suffix — exactly."""
        rt = ServeConfig(preemption="trim").build(MODEL)
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
        assert report.record(rid).generated == sequential_tokens(prompt(40), 8)

    def test_trim_under_capacity_pressure_stays_exact(self):
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = ServeConfig(capacity=80, preemption="trim").build(MODEL)
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=100_000)
        assert report.metrics.trims > 0
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)

    def test_trimmed_idle_conversation_resumes_from_prefix(self):
        """An idle conversation trimmed between turns re-prefills only
        the trimmed suffix when its next turn admits."""
        rt = ServeConfig(capacity=64, preemption="trim").build(MODEL)
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
            assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)

    def test_swap_decode_victim_resumes_without_recompute(self):
        """A swapped decode victim goes SWAPPED, swaps back in, and
        resumes decoding directly — zero extra prefill rounds."""
        rt = ServeConfig(preemption="swap").build(MODEL)
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
        assert report.record(rid).generated == sequential_tokens(prompt(40), 8)
        # no re-prefill happened: same prefill rounds as an undisturbed run
        undisturbed = ServeConfig().build(MODEL)
        undisturbed.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=8)
        )
        assert report.prefill_rounds == undisturbed.run(max_steps=10_000).prefill_rounds

    def test_swap_mid_prefill_resumes_exactly(self):
        rt = ServeConfig(chunk=8, round_budget=8, preemption="swap").build(MODEL)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=4))
        swapped = False
        while rt.step():
            rec = rt.report().records[rid]
            if not swapped and rec.state is RequestState.PREFILL and rec.prefill_done >= 16:
                rt.preempt(rid)
                assert rec.state is RequestState.SWAPPED
                swapped = True
        assert swapped
        assert rt.report().record(rid).generated == sequential_tokens(prompt(40), 4)

    def test_swap_store_capacity_falls_back_to_full_evict(self):
        """A host store too small for the victim declines the swap; the
        eviction degrades to recompute and stays exact."""
        rt = ServeConfig(preemption="swap", swap_capacity=4).build(MODEL)
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
        assert report.record(rid).generated == sequential_tokens(prompt(40), 6)

    def test_a_swap_in_hands_the_store_budget_back(self):
        """A store that holds one swapped request at a time takes the same
        request twice: swapping it back in frees the budget it took, so the
        second preemption swaps again instead of degrading to recompute."""
        rt = ServeConfig(preemption="swap", swap_capacity=40).build(MODEL)
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(24), max_new_tokens=8))
        preempt_at, states = [2, 5], []
        while rt.step():
            rec = rt.report().records[rid]
            if preempt_at and rec.state is RequestState.DECODE and len(rec.generated) == preempt_at[0]:
                preempt_at.pop(0)
                rt.preempt(rid)
                states.append(rec.state)
        assert states == [RequestState.SWAPPED, RequestState.SWAPPED]
        report = rt.report()
        assert report.metrics.swaps_out == report.metrics.swaps_in == 2
        assert report.record(rid).generated == sequential_tokens(prompt(24), 8)

    def test_swapped_idle_conversation_restored_for_next_turn(self):
        """An idle conversation swapped out between turns swaps back in
        when its next turn arrives — the history is never recomputed."""
        rt = ServeConfig(capacity=64, preemption="swap").build(MODEL)
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
            assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)

    def test_swap_under_capacity_pressure_stays_exact(self):
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = ServeConfig(capacity=80, preemption="swap", swap_capacity=400).build(MODEL)
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=100_000)
        assert report.metrics.swaps_out > 0
        assert report.metrics.swaps_in == report.metrics.swaps_out
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.record(rid).generated == list(session.send(p, max_new_tokens=b).generated)

    def test_swap_cost_priced_by_clock(self):
        """Swap-out + swap-in each stall the pool by the clock's price."""
        rt = ContinuousBatchingRuntime(
            ContextParallelEngine(MODEL, world_size=2),
            policy=POLICY,
            clock=UnitStepClock(swap_cost=5.0),
            preemption="swap",
        )
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
        rt = ServeConfig(chunk=8, round_budget=8).build(MODEL)

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
        rt = ContinuousBatchingRuntime(
            ContextParallelEngine(MODEL, world_size=2),
            policy=POLICY,
            clock=UnitStepClock(prefill_cost=2.0, decode_cost=1.0),
        )
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(32), max_new_tokens=3))
        report = rt.run(max_steps=1000)
        # 2 prefill rounds * 2.0 + 3 decode rounds * 1.0
        assert report.makespan == pytest.approx(7.0)
        rec = next(iter(report.records.values()))
        assert rec.first_token_at == pytest.approx(4.0)
        assert rec.ttit_samples() == pytest.approx([1.0, 1.0])

    def test_streaming_metrics_recorded(self):
        rt = ServeConfig().build(MODEL)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(16), max_new_tokens=4))
        report = rt.run(max_steps=1000)
        m = report.metrics
        assert len(m.ttft_samples) == 1
        assert len(m.ttit_samples) == 3
        assert m.total_generated_tokens == 4
        assert report.tokens_per_second() > 0

    def test_turn_records_carry_cache_state(self):
        rt = ServeConfig().build(MODEL)
        gen = WorkloadGenerator(VOCAB, seed=1)
        rt.submit_script(gen.conversation(0, turns=2, first_prompt=20))
        report = rt.run(max_steps=1000)
        first, second = report.metrics.turns
        assert first.cached_tokens == 0
        assert second.cached_tokens > 0
        assert 0 < second.miss_rate < 1

    def test_state_counts(self):
        rt = ServeConfig().build(MODEL)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=1))
        assert rt.state_counts() == {"queued": 1}
        rt.run(max_steps=100)
        assert rt.state_counts() == {"finished": 1}

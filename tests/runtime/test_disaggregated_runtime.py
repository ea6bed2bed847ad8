"""Tests for the disaggregated prefill/decode runtime pools.

Covers the pool-aware lifecycle (``PREFILL -> KV_TRANSFER -> DECODE``),
conversation residence in the decode pool, the KV-transfer edge cases the
serving design must survive (zero-decode turns, eviction mid-stream,
decode-pool admission refusing a transfer), per-pool capacity pressure,
and the per-pool/transfer metrics. The full exactness property over
random traces and pool splits lives in
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


def make_runtime(
    *,
    world_p=2,
    world_d=1,
    cap_p=None,
    cap_d=None,
    chunk=16,
    round_budget=32,
    **kw,
):
    engine = ContextParallelEngine(MODEL, world_size=world_p, capacity_tokens=cap_p)
    decode_engine = ContextParallelEngine(MODEL, world_size=world_d, capacity_tokens=cap_d)
    return ContinuousBatchingRuntime(
        engine,
        decode_engine=decode_engine,
        policy=ChunkedPrefillPolicy(
            chunk_tokens=chunk, max_tokens_per_round=round_budget, max_seqs_per_round=4
        ),
        **kw,
    )


def prompt(n, seed=0):
    return (np.arange(n) * 7 + seed) % VOCAB


def sequential_tokens(prompt_ids, budget, *, world=2):
    engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=world)
    return list(ChatSession(engine, 0).send(prompt_ids, max_new_tokens=budget).generated)


class TestLifecycle:
    def test_single_request_exact_across_pools(self):
        rt = make_runtime()
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=6))
        report = rt.run(max_steps=10_000)
        rec = report.records[rid]
        assert rec.state is RequestState.FINISHED
        assert report.generated(rid) == sequential_tokens(prompt(40), 6)
        assert report.metrics.transfers == 1
        assert report.metrics.transferred_kv_tokens == 40

    def test_kv_moves_from_prefill_to_decode_pool(self):
        rt = make_runtime()
        rt.submit(
            TurnRequest(
                request_id=-1, seq_id=3, prompt=prompt(24), max_new_tokens=4, last_turn=False
            )
        )
        rt.run(max_steps=10_000)
        # the conversation resides in the decode pool; the prefill pool
        # released its copy at landing
        assert rt.engine.context_length(3) == 0
        assert rt.decode_engine.context_length(3) == 24 + 4

    def test_transfer_state_visible_and_first_token_precedes_landing(self):
        rt = make_runtime(clock=UnitStepClock(transfer_cost=7.0))
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(16), max_new_tokens=2))
        saw_transfer = False
        while rt.step():
            rec = rt.report().records[rid]
            if rec.state is RequestState.KV_TRANSFER:
                saw_transfer = True
                assert rec.first_token_at is not None  # streamed from prefill logits
        assert saw_transfer
        rec = rt.report().records[rid]
        # gap between first and second token carries the transfer wait
        gaps = rec.ttit_samples()
        assert gaps and gaps[0] >= 7.0

    def test_multi_turn_delta_transfers(self):
        """Follow-up turns ship only the positions the decode pool lacks."""
        gen = WorkloadGenerator(VOCAB, seed=9)
        script = gen.conversation(0, turns=3, first_prompt=30)
        rt = make_runtime(world_p=2, world_d=2)
        rids = rt.submit_script(script, think_time=3.0)
        report = rt.run(max_steps=20_000)

        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)
        # every turn transferred its prompt exactly once; decode tokens
        # were committed in-place by the decode pool (never re-shipped)
        assert report.metrics.transfers == script.turns
        assert report.metrics.transferred_kv_tokens == script.total_prompt_tokens
        # causality across the pool clocks: a follow-up turn never starts
        # (or streams) before its predecessor's decode-pool finish
        recs = [report.records[rid] for rid in rids]
        for prev, nxt in zip(recs, recs[1:]):
            assert nxt.admitted_at >= prev.finished_at
            if nxt.first_token_at is not None:
                assert nxt.first_token_at > prev.finished_at

    def test_late_arrival_does_not_delay_followup_turns(self):
        """An idle prefill clock must not jump past running decodes to a
        far-future arrival: a follow-up turn created by those decodes
        prefills as soon as its predecessor finishes."""
        rt = make_runtime()
        rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(16), max_new_tokens=4,
                        last_turn=False)
        )
        a2 = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8, seed=1), max_new_tokens=2)
        )
        late = rt.submit(
            TurnRequest(request_id=-1, seq_id=1, prompt=prompt(8, seed=2), max_new_tokens=2,
                        arrival=100.0)
        )
        report = rt.run(max_steps=10_000)
        assert report.records[a2].finished_at < 100.0
        assert report.records[late].admitted_at >= 100.0

    def test_zero_budget_turn_never_transfers(self):
        """A max_new_tokens=0 turn finishes at prefill; no payload moves."""
        rt = make_runtime()
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8), max_new_tokens=0))
        report = rt.run(max_steps=1000)
        assert report.records[rid].state is RequestState.FINISHED
        assert report.records[rid].generated == []
        assert report.metrics.transfers == 0
        assert rt.engine.context_length(0) == 0
        assert rt.decode_engine.context_length(0) == 0

    def test_zero_budget_middle_turn_stays_exact(self):
        """A decode-less middle turn leaves the decode pool stale; the next
        turn's delta transfer covers the gap."""
        p1, p2, p3 = prompt(20), prompt(8, seed=2), prompt(6, seed=4)
        rt = make_runtime(world_p=2, world_d=2)
        r1 = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=p1, max_new_tokens=3, last_turn=False)
        )
        r2 = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=p2, max_new_tokens=0, last_turn=False)
        )
        r3 = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=p3, max_new_tokens=4))
        report = rt.run(max_steps=10_000)

        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
        session = ChatSession(engine, 0)
        assert report.generated(r1) == list(session.send(p1, max_new_tokens=3).generated)
        assert report.generated(r2) == list(session.send(p2, max_new_tokens=0).generated)
        assert report.generated(r3) == list(session.send(p3, max_new_tokens=4).generated)

    def test_requires_shared_model(self):
        e1 = ContextParallelEngine(MODEL, world_size=1)
        e2 = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=1)
        with pytest.raises(ValueError, match="share model weights"):
            ContinuousBatchingRuntime(e1, decode_engine=e2)


class TestTransferEdgeCases:
    def test_eviction_mid_stream_resumes_exactly(self):
        """Preempting a request whose KV is on the wire cancels the
        transfer, drops the prefill-pool copy, and resumes bit-exactly."""
        rt = make_runtime(clock=UnitStepClock(transfer_cost=9.0))
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=5))
        preempted = False
        while rt.step():
            rec = rt.report().records[rid]
            if not preempted and rec.state is RequestState.KV_TRANSFER:
                rt.preempt(rid)
                preempted = True
                assert rt.engine.context_length(0) == 0
        assert preempted
        report = rt.report()
        assert report.metrics.transfers_cancelled == 1
        assert rt.transfer_stream.in_flight() == []
        assert report.records[rid].preemptions == 1
        assert report.generated(rid) == sequential_tokens(prompt(40), 5)

    def test_decode_pool_refuses_transfer_until_space_frees(self):
        """A transfer that cannot fit behind an *older* active decoder is
        refused (left on the wire) and lands once the decoder finishes —
        FCFS is never violated to admit it."""
        rt = make_runtime(world_p=1, world_d=1, cap_d=90, chunk=16, round_budget=32)
        old = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(30), max_new_tokens=20)
        )
        young = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=1, prompt=prompt(50, seed=3), max_new_tokens=2,
                arrival=15.0,
            )
        )
        report = rt.run(max_steps=50_000)
        assert report.metrics.transfer_refusals >= 1
        assert report.records[old].preemptions == 0  # never evicted for the young one
        # the bounded decode pool's occupancy was sampled along the way
        assert 0 < report.metrics.peak_kv_utilization["decode"] <= 1
        assert report.generated(old) == sequential_tokens(prompt(30), 20, world=1)
        assert report.generated(young) == sequential_tokens(prompt(50, seed=3), 2, world=1)

    def test_transfer_evicts_idle_resident_conversation(self):
        """Landing admission evicts an idle decode-pool conversation first;
        the evicted conversation still resumes exactly."""
        gen = WorkloadGenerator(VOCAB, seed=2)
        script = gen.conversation(0, turns=2, first_prompt=40, response_range=(3, 3))
        rt = make_runtime(world_p=1, world_d=1, cap_d=96, chunk=16, round_budget=32)
        rids = rt.submit_script(script, think_time=500.0)  # long idle gap
        crowd = rt.submit(
            TurnRequest(
                request_id=-1, seq_id=99, prompt=prompt(50, seed=4), max_new_tokens=2,
                arrival=20.0,
            )
        )
        report = rt.run(max_steps=50_000)
        assert report.metrics.preemptions > 0
        assert report.records[crowd].state is RequestState.FINISHED
        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=1)
        session = ChatSession(engine, 0)
        for rid, p, b in zip(rids, script.prompts, script.response_budgets):
            assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_resident_evicted_during_transfer_reprices_the_wire(self):
        """When decode-pool pressure evicts a conversation's resident copy
        while its follow-up delta is on the wire, the landing re-ships the
        full history and pays the channel again for the extra tokens."""
        cost = 500.0
        rt = make_runtime(
            world_p=1, world_d=1, cap_d=96, chunk=16, round_budget=32,
            clock=UnitStepClock(transfer_cost=cost),
        )
        y1 = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(40), max_new_tokens=3,
                        last_turn=False)
        )
        z = rt.submit(
            TurnRequest(request_id=-1, seq_id=1, prompt=prompt(30, seed=3),
                        max_new_tokens=40, arrival=5.0)
        )
        y2 = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(8, seed=6),
                        max_new_tokens=2, arrival=600.0)
        )
        report = rt.run(max_steps=100_000)

        # seq 0's resident 40+3 tokens were evicted by Z's decode growth
        # while turn 2's 8-token delta was in flight: the landing re-shipped
        # all 51 positions, occupying the wire a fourth time
        assert report.metrics.preemptions == 1
        assert report.metrics.transfers == 3
        assert report.metrics.transferred_kv_tokens == 40 + 30 + 51
        assert rt.transfer_stream.busy_s == pytest.approx(4 * cost)

        engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=1)
        session = ChatSession(engine, 0)
        assert report.generated(y1) == list(session.send(prompt(40), max_new_tokens=3).generated)
        assert report.generated(y2) == list(
            session.send(prompt(8, seed=6), max_new_tokens=2).generated
        )
        assert report.generated(z) == sequential_tokens(prompt(30, seed=3), 40, world=1)

    def test_context_exceeding_decode_pool_raises(self):
        rt = make_runtime(world_p=1, world_d=1, cap_d=32, chunk=16, round_budget=32)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(64), max_new_tokens=2))
        # both pools are named, each with its own clock and occupancy
        with pytest.raises(
            RuntimeError,
            match=r"(stalled|capacity).*states: \{'kv_transfer': 1\}; "
            r"prefill pool: t=4, 1 holders, KV unbounded; "
            r"decode pool: t=5, 0 holders, KV 0%",
        ):
            rt.run(max_steps=50_000)

    def test_prefill_pool_too_small_raises(self):
        rt = make_runtime(world_p=1, world_d=1, cap_p=16, chunk=8, round_budget=8)
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(64), max_new_tokens=2))
        with pytest.raises(
            RuntimeError,
            match=r"capacity.*states: \{'prefill': 1\}; prefill pool: .* 1 holders, KV 100%; decode pool",
        ):
            rt.run(max_steps=50_000)


class TestPoolPressure:
    def test_prefill_pool_pressure_preempts_and_stays_exact(self):
        """Concurrent prefills overflowing pool A preempt (youngest first)
        and every conversation still matches sequential replay."""
        gen = WorkloadGenerator(VOCAB, seed=5)
        scripts = [
            gen.conversation(sid, turns=2, first_prompt=48, response_range=(4, 6))
            for sid in range(4)
        ]
        rt = make_runtime(world_p=2, world_d=2, cap_p=80, chunk=16, round_budget=64)
        rid_map = {s.seq_id: rt.submit_script(s, arrival=float(i)) for i, s in enumerate(scripts)}
        report = rt.run(max_steps=200_000)
        assert report.metrics.preemptions > 0
        for script in scripts:
            engine = ContextParallelEngine(LlamaModel(tiny_config(), seed=0), world_size=2)
            session = ChatSession(engine, script.seq_id)
            for rid, p, b in zip(rid_map[script.seq_id], script.prompts, script.response_budgets):
                assert report.generated(rid) == list(session.send(p, max_new_tokens=b).generated)

    def test_decode_pool_pressure_roundtrips_through_prefill(self):
        """A decode-pool eviction sends the request back through prefill
        and a fresh transfer, still bit-exact."""
        rt = make_runtime(world_p=2, world_d=1, cap_d=96, chunk=16, round_budget=32)
        old = rt.submit(
            TurnRequest(request_id=-1, seq_id=0, prompt=prompt(70), max_new_tokens=20)
        )
        young = rt.submit(
            TurnRequest(request_id=-1, seq_id=1, prompt=prompt(8, seed=1), max_new_tokens=40)
        )
        report = rt.run(max_steps=200_000)
        assert report.metrics.preemptions > 0
        assert report.generated(old) == sequential_tokens(prompt(70), 20)
        assert report.generated(young) == sequential_tokens(prompt(8, seed=1), 40)


class TestMetrics:
    def test_per_pool_accounting(self):
        rt = make_runtime(clock=UnitStepClock(prefill_cost=2.0, decode_cost=0.5, transfer_cost=1.0))
        rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(32), max_new_tokens=3))
        report = rt.run(max_steps=1000)
        m = report.metrics
        # 2 prefill rounds (chunk 16) and 3 decode rounds
        assert m.pool_rounds == {"prefill": 2, "decode": 3}
        assert m.pool_busy_s["prefill"] == pytest.approx(4.0)
        assert m.pool_busy_s["decode"] == pytest.approx(1.5)
        util = report.pool_utilization()
        assert 0 < util["decode"] < 1 and 0 < util["prefill"] < 1
        # the decode pool idled while prefill + transfer ran
        assert m.transfer_stall_s > 0
        assert "KV transfers: 1" in m.summary()
        assert "pool busy:" in m.summary()

    def test_transfer_wait_never_reorders_tokens(self):
        """token_times are monotone per request even across the pool hop."""
        rt = make_runtime(clock=UnitStepClock(transfer_cost=3.0))
        rid = rt.submit(TurnRequest(request_id=-1, seq_id=0, prompt=prompt(24), max_new_tokens=5))
        report = rt.run(max_steps=1000)
        times = report.records[rid].token_times
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))

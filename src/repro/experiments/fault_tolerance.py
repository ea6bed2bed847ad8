"""Extension experiment: graceful degradation under injected faults.

Production serving systems are judged by *goodput* — requests completed
within SLO per second (DistServe) — and by how they behave when
components actually fail: Mooncake's overload-oriented scheduler sheds
work early rather than wedging the cluster. This experiment arms the
runtime's deterministic chaos layer (:mod:`repro.runtime.faults`) over
a disaggregated prefill/decode deployment and sweeps fault intensity
(mid-stream KV-transfer deaths, lost swap payloads, a whole-pool KV
reset) against the three recovery policies (``--preemption``
recompute / trim / swap), with a per-request deadline so saturation
shows up as shed requests instead of unbounded latency.

The headline is the shape of the degradation: as the fault rate rises,
p95 TTFT and makespan grow (retries, backoff, re-prefills) and the
completion rate falls (deadline sheds) — but every cell *drains*, no
cell leaks KV state, and every request that does complete streams
tokens bit-identical to its sequential, fault-free replay (asserted
per cell). Faults change who finishes and when — never what a
completed request computed.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config, tiny_config
from repro.perf.hardware import HostSpec, gtt_host
from repro.perf.latency import LatencySimulator

#: Recovery policies compared, in sweep order.
MODES = ("recompute", "trim", "swap")

#: Injected fault intensity: transfer-death and swap-loss probability
#: per event (the highest tier also injects a whole-pool KV reset).
RATES = (0.0, 0.25, 0.6)


def run(
    host: HostSpec | None = None,
    *,
    n_sessions: int = 4,
    turns: int = 2,
    first_prompt: int = 64,
    world_size: int = 2,
    capacity: int = 96,
    rates: tuple[float, ...] = RATES,
    deadline_s: float = 10.0,
    priced_ranks: int = 4,
    seed: int = 11,
    fault_seed: int = 7,
) -> ExperimentResult:
    """Fault rate x recovery policy over a disaggregated deployment.

    Every cell replays the *same* trace through a CP-``world_size``
    prefill pool feeding a CP-``world_size`` decode pool (tiny-model
    numerics, rounds priced for Llama3 405B on ``priced_ranks`` CP
    hosts) under a :class:`repro.runtime.faults.FaultPlan` of the given
    intensity. Per cell, three things are asserted, mirroring the
    fault-schedule property test: the run drains, the engines' KV
    bookkeeping audits clean (:meth:`kv_leak_report`), and each
    *completed* request's tokens equal its sequential fault-free replay.
    """
    from repro.core.engine import ContextParallelEngine
    from repro.model.llama import LlamaModel
    from repro.runtime import FaultPlan, ServeConfig
    from repro.runtime.state import RequestState
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import (
        replay_scripts_sequential,
        submit_scripts_to_runtime,
    )

    host = host if host is not None else gtt_host()
    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=seed)
    scripts = [
        gen.conversation(
            sid, turns=turns, first_prompt=first_prompt,
            followup_range=(8, 16), response_range=(4, 6),
        )
        for sid in range(n_sessions)
    ]
    total_requests = sum(s.turns for s in scripts)
    sim = LatencySimulator(llama3_405b_config(), host)
    reference = replay_scripts_sequential(
        lambda: ContextParallelEngine(model, world_size=world_size), scripts
    )

    res = ExperimentResult(
        experiment_id="Fault tolerance",
        title=(
            f"{n_sessions} sessions x {turns} turns through CP{world_size} "
            f"prefill -> CP{world_size} decode under injected faults "
            f"(deadline {deadline_s:.0f}s, CP{priced_ranks} 405B pricing)"
        ),
        headers=[
            "fault rate", "recovery",
            "transfer faults", "swap losses", "resets",
            "completed", "completion rate",
            "p95 TTFT (s)", "makespan (s)", "goodput (req/s)",
        ],
    )

    for rate in rates:
        plan = FaultPlan(
            seed=fault_seed,
            transfer_fail_rate=rate,
            swap_loss_rate=rate,
            pool_resets=1 if rate >= max(rates) > 0 else 0,
            deadline_s=deadline_s,
        )
        for mode in MODES:
            runtime = ServeConfig(
                world=world_size,
                decode_world=world_size,
                capacity=capacity,
                preemption=mode,
                swap_capacity=4096 if mode == "swap" else None,
                faults=plan,
                priced_ranks=priced_ranks,
            ).build(model, sim=sim)
            rids = submit_scripts_to_runtime(runtime, scripts)
            report = runtime.run(max_steps=400_000)

            leaks = runtime.kv_leak_report()
            if leaks:
                raise AssertionError(
                    f"KV state leaked at rate {rate} / {mode}: {leaks}"
                )
            for script in scripts:
                for i, rid in enumerate(rids[script.seq_id]):
                    rec = report.records[rid]
                    if rec.status is None:
                        raise AssertionError(
                            f"rate {rate} / {mode}: request {rid} never "
                            "reached a terminal state"
                        )
                    if rec.state is RequestState.FINISHED and (
                        list(report.generated(rid))
                        != list(reference[script.seq_id][i])
                    ):
                        raise AssertionError(
                            "serving-level exactness violated under faults: "
                            f"rate {rate} / {mode}, seq {script.seq_id} turn {i}"
                        )

            m = report.metrics
            completed = len(report.completed)
            res.add_row(
                rate,
                mode,
                m.transfer_faults,
                m.swap_losses,
                m.pool_resets,
                f"{completed}/{total_requests}",
                completed / total_requests,
                m.percentile_ttft(95),
                report.makespan,
                report.goodput(),
            )

    res.notes.append(
        "Every cell drained, audited leak-free, and streamed bit-identical "
        "tokens for each completed request vs sequential fault-free replay "
        "(asserted): faults change who finishes and when, never what a "
        "completed request computed."
    )
    base = res.column("p95 TTFT (s)")[: len(MODES)]
    worst = res.column("p95 TTFT (s)")[-len(MODES):]
    rate_hi = rates[-1]
    res.notes.append(
        f"Degradation is graceful, not cliff-shaped: raising fault intensity "
        f"from {rates[0]} to {rate_hi} moved p95 TTFT from "
        + "/".join(f"{v:.2f}s" for v in base)
        + " to "
        + "/".join(f"{v:.2f}s" for v in worst)
        + f" ({'/'.join(MODES)}) while the deadline shed the overflow instead "
        "of stretching every latency unboundedly."
    )
    return res

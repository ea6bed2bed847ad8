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
from repro.experiments.serving_grid import run_grid
from repro.model.config import tiny_config
from repro.runtime import FaultPlan, ServeConfig
from repro.workloads.generator import WorkloadGenerator

#: Recovery policies compared, in sweep order.
MODES = ("recompute", "trim", "swap")

#: Injected fault intensity: transfer-death and swap-loss probability
#: per event (the highest tier also injects a whole-pool KV reset).
RATES = (0.0, 0.25, 0.6)


def run(
    *,
    n_sessions: int = 4,
    turns: int = 2,
    first_prompt: int = 64,
    rates: tuple[float, ...] = RATES,
) -> ExperimentResult:
    """Fault rate x recovery policy over a disaggregated deployment.

    Every cell replays the *same* trace through a CP2 prefill pool
    feeding a CP2 decode pool (tiny-model numerics, rounds priced for
    Llama3 405B on CP4 hosts) under a
    :class:`repro.runtime.faults.FaultPlan` of the given intensity and a
    10 s deadline. Every cell drains, audits leak-free, and each
    *completed* request's tokens equal its sequential fault-free replay
    (:func:`~repro.experiments.serving_grid.run_grid`).
    """
    res = ExperimentResult(
        experiment_id="Fault tolerance",
        title=(
            f"{n_sessions} sessions x {turns} turns through CP2 prefill -> CP2 decode "
            "under injected faults (deadline 10s, CP4 405B pricing)"
        ),
        headers=[
            "fault rate", "recovery", "transfer faults", "swap losses", "resets",
            "completed", "completion rate", "p95 TTFT (s)", "makespan (s)", "goodput (req/s)",
        ],
    )
    gen = WorkloadGenerator(tiny_config().vocab_size, seed=11)
    scripts = [
        gen.conversation(sid, turns=turns, first_prompt=first_prompt,
                         followup_range=(8, 16), response_range=(4, 6))
        for sid in range(n_sessions)
    ]
    cells = {
        f"rate {rate}, {mode}": ServeConfig(
            decode_world=2,
            capacity=96,
            preemption=mode,
            swap_capacity=4096 if mode == "swap" else None,
            faults=FaultPlan(
                seed=7,
                transfer_fail_rate=rate,
                swap_loss_rate=rate,
                pool_resets=1 if rate >= max(rates) > 0 else 0,
                deadline_s=10.0,
            ),
        )
        for rate in rates
        for mode in MODES
    }
    reports = run_grid(res.experiment_id, scripts, cells)
    for config, report in zip(cells.values(), reports.values()):
        m = report.metrics
        completed, total = len(report.completed), len(report.records)
        res.add_row(
            config.faults.transfer_fail_rate, config.preemption, m.transfer_faults,
            m.swap_losses, m.pool_resets, f"{completed}/{total}", completed / total,
            m.percentile_ttft(95), report.makespan, report.goodput(),
        )

    res.notes.append(
        "Every cell drained, audited leak-free, and streamed bit-identical "
        "tokens for each completed request vs sequential fault-free replay "
        "(asserted): faults change who finishes and when, never what a "
        "completed request computed."
    )
    base = res.column("p95 TTFT (s)")[: len(MODES)]
    worst = res.column("p95 TTFT (s)")[-len(MODES):]
    res.notes.append(
        f"Degradation is graceful, not cliff-shaped: raising fault intensity "
        f"from {rates[0]} to {rates[-1]} moved p95 TTFT from "
        + "/".join(f"{v:.2f}s" for v in base)
        + " to "
        + "/".join(f"{v:.2f}s" for v in worst)
        + f" ({'/'.join(MODES)}) while the deadline shed the overflow instead "
        "of stretching every latency unboundedly."
    )
    return res

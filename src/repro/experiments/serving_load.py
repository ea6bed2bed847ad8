"""Extension experiment: TTFT/throughput under load, colocated vs disaggregated.

:func:`run` drives a Poisson stream of 128K-context requests through the
continuous-batching runtime on :class:`~repro.core.shape_engine.ShapeEngine`
(the real scheduler, paged-KV accounting and KV wire, with no K/V or
attention) and compares CP4 colocated (prefill rounds interleave with
decode) against a CP4 prefill pool feeding a one-rank decode pool priced
at TP8 TTIT — the serving-architecture question raised by §4.3.
:func:`run_runtime` asks the capacity question of the *numeric* runtime:
real engine rounds, real paged-KV capacity pressure, real preemptions —
with latencies priced at paper scale by the calibrated model.
"""

from __future__ import annotations

import numpy as np

from repro.core.shape_engine import ShapeModel
from repro.experiments.base import ExperimentResult
from repro.experiments.serving_grid import run_grid
from repro.model.config import tiny_config
from repro.runtime import ServeConfig
from repro.workloads.generator import ConversationScript, WorkloadGenerator, poisson_arrivals


#: The §4.3 deployment pair at the paper's 128K context, one whole prompt
#: per prefill round and unbounded KV: CP4 colocated, and a CP4 prefill
#: pool feeding a one-rank decode pool priced at TP8 TTIT.
CONTEXT = 131072
_WHOLE = dict(world=4, chunk=CONTEXT, round_budget=CONTEXT, priced_ranks=4)
CELLS = {"colocated": ServeConfig(**_WHOLE), "disaggregated": ServeConfig(**_WHOLE, decode_world=1)}


def run() -> ExperimentResult:
    res = ExperimentResult(
        experiment_id="Serving under load",
        title="Poisson load, 128K context, 64 output tokens, CP4",
        headers=[
            "arrival rate (req/s)", "mode",
            "mean TTFT (s)", "p99 TTFT (s)",
            "mean ms/token", "mean E2E (s)",
            "throughput (req/s)",
        ],
    )
    prompt = np.zeros(CONTEXT, dtype=np.int64)
    scripts = [ConversationScript(sid, [prompt], [64]) for sid in range(24)]
    for rate in (0.02, 0.05, 0.08):
        reports = run_grid(
            res.experiment_id, scripts, CELLS, model=ShapeModel(tiny_config()),
            arrivals=poisson_arrivals(rate, len(scripts), seed=7),
        )
        for mode, report in reports.items():
            done = list(report.completed.values())
            per_token = [(r.finished_at - r.first_token_at) / len(r.generated) for r in done]
            e2e = [r.finished_at - r.request.arrival for r in done]
            res.add_row(
                rate,
                mode,
                float(np.mean(report.metrics.ttft_samples)),
                report.metrics.percentile_ttft(99),
                1e3 * sum(per_token) / len(per_token),
                sum(e2e) / len(e2e),
                report.goodput(),
            )
    res.notes.append(
        "TTFT is prefill-pool-bound and similar in both modes; the decode "
        "experience is not: colocated sequences stall behind every queued "
        "prefill (ms/token includes multi-second gaps), while the "
        "dedicated decode host streams tokens at TP8 TTIT - the "
        "Mooncake/DistServe architecture the paper recommends (§4.3)."
    )
    res.notes.append(
        "Every row is the continuous-batching runtime on ShapeEngine (the "
        "real planner, sharding, paged-KV accounting and KV wire; no K/V, "
        "no attention), one whole prompt per prefill round, unbounded KV, "
        "every stream checked against sequential replay. The one-rank "
        "decode pool receives each request's whole KV over the priced wire "
        "before its first decode round, and its ms/token carries that wait."
    )
    return res


def run_runtime() -> ExperimentResult:
    """Capacity-pressure sweep through the continuous-batching runtime.

    Replays one multi-session trace through the *numeric* runtime at a
    sweep of per-rank KV capacities (unbounded down to barely-fits). As
    capacity shrinks, admission control starts preempting: requests lose
    their cache and pay exact re-prefill on resume, which shows up as
    extra prefill rounds, later simulated finish times and a falling
    goodput — demonstrated by a system whose every token is bit-checked
    against sequential replay (:func:`~repro.experiments.serving_grid.run_grid`).

    Numerics run the tiny model on CP2; the step clock prices rounds for
    Llama3 405B on CP4 hosts.
    """
    res = ExperimentResult(
        experiment_id="Runtime under capacity pressure",
        title="4 sessions x 2 turns through the continuous-batching runtime (CP2 numerics, CP4 pricing)",
        headers=[
            "KV capacity/rank", "policy", "preemptions", "KV tokens evicted", "prefill rounds",
            "decode rounds", "mean TTFT (s)", "p95 TTFT (s)", "makespan (s)",
        ],
    )
    gen = WorkloadGenerator(tiny_config().vocab_size, seed=11)
    # a length-mixed trace (one 3x-long prompt per four sessions) so the
    # FIFO-vs-SRPF packing comparison has head-of-line blocking to remove
    scripts = [
        gen.conversation(sid, turns=2, first_prompt=48 * (3 if sid % 4 == 0 else 1),
                         followup_range=(6, 12), response_range=(4, 6))
        for sid in range(4)
    ]
    cells = {
        f"capacity {capacity}, {order}": ServeConfig(capacity=capacity, order=order)
        for capacity in (None, 160, 96)
        for order in ("fifo", "srpf")
    }
    reports = run_grid(res.experiment_id, scripts, cells)
    for config, report in zip(cells.values(), reports.values()):
        m = report.metrics
        res.add_row(
            config.capacity or "unbounded", config.order, m.preemptions, m.evicted_tokens,
            report.prefill_rounds, report.decode_rounds, float(np.mean(m.ttft_samples)),
            m.percentile_ttft(95), report.makespan,
        )
    res.notes.append(
        "Same trace, same (bit-identical) tokens at every capacity and "
        "packing order (asserted) - shrinking the paged KV pool only adds "
        "preemptions, whose exact re-prefill work surfaces as extra "
        "prefill rounds and a longer simulated makespan. The runtime "
        "turns the paper's OOM-postponing load-balance argument (§3.6) "
        "into an executable capacity/latency trade-off curve."
    )
    mean_ttft = res.column("mean TTFT (s)")
    res.notes.append(
        "FIFO vs SRPF mean TTFT per capacity: "
        + "; ".join(
            f"{res.column('KV capacity/rank')[i]}: {mean_ttft[i]:.2f}s -> {mean_ttft[i + 1]:.2f}s"
            for i in range(0, len(mean_ttft), 2)
        )
        + " - shortest-remaining-prefill-first slips short prompts past the "
        "long head-of-line prompt, trading its TTFT for everyone else's."
    )
    return res

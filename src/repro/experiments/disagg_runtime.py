"""Extension experiment: measured disaggregation vs the analytic simulator.

:mod:`repro.experiments.disaggregation` prices the §4.3 architecture with
closed-form per-request latencies, and
:class:`repro.serving.simulator.ClusterServingSimulator` predicts its
system-level TTFT/TTIT under load — but both only *model* the interference
colocated serving suffers. This experiment runs the same multi-session
trace through the executable continuous-batching runtime twice — one
colocated engine, then a prefill pool feeding a decode pool over the
priced KV-transfer stream — and puts the *measured* TTFT/TTIT next to the
discrete-event simulator's prediction for the same deployment shape.

The headline is the TTIT tail: colocated decode rounds stall behind every
interleaved prefill chunk (p95 TTIT carries whole prefill rounds), while
the disaggregated decode pool streams at clean per-round TTIT and pays the
wire only once per turn (the first inter-token gap). Both runs decode
bit-identical tokens — disaggregation changes timing, never values.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config, tiny_config
from repro.perf.hardware import HostSpec, gtt_host
from repro.perf.latency import LatencySimulator
from repro.serving.simulator import ClusterServingSimulator
from repro.workloads.replay import script_to_arrivals, submit_scripts_to_runtime


def _ttit_ms(metrics) -> tuple[float, float]:
    """Mean/p95 TTIT in ms from a :class:`ServingMetrics` (nan-safe)."""
    mean = float(np.mean(metrics.ttit_samples)) if metrics.ttit_samples else float("nan")
    return mean * 1e3, metrics.percentile_ttit(95) * 1e3


def run(
    host: HostSpec | None = None,
    *,
    n_sessions: int = 4,
    turns: int = 2,
    first_prompt: int = 48,
    prefill_world: int = 2,
    decode_world: int = 2,
    priced_ranks: int = 4,
    seed: int = 11,
) -> ExperimentResult:
    """Measured colocated vs disaggregated serving, with predictions.

    Numerics run the tiny model (colocated on ``prefill_world`` ranks;
    disaggregated as ``prefill_world``:``decode_world`` pools); the step
    clock prices rounds for Llama3 405B on ``priced_ranks`` CP hosts,
    with the disaggregated decode pool priced at single-host TP TTIT and
    the KV stream at ring bandwidth — the same constants the analytic
    simulator uses, so the two columns are comparable.
    """
    from repro.model.llama import LlamaModel
    from repro.runtime import ServeConfig
    from repro.workloads.generator import WorkloadGenerator

    host = host if host is not None else gtt_host()
    cfg405 = llama3_405b_config()
    sim = LatencySimulator(cfg405, host)
    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=seed)
    scripts = [
        gen.conversation(
            sid, turns=turns, first_prompt=first_prompt,
            followup_range=(6, 12), response_range=(4, 6),
        )
        for sid in range(n_sessions)
    ]

    def measure(disaggregated: bool):
        runtime = ServeConfig(
            world=prefill_world,
            decode_world=decode_world if disaggregated else None,
            priced_ranks=priced_ranks,
        ).build(model, sim=sim)
        rids = submit_scripts_to_runtime(runtime, scripts)
        report = runtime.run(max_steps=1_000_000)
        tokens = {
            script.seq_id: [report.generated(rid) for rid in rids[script.seq_id]]
            for script in scripts
        }
        return report, tokens

    def predict(disaggregated: bool):
        cluster = ClusterServingSimulator(
            cfg405, host, n_ranks=priced_ranks, disaggregated=disaggregated
        )
        report = cluster.simulate(script_to_arrivals(scripts))
        per_token = [
            (c.finish - c.first_token) / c.decoded
            for c in report.completions
            if c.decoded
        ]
        mean_ttit = float(np.mean(per_token) * 1e3) if per_token else float("nan")
        p95_ttit = float(np.percentile(per_token, 95) * 1e3) if per_token else float("nan")
        return report, mean_ttit, p95_ttit

    res = ExperimentResult(
        experiment_id="Disaggregated runtime",
        title=(
            f"{n_sessions} sessions x {turns} turns: colocated CP{prefill_world} vs "
            f"CP{prefill_world}:CP{decode_world} pools (priced as 405B, CP{priced_ranks})"
        ),
        headers=[
            "deployment", "source",
            "mean TTFT (s)", "p95 TTFT (s)",
            "mean TTIT (ms)", "p95 TTIT (ms)",
            "makespan (s)",
        ],
    )

    colo_report, colo_tokens = measure(False)
    disagg_report, disagg_tokens = measure(True)
    if colo_tokens != disagg_tokens:
        raise AssertionError(
            "serving-level exactness violated: disaggregated tokens diverged "
            "from colocated replay"
        )

    for name, report in (("colocated", colo_report), ("disaggregated", disagg_report)):
        m = report.metrics
        mean_ttit, p95_ttit = _ttit_ms(m)
        res.add_row(
            name, "runtime (measured)",
            float(np.mean(m.ttft_samples)), m.percentile_ttft(95),
            mean_ttit, p95_ttit,
            report.makespan,
        )
    for name, disagg in (("colocated", False), ("disaggregated", True)):
        report, mean_ttit, p95_ttit = predict(disagg)
        res.add_row(
            name, "simulator (predicted)",
            report.mean_ttft(), float(np.percentile(report.ttfts(), 95)),
            mean_ttit, p95_ttit,
            report.makespan,
        )

    stall = disagg_report.metrics.transfer_stall_s
    res.notes.append(
        "Both runtime runs decode bit-identical tokens (asserted): pool "
        "splits and transfer schedules change timing, never values."
    )
    res.notes.append(
        f"Disaggregated run: {disagg_report.metrics.transfers} KV transfers "
        f"({disagg_report.metrics.transferred_kv_tokens} tokens), "
        f"{stall:.2f}s decode-pool stall waiting on the wire; pool "
        "utilization "
        + ", ".join(
            f"{pool}: {frac:.1%}" for pool, frac in disagg_report.pool_utilization().items()
        )
        + "."
    )
    res.notes.append(
        "Interference is the measured story the analytic model predicts: "
        "the disaggregated decode pool's measured TTIT lands on the "
        "simulator's clean TP-decode prediction, while measured colocated "
        "TTIT is *worse* than predicted — the runtime interleaves decode "
        "with every prefill chunk (fine-grained stalls the simulator's "
        "whole-prefill-at-a-time model underestimates). Measured TTFTs run "
        "above the predictions for the complementary reason: chunked "
        "prefill rounds serialize against the decode interleave instead of "
        "running one monolithic dedicated prefill."
    )
    return res

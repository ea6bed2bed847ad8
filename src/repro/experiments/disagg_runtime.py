"""Extension experiment: measured colocated vs disaggregated serving.

This experiment runs one multi-session trace through the numeric
continuous-batching runtime twice — one colocated engine, then a prefill
pool feeding a decode pool over the priced KV-transfer stream — and
measures the interference colocated serving suffers. At the paper's 128K
prompts, :mod:`repro.experiments.disaggregation` (one request per response
length) and "Serving under load" (:func:`repro.experiments.serving_load.run`)
ask the same question on the shape-only engine.

The headline is the TTIT tail: colocated decode rounds stall behind every
interleaved prefill chunk (p95 TTIT carries whole prefill rounds), while
the disaggregated decode pool streams at clean per-round TTIT and pays the
wire only once per turn (the first inter-token gap). Both runs decode
bit-identical tokens — disaggregation changes timing, never values.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.serving_grid import run_grid
from repro.model.config import tiny_config
from repro.runtime import ServeConfig
from repro.workloads.generator import WorkloadGenerator


def run() -> ExperimentResult:
    """Measured colocated vs disaggregated serving.

    Numerics run the tiny model (colocated on CP2; disaggregated as
    CP2:CP2 pools); the step clock prices rounds for Llama3 405B on CP4
    hosts, with the disaggregated decode pool priced at single-host TP
    TTIT and the KV stream at ring bandwidth.
    """
    res = ExperimentResult(
        experiment_id="Disaggregated runtime",
        title="4 sessions x 2 turns: colocated CP2 vs CP2:CP2 pools (priced as 405B, CP4)",
        headers=[
            "deployment", "mean TTFT (s)", "p95 TTFT (s)",
            "mean TTIT (ms)", "p95 TTIT (ms)", "makespan (s)",
        ],
    )
    gen = WorkloadGenerator(tiny_config().vocab_size, seed=11)
    scripts = [
        gen.conversation(sid, turns=2, first_prompt=48, followup_range=(6, 12), response_range=(4, 6))
        for sid in range(4)
    ]
    cells = {"colocated": ServeConfig(), "disaggregated": ServeConfig(decode_world=2)}
    reports = run_grid(res.experiment_id, scripts, cells)
    for name, report in reports.items():
        m = report.metrics
        res.add_row(
            name, float(np.mean(m.ttft_samples)), m.percentile_ttft(95),
            float(np.mean(m.ttit_samples)) * 1e3, m.percentile_ttit(95) * 1e3, report.makespan,
        )

    disagg = reports["disaggregated"]
    stall = disagg.metrics.transfer_stall_s
    res.notes.append(
        "Both runtime runs decode bit-identical tokens (asserted): pool "
        "splits and transfer schedules change timing, never values."
    )
    res.notes.append(
        f"Disaggregated run: {disagg.metrics.transfers} KV transfers "
        f"({disagg.metrics.transferred_kv_tokens} tokens), "
        f"{stall:.2f}s decode-pool stall waiting on the wire; pool "
        "utilization "
        + ", ".join(
            f"{pool}: {frac:.1%}" for pool, frac in disagg.pool_utilization().items()
        )
        + "."
    )
    res.notes.append(
        "Interference is measured, not modelled: the disaggregated decode "
        "pool streams at its clean TP-decode round price, while colocated "
        "TTIT carries the prefill chunks the runtime interleaves between "
        "decode rounds (p95 TTIT holds whole prefill rounds)."
    )
    return res

"""Extension experiment: colocated vs disaggregated CP serving (§4.3).

Quantifies the paper's closing recommendation: with prefill on CP4 and
decode on a dedicated TP8 host, long responses avoid the CP decode
regression at the cost of shipping the prompt's whole KV once. One 128K
request per response length runs through the continuous-batching runtime
on :class:`~repro.core.shape_engine.ShapeEngine`, on the same two cells
"Serving under load" uses, so every column is measured: the decode pool
waits for the whole KV before its first round, and the break-even is that
wait over the per-token TTIT saving.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.shape_engine import ShapeModel
from repro.experiments.base import ExperimentResult
from repro.experiments.serving_grid import run_grid
from repro.experiments.serving_load import CELLS, CONTEXT
from repro.model.config import tiny_config
from repro.workloads.generator import ConversationScript


def run() -> ExperimentResult:
    res = ExperimentResult(
        experiment_id="Disaggregation",
        title="One 128K request through the runtime: colocated CP4 vs CP4 prefill + TP8 decode",
        headers=[
            "output tokens",
            "colocated E2E (s)", "disaggregated E2E (s)",
            "colocated p50 TTIT (ms)", "disaggregated p50 TTIT (ms)",
            "winner",
        ],
    )
    prompt = np.zeros(CONTEXT, dtype=np.int64)
    for out_tokens in (4, 16, 64, 256, 1024):
        reports = run_grid(
            res.experiment_id, [ConversationScript(0, [prompt], [out_tokens])], CELLS,
            model=ShapeModel(tiny_config()),
        )
        e2e = {
            mode: rec.finished_at - rec.request.arrival
            for mode, report in reports.items()
            for rec in report.completed.values()
        }
        colo, disagg = reports["colocated"].metrics, reports["disaggregated"].metrics
        res.add_row(
            out_tokens,
            e2e["colocated"],
            e2e["disaggregated"],
            colo.percentile_ttit(50) * 1e3,
            disagg.percentile_ttit(50) * 1e3,
            min(e2e, key=e2e.get),
        )
    # E2E is TTFT + n * TTIT in both modes, plus the wire wait when
    # disaggregated: it wins from the first n whose TTIT saving exceeds the wait
    wait = disagg.transfer_stall_s
    saving = colo.percentile_ttit(50) - disagg.percentile_ttit(50)
    res.notes.append(
        f"Break-even at {math.floor(wait / saving) + 1} output tokens: the decode pool waits "
        f"{wait:.3f} s for the prompt's whole {CONTEXT // 1024}K KV before its first round, "
        f"and each token then saves {saving * 1e3:.1f} ms of TTIT "
        f"({colo.percentile_ttit(50) * 1e3:.1f} vs {disagg.percentile_ttit(50) * 1e3:.1f} ms)."
    )
    res.notes.append(
        "Matches the paper's §4.3 guidance: CP for prefill, decoupled "
        "decode parallelization (Mooncake / DistServe architectures)."
    )
    return res

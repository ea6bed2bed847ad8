"""Extension experiment: preemption remedies under KV capacity pressure.

The runtime's original answer to KV pressure is vLLM-style
*recomputation*: evict a whole conversation and re-prefill its full
history on resume. DistServe/Mooncake-class systems trade HBM for
cheaper remedies instead — dropping only the newest KV blocks
(*tail-trim*: resume re-prefills just the trimmed suffix) or swapping
the victim's KV to host memory over PCIe (*swap*: import it back before
resume, no recompute at all). This experiment replays one multi-session
capacity-pressure trace through the continuous-batching runtime under
all three ``--preemption`` remedies at a sweep of per-rank KV
capacities, with rounds priced for Llama3 405B by the calibrated clock
(prefill at CP-pool TTFT rates, swaps at PCIe bandwidth).

The headline: recompute pays for every eviction twice — once in the
evicted request's re-prefill and again in the queueing delay it inflicts
on everyone behind it — which lands squarely on tail TTFT. Trim halves
that bill (only suffixes re-prefill); swap removes it (a PCIe round
trip costs microseconds per token where re-prefill costs ~0.1 ms/token
at 405B scale). Every mode decodes bit-identical tokens — the remedies
change *timing only*, pinned by ``tests/properties/test_prop_runtime``.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.serving_grid import run_grid
from repro.model.config import tiny_config
from repro.runtime import ServeConfig
from repro.workloads.generator import WorkloadGenerator

#: The remedies compared, in sweep order.
MODES = ("recompute", "trim", "swap")


def run() -> ExperimentResult:
    """Recompute vs tail-trim vs CPU-swap on the same pressured trace.

    Numerics run the tiny model on CP2; the step clock prices rounds (and
    PCIe swaps) for Llama3 405B on CP4 hosts. Every (capacity, mode) cell
    replays the *same* trace and decodes the sequential replay's tokens —
    only the remedy's timing differs.
    """
    res = ExperimentResult(
        experiment_id="Preemption modes",
        title=(
            "5 sessions x 3 turns under KV pressure: recompute vs tail-trim vs "
            "CPU swap (CP2 numerics, CP4 405B pricing)"
        ),
        headers=[
            "KV capacity/rank", "preemption", "full evicts", "trims", "swaps out/in",
            "prefill rounds", "p50 TTFT (s)", "p95 TTFT (s)", "p95 TTIT (ms)",
            "makespan (s)", "goodput (tok/s)",
        ],
    )
    gen = WorkloadGenerator(tiny_config().vocab_size, seed=11)
    scripts = [
        gen.conversation(sid, turns=3, first_prompt=80, followup_range=(8, 16), response_range=(4, 6))
        for sid in range(5)
    ]
    cells = {
        f"capacity {capacity}, {mode}": ServeConfig(capacity=capacity, preemption=mode)
        for capacity in (160, 128, 96)
        for mode in MODES
    }
    reports = run_grid(res.experiment_id, scripts, cells)
    for config, report in zip(cells.values(), reports.values()):
        m = report.metrics
        res.add_row(
            config.capacity, config.preemption, m.preemptions, m.trims,
            f"{m.swaps_out}/{m.swaps_in}", report.prefill_rounds, m.percentile_ttft(50),
            m.percentile_ttft(95), m.percentile_ttit(95) * 1e3, report.makespan,
            report.tokens_per_second(),
        )

    res.notes.append(
        "Same trace, bit-identical tokens in every cell (asserted): the "
        "remedy changes what an eviction costs, never what it computes."
    )
    p95 = res.column("p95 TTFT (s)")
    by_mode = {mode: p95[i :: len(MODES)] for i, mode in enumerate(MODES)}
    cheaper_always_win = all(
        t < r and s < r
        for r, t, s in zip(by_mode["recompute"], by_mode["trim"], by_mode["swap"])
    )
    verdict = (
        "trim and swap beat recompute at every capacity: recompute's "
        "full re-prefills queue ahead of waiting first tokens, trim "
        "re-prefills only trimmed suffixes, and swap replaces recompute "
        "with a PCIe round trip priced in microseconds per token."
        if cheaper_always_win
        else "the cheaper remedies did NOT separate from recompute at "
        "every swept capacity — this parameterization leaves too little "
        "KV pressure for the remedy choice to matter."
    )
    res.notes.append(
        "p95 TTFT by mode (across the capacity sweep): "
        + "; ".join(
            f"{mode}: " + "/".join(f"{v:.2f}s" for v in by_mode[mode])
            for mode in MODES
        )
        + " — " + verdict
    )
    return res

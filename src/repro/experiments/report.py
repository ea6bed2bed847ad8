"""The experiment list: every table, figure and extension, by id."""

from __future__ import annotations

from collections.abc import Callable

from repro.experiments import (
    ablation_allgather,
    ablation_sharding,
    capacity_scaling,
    cluster_routing,
    disaggregation,
    fault_tolerance,
    fig6_prefill_scaling,
    fig7_cp_vs_tp,
    fig8_million_token,
    fig10_heuristic,
    gqa_sensitivity,
    pp_vs_cp,
    preemption_modes,
    prefix_reuse,
    serving_load,
    table2_comm,
    table4_fig9_partial_prefill,
    table5_breakdown,
    table6_ttft_ttit,
    table7_parallelism,
    table8_decode_attention,
)
from repro.experiments.base import ExperimentResult
from repro.perf.hardware import gti_host

Registry = list[tuple[str, Callable[[], ExperimentResult]]]


def registry(*, fast: bool = False) -> Registry:
    """Every experiment as ``(experiment_id, thunk)`` in report order: the
    paper's tables and figures (GTT platform), then the extensions. Nothing
    runs until a thunk is called, so a filter costs only what it selects;
    ``fast`` leaves out the slow sweeps."""
    entries: Registry = [
        ("Table 2", table2_comm.run),
        ("Figure 6a", fig6_prefill_scaling.run),
        ("Figure 6b", lambda: fig6_prefill_scaling.run(gti_host())),
        ("Figure 7", fig7_cp_vs_tp.run),
        ("Figure 8", fig8_million_token.run),
        ("Table 4 / Figure 9", table4_fig9_partial_prefill.run),
        ("Table 5", table5_breakdown.run),
        ("Table 6", table6_ttft_ttit.run),
        ("Table 7", table7_parallelism.run),
        ("Table 8", table8_decode_attention.run),
        ("Figure 10", fig10_heuristic.run),
        ("Ablation: sharding", ablation_sharding.run),
        ("Ablation: all-gather", ablation_allgather.run),
        ("Capacity scaling", capacity_scaling.run),
        ("GQA sensitivity", gqa_sensitivity.run),
        ("Disaggregation", disaggregation.run),
        ("CP vs PP", pp_vs_cp.run),
        ("Preemption modes", preemption_modes.run),
        ("Prefix reuse", prefix_reuse.run),
        ("Fault tolerance", fault_tolerance.run),
        ("Cluster routing", cluster_routing.run),
        ("Serving under load", serving_load.run),
    ]
    slow = {"Figure 10"} if fast else set()
    return [entry for entry in entries if entry[0] not in slow]


def select(only: str = "", *, fast: bool = False) -> Registry:
    """The registry entries whose id contains ``only`` (case-insensitive)."""
    return [entry for entry in registry(fast=fast) if only.lower() in entry[0].lower()]

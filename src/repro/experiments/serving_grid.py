"""The serving experiments' one loop: scripts through ``ServeConfig`` cells.

Each serving experiment replays one scripted trace through a grid of
deployments and reads its columns off the reports. Scheduling may change
timing, never tokens, so every cell is held to the same contract the
property suites pin: its streams equal the sequential replay
(:func:`repro.workloads.replay.divergences`) and its engines audit
leak-free after the drain. The model decides the engines: the tiny
numeric model by default, or a :class:`~repro.core.shape_engine.ShapeModel`
for the paper's context lengths, whose reference replays on shape-only
engines too.
"""

from __future__ import annotations

from repro.core.shape_engine import build_engine
from repro.model.config import llama3_405b_config, tiny_config
from repro.model.llama import LlamaModel
from repro.perf.hardware import HostSpec, gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime import ServeConfig
from repro.workloads.generator import ConversationScript
from repro.workloads.replay import divergences, replay_scripts_sequential, submit_scripts_to_runtime


def run_grid(
    experiment: str, scripts: list[ConversationScript], cells: dict[str, ServeConfig],
    *, model=None, host: HostSpec | None = None, arrivals: list[float] | None = None,
    start_offset_s: float = 1.0, think_time_s: float = 30.0,
) -> dict:
    """Run ``scripts`` through every ``{label: ServeConfig}`` cell.

    Cells share one model (default: the tiny numeric model) and one Llama3
    405B :class:`LatencySimulator` on ``host`` (default: GTT) for pricing;
    each is built fresh with :meth:`ServeConfig.build`, so a cell with
    ``replicas > 1`` is a fleet. ``arrivals`` are the conversations' first
    arrivals (default: ``start_offset_s`` apart). The sequential reference
    is replayed once per prefill world, on engines built from the same
    model.

    Returns:
        ``{label: report}`` in cell order.

    Raises:
        AssertionError: naming ``experiment`` and the cell, when a cell's
            streams diverge from the reference or its KV leaks.
    """
    model = model if model is not None else LlamaModel(tiny_config(), seed=0)
    sim = LatencySimulator(llama3_405b_config(), host if host is not None else gtt_host())
    references: dict[int, dict] = {}
    reports = {}
    for label, config in cells.items():
        target = config.build(model, sim=sim)
        rids = submit_scripts_to_runtime(
            target, scripts, arrivals=arrivals,
            start_offset_s=start_offset_s, think_time_s=think_time_s,
        )
        reports[label] = target.run(max_steps=1_000_000)
        if config.world not in references:
            references[config.world] = replay_scripts_sequential(
                lambda: build_engine(model, config.world), scripts
            )
        problems = divergences(reports[label], rids, references[config.world])
        problems += target.kv_leak_report()
        if problems:
            raise AssertionError(f"{experiment} [{label}]: " + "; ".join(problems))
    return reports

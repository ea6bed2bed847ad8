"""Pipeline-parallel baseline cost model (paper §1's contrast).

The paper's first bullet for CP: *"CP distributes computation across
multiple GPUs in order to reduce latency, in contrast with pipeline
parallelization (PP) that improves throughput but not latency."* This
module prices PP so the contrast is quantitative:

- layers split into ``S`` stages (one host each);
- a single request's tokens flow through all stages sequentially, so
  **TTFT barely improves** (per-layer work is unchanged; only activation
  hand-offs between stages are added);
- with ``M`` micro-batches in flight, steady-state **throughput**
  approaches ``S``x a single host — PP's actual win.

Used by the extension experiment ``pp_vs_cp`` to regenerate the paper's
latency-vs-throughput argument as a table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.config import ModelConfig
from repro.perf.hardware import HostSpec
from repro.perf.latency import LatencySimulator


@dataclass(frozen=True)
class PipelineLatency:
    """One pipeline-parallel prefill estimate.

    Attributes:
        stages: pipeline stages (hosts).
        micro_batches: micro-batches used to fill the pipeline.
        ttft: time to finish one request's prefill (latency).
        steady_throughput: requests/s in the saturated pipeline.
        bubble_fraction: idle fraction of the pipeline for this schedule
            (GPipe bubble ``(S - 1) / (M + S - 1)``).
    """

    stages: int
    micro_batches: int
    ttft: float
    steady_throughput: float
    bubble_fraction: float


def pp_prefill(
    config: ModelConfig,
    host: HostSpec,
    tokens: int,
    *,
    stages: int,
    micro_batches: int = 1,
) -> PipelineLatency:
    """Latency/throughput model for PP prefill of one request.

    One request cannot overlap with itself: its activations visit every
    stage in order, so TTFT ~= single-host compute plus ``S - 1``
    activation hand-offs. Throughput (with enough micro-batches from
    *other* requests) approaches ``S / t_stage``.
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    if micro_batches < 1:
        raise ValueError(f"micro_batches must be >= 1, got {micro_batches}")
    if config.n_layers % stages != 0:
        raise ValueError(f"{config.n_layers} layers not divisible into {stages} stages")

    sim = LatencySimulator(config, host)
    single_host = sim.tp_prefill(tokens, n_nodes=1).total
    stage_time = single_host / stages

    # activation hand-off between consecutive stages: [T, D] once per boundary
    handoff_bytes = tokens * config.model_dim * sim.element_bytes
    handoff = host.message_latency + handoff_bytes / host.ring_bandwidth
    ttft = single_host + (stages - 1) * handoff

    bubble = (stages - 1) / (micro_batches + stages - 1)
    steady_throughput = (1.0 - bubble) * stages / single_host

    return PipelineLatency(
        stages=stages,
        micro_batches=micro_batches,
        ttft=ttft,
        steady_throughput=steady_throughput,
        bubble_fraction=bubble,
    )

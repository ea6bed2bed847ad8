"""Disaggregated prefill/decode serving model (paper §4.3's conclusion).

The paper ends its decode analysis with: *"context parallel is best suited
for improving prefill performance and can be best leveraged with a serving
system that decouples the parallelization scheme for prefill and decode"*
(citing Mooncake and DistServe). This module prices that architecture:

- **Colocated**: one CP-N pool does both phases; prefill is fast, every
  decoded token pays the CP decode regression (Table 7).
- **Disaggregated**: a CP-N prefill pool computes the KV cache, streams it
  to a TP8 decode host (layer-wise, overlappable with ongoing prefill),
  and decode runs at single-host TTIT.

The KV stream is priced by ``LatencySimulator.kv_transfer_s`` at the
host's ring bandwidth — the runtime's transfer price too — so the
break-even analysis is consistent with the rest of the simulator. Layer-wise
transfers start as each layer's prefill finishes, so only the last layer's
``1 / n_layers`` of the stream is exposed on the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.config import ModelConfig
from repro.perf.hardware import HostSpec
from repro.perf.latency import LatencySimulator


@dataclass(frozen=True)
class RequestLatency:
    """End-to-end latency decomposition for one request.

    Attributes:
        mode: ``"colocated"`` or ``"disaggregated"``.
        ttft: prefill latency (plus any exposed KV-transfer tail).
        ttit: per-output-token latency.
        kv_transfer: total KV-stream time (0 when colocated); only the
            non-overlapped tail contributes to ``ttft``.
        total: ``ttft + output_tokens * ttit``.
        output_tokens: decode budget used for ``total``.
    """

    mode: str
    ttft: float
    ttit: float
    kv_transfer: float
    total: float
    output_tokens: int


class DisaggregatedSimulator:
    """Latency model for colocated vs disaggregated CP serving.

    Args:
        config: model architecture.
        host: platform spec (shared by both pools).
        element_bytes: KV element size on the wire/HBM.
    """

    def __init__(self, config: ModelConfig, host: HostSpec, *, element_bytes: float = 2.0):
        self.config = config
        self.sim = LatencySimulator(config, host, element_bytes=element_bytes)

    # ------------------------------------------------------------------ #

    def colocated(self, context: int, output_tokens: int, *, n_ranks: int) -> RequestLatency:
        """One CP-N pool serving both phases."""
        ttft = self.sim.cp_prefill(context, n_ranks=n_ranks).total
        if n_ranks > 1:
            ttit = self.sim.cp_decode(context, n_ranks=n_ranks).total
        else:
            ttit = self.sim.tp_decode(context, n_nodes=1).total
        return RequestLatency(
            mode="colocated",
            ttft=ttft,
            ttit=ttit,
            kv_transfer=0.0,
            total=ttft + output_tokens * ttit,
            output_tokens=output_tokens,
        )

    def disaggregated(self, context: int, output_tokens: int, *, prefill_ranks: int) -> RequestLatency:
        """CP prefill pool + TP8 decode host with layer-overlapped KV stream."""
        prefill = self.sim.cp_prefill(context, n_ranks=prefill_ranks).total
        transfer = self.sim.kv_transfer_s(context)
        exposed_tail = transfer / self.config.n_layers
        ttft = prefill + exposed_tail
        ttit = self.sim.tp_decode(context, n_nodes=1).total
        return RequestLatency(
            mode="disaggregated",
            ttft=ttft,
            ttit=ttit,
            kv_transfer=transfer,
            total=ttft + output_tokens * ttit,
            output_tokens=output_tokens,
        )

    def break_even_output_tokens(self, context: int, *, n_ranks: int) -> int:
        """Output length beyond which disaggregation wins end-to-end.

        Disaggregation pays a KV-transfer tail once but saves
        ``(cp_ttit - tp_ttit)`` on every output token.
        """
        colo = self.colocated(context, 0, n_ranks=n_ranks)
        disagg = self.disaggregated(context, 0, prefill_ranks=n_ranks)
        per_token_saving = colo.ttit - disagg.ttit
        if per_token_saving <= 0:
            return -1
        upfront_cost = disagg.ttft - colo.ttft
        return max(0, int(upfront_cost / per_token_saving) + 1)

"""Simulated step-time pricing for the serving runtime.

The runtime's engine rounds are numerically real but wall-clock meaningless
(tiny NumPy models), so request latencies are accounted in *simulated*
seconds: every executed round advances a clock by a priced duration. Two
pricers:

- :class:`UnitStepClock` — every round costs a fixed amount. Deterministic
  and model-free; the default for tests.
- :class:`SimulatedStepClock` — rounds are priced by the calibrated
  :class:`repro.perf.latency.LatencySimulator` for a *modeled* deployment
  (e.g. Llama3 405B on GTT hosts), independent of the tiny model actually
  producing the tokens. This is the same numerics-at-test-scale /
  latency-at-paper-scale split the rest of the repository uses: the
  runtime exercises real scheduling and exact attention, while TTFT/TTIT
  land in the regime the paper reports (§4.3).

Pricing conventions (documented approximations):

- A fused prefill round with per-sequence ``(T_i, P_i)`` chunks is priced
  as one varseq round of ``sum(T_i)`` new tokens against the *deepest*
  cached context ``max(P_i)`` — the max-pacing convention decode rounds
  use too.
- A decode round is priced at the batched CP decode TTIT of the longest
  context in the batch (or single-host TP TTIT when the clock prices a
  dedicated decode pool, §4.3).
- A pool-to-pool KV transfer of ``n`` tokens is priced at full-stream
  bandwidth cost (``LatencySimulator.kv_transfer_s``: ``n *
  kv_bytes_per_token / ring_bandwidth``). A turn's whole KV ships after
  its prefill and lands before its first decode round; both pools keep
  running rounds meanwhile. This is the one model of §4.3's KV stream;
  layer-wise streaming would belong in :class:`repro.runtime.transfer
  .KVTransferStream`.
- A CPU-side KV swap of ``n`` tokens (the runtime's ``--preemption swap``
  remedy: DMA the victim's KV to host DRAM instead of recomputing it) is
  priced at PCIe-bandwidth cost (``LatencySimulator.kv_swap_s``: ``n *
  kv_bytes_per_token / pcie_bandwidth``), charged once per direction.
  The swapping pool stalls for the DMA — the honest price DistServe /
  Mooncake-class systems pay for trading HBM against host memory.
- Fault-retry backoff delays (:meth:`repro.runtime.faults.FaultPlan
  .backoff`) are raw simulated seconds added to a rescheduled
  transfer's requested time — they are wall-style waiting, not priced
  work, so neither clock is consulted for them.
"""

from __future__ import annotations

from repro.perf.latency import LatencySimulator


class UnitStepClock:
    """Fixed-cost pricing: deterministic, model-free.

    Args:
        prefill_cost: simulated seconds per prefill round.
        decode_cost: simulated seconds per decode round.
        transfer_cost: simulated seconds per (non-empty) pool-to-pool KV
            transfer; zero-token transfers are free.
        swap_cost: simulated seconds per (non-empty) device<->host KV
            swap direction; zero-token swaps are free.
    """

    def __init__(
        self,
        *,
        prefill_cost: float = 1.0,
        decode_cost: float = 1.0,
        transfer_cost: float = 1.0,
        swap_cost: float = 1.0,
    ):
        if prefill_cost <= 0 or decode_cost <= 0:
            raise ValueError("round costs must be > 0")
        if transfer_cost < 0:
            raise ValueError("transfer_cost must be >= 0")
        if swap_cost < 0:
            raise ValueError("swap_cost must be >= 0")
        self.prefill_cost = prefill_cost
        self.decode_cost = decode_cost
        self.transfer_cost = transfer_cost
        self.swap_cost = swap_cost

    def price_prefill(self, chunks: list[tuple[int, int]]) -> float:
        """Cost of one fused prefill round of ``[(T_i, P_i), ...]`` chunks."""
        if not chunks:
            raise ValueError("cannot price an empty prefill round")
        return self.prefill_cost

    def price_decode(self, contexts: list[int]) -> float:
        """Cost of one decode round over the given per-sequence contexts."""
        if not contexts:
            raise ValueError("cannot price an empty decode round")
        return self.decode_cost

    def price_transfer(self, tokens: int) -> float:
        """Cost of streaming ``tokens`` of KV between pools."""
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return self.transfer_cost if tokens else 0.0

    def price_swap(self, tokens: int) -> float:
        """Cost of moving ``tokens`` of KV one way across the host bus."""
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return self.swap_cost if tokens else 0.0


class SimulatedStepClock:
    """Calibrated pricing through the analytic latency model.

    Args:
        sim: latency model for the deployment being simulated.
        n_ranks: CP pool size the prices assume (need not equal the
            numeric engine's world size — numerics run at test scale, the
            clock prices the modeled production deployment).
        tp_decode: price decode rounds at single-host TP TTIT instead of
            CP — what a dedicated decode host delivers in the
            disaggregated architecture (§4.3 / DistServe / Mooncake).
    """

    def __init__(self, sim: LatencySimulator, *, n_ranks: int, tp_decode: bool = False):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.sim = sim
        self.n_ranks = n_ranks
        self.tp_decode = tp_decode

    def price_prefill(self, chunks: list[tuple[int, int]]) -> float:
        if not chunks:
            raise ValueError("cannot price an empty prefill round")
        new_tokens = sum(t for t, _ in chunks)
        cached = max(p for _, p in chunks)
        return self.sim.cp_prefill(new_tokens, cached, n_ranks=self.n_ranks).total

    def price_decode(self, contexts: list[int]) -> float:
        if not contexts:
            raise ValueError("cannot price an empty decode round")
        if self.tp_decode:
            return self.sim.tp_decode(max(contexts), batch=len(contexts), n_nodes=1).total
        return self.sim.cp_decode(
            max(contexts), batch=len(contexts), n_ranks=self.n_ranks
        ).total

    def price_transfer(self, tokens: int) -> float:
        """Full-stream KV transfer cost at calibrated ring bandwidth."""
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return self.sim.kv_transfer_s(tokens)

    def price_swap(self, tokens: int) -> float:
        """One-way device<->host KV swap cost at PCIe bandwidth.

        Charged per direction (swap-out and swap-in each pay it), which
        is what makes swap a priced alternative to recompute: cheaper
        than re-prefilling long histories, never free.
        """
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return self.sim.kv_swap_s(tokens)

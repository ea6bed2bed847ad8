"""Analytic TTFT/TTIT simulator for CP and multi-node TP.

Implements the paper's own performance analysis (§3.4, Appendices A/C) as an
executable model:

- **Compute** is roofline: GEMM FLOPs over achieved GEMM rate, exact causal
  attention FLOPs over achieved attention rate, both divided across ranks
  (load-balanced sharding makes the division exact, §3.5.1).
- **Ring communication** is alpha-beta per hop; a ring step's wall time is
  ``max(attention chunk, SendRecv)`` — communication hides under compute
  exactly when Equations (2)/(3) say it should.
- **pass-Q All2All** and the TP baseline's **AllReduce** sit on the critical
  path (Appendix C), so they add, never hide.
- **Decode** is memory-bound: weight streaming plus per-layer KV reads with
  a kernel-launch floor, matching Table 8's measured attention ops.

All constants live in :mod:`repro.perf.hardware` with their calibration
provenance; regression tests pin the model against the paper's anchors.
"""

from __future__ import annotations

from repro.core.heuristics import HeuristicConfig, RingAlgo
from repro.model.config import ModelConfig
from repro.perf.breakdown import DecodeLatency, PrefillLatency
from repro.perf.flops import attention_flops, gemm_flops, weight_bytes
from repro.perf.hardware import HostSpec
from repro.perf.roofline import ELEMENT_BYTES, all2all_bytes, kv_bytes, q_bytes


class LatencySimulator:
    """Closed-form latency model for one (model, host platform) pair.

    Args:
        config: model architecture (use :func:`repro.model.llama3_405b_config`
            for paper-faithful numbers).
        host: platform spec (:func:`repro.perf.gtt_host` or
            :func:`repro.perf.gti_host`).
    """

    #: wire/KV element size ``e`` (BF16)
    element_bytes = ELEMENT_BYTES

    def __init__(self, config: ModelConfig, host: HostSpec):
        self.config = config
        self.host = host

    # ------------------------------------------------------------------ #
    # prefill
    # ------------------------------------------------------------------ #

    def cp_prefill(
        self,
        new_tokens: int,
        cached_tokens: int = 0,
        *,
        n_ranks: int = 1,
        algo: RingAlgo | None = None,
    ) -> PrefillLatency:
        """TTFT for a CP prefill round of one sequence.

        Args:
            new_tokens: ``T`` per sequence.
            cached_tokens: ``P`` per sequence (0 = full prefill).
            n_ranks: CP ranks (hosts).
            algo: force a ring variant; ``None`` simulates both and returns
                the faster (what the tuned production heuristic achieves).
        """
        if algo is None:
            kv = self.cp_prefill(
                new_tokens, cached_tokens, n_ranks=n_ranks, algo=RingAlgo.PASS_KV
            )
            if n_ranks == 1:
                return kv
            qq = self.cp_prefill(
                new_tokens, cached_tokens, n_ranks=n_ranks, algo=RingAlgo.PASS_Q
            )
            return kv if kv.total <= qq.total else qq

        self._check(new_tokens, n_ranks, 1)
        cfg, host = self.config, self.host
        layers = cfg.n_layers

        gemm_total = gemm_flops(cfg, new_tokens) / (n_ranks * host.gemm_flops)
        attn_total = attention_flops(cfg, new_tokens, cached_tokens) / (n_ranks * host.attn_flops)
        attn_per_iter = attn_total / (layers * n_ranks)

        if n_ranks > 1:
            if algo is RingAlgo.PASS_KV:
                shard = kv_bytes(cfg, new_tokens, cached_tokens) / n_ranks
            else:
                shard = q_bytes(cfg, new_tokens) / n_ranks
            sendrecv = host.sendrecv_s(shard)
        else:
            sendrecv = 0.0

        exposed_per_layer = (n_ranks - 1) * max(0.0, sendrecv - attn_per_iter)
        ring_per_layer = attn_per_iter + (n_ranks - 1) * max(attn_per_iter, sendrecv)

        a2a_total = 0.0
        if algo is RingAlgo.PASS_Q and n_ranks > 1:
            tokens_per_rank = new_tokens / n_ranks
            bytes_per_rank = all2all_bytes(cfg, tokens_per_rank, n_ranks)
            a2a_total = layers * host.all2all_s(bytes_per_rank, n_ranks)

        overhead = self._elementwise_time(new_tokens / n_ranks)
        if n_ranks > 1:
            overhead += layers * host.ring_setup_per_layer
        total = gemm_total + layers * ring_per_layer + a2a_total + overhead
        return PrefillLatency(
            algo=algo.value,
            n_ranks=n_ranks,
            gemm=gemm_total,
            attn=attn_total,
            sendrecv_per_iter=sendrecv,
            attn_per_iter=attn_per_iter,
            exposed_comm=layers * exposed_per_layer,
            all2all=a2a_total,
            allreduce=0.0,
            overhead=overhead,
            total=total,
        )

    def tp_prefill(self, tokens: int, *, n_nodes: int = 1) -> PrefillLatency:
        """TTFT for the multi-node tensor-parallel baseline (§4.2.2), one sequence.

        Compute parallelizes perfectly over ``8 * n_nodes`` GPUs (KV heads
        replicated as needed), but each block's two activation AllReduces
        cross the inter-node fabric and sit on the critical path once
        ``n_nodes > 1``.
        """
        self._check(tokens, n_nodes, 1)
        cfg, host = self.config, self.host
        layers = cfg.n_layers

        gemm_total = gemm_flops(cfg, tokens) / (n_nodes * host.gemm_flops)
        attn_total = attention_flops(cfg, tokens, 0) / (n_nodes * host.attn_flops)

        allreduce_total = 0.0
        if n_nodes > 1:
            activation = tokens * cfg.model_dim * self.element_bytes
            allreduce_total = layers * 2 * host.allreduce_s(activation, n_nodes)

        overhead = self._elementwise_time(tokens / n_nodes)
        total = gemm_total + attn_total + allreduce_total + overhead
        return PrefillLatency(
            algo="tp",
            n_ranks=n_nodes,
            gemm=gemm_total,
            attn=attn_total,
            sendrecv_per_iter=0.0,
            attn_per_iter=attn_total / layers,
            exposed_comm=allreduce_total,
            all2all=0.0,
            allreduce=allreduce_total,
            overhead=overhead,
            total=total,
        )

    # ------------------------------------------------------------------ #
    # decode
    # ------------------------------------------------------------------ #

    def cp_decode(self, context: int, *, batch: int = 1, n_ranks: int = 1) -> DecodeLatency:
        """TTIT for CP decode (ring pass-Q, Algorithm 4; §4.3).

        Per layer the attention path is: ``N`` partial attention ops over
        the rank's ``context / N`` KV shard for ``ceil(B / N)`` (padded)
        queries, ``N - 1`` latency-bound Q SendRecvs, and the output
        All2All — Table 8's rows, reproduced field by field.
        """
        self._check(context, n_ranks, batch)
        cfg, host, e = self.config, self.host, self.element_bytes
        layers = cfg.n_layers
        gpu = host.gpu

        weights = weight_bytes(cfg) / host.hbm_bandwidth
        eff_context = context // n_ranks
        queries_per_rank = -(-batch // n_ranks)

        # Per-GPU KV read: each GPU holds NKV / gpus_per_host heads' slice.
        kv_read_bytes = (
            queries_per_rank
            * 2.0
            * eff_context
            * cfg.kv_dim
            * e
            / host.gpus_per_host
        )
        attn_op = gpu.kernel_launch_overhead + kv_read_bytes / gpu.hbm_bandwidth
        attn_ring = n_ranks * attn_op

        if n_ranks > 1:
            q_msg = queries_per_rank * cfg.model_dim * e / host.gpus_per_host
            sendrecv = (n_ranks - 1) * host.sendrecv_s(q_msg)
            a2a_bytes = (n_ranks - 1) * queries_per_rank * (cfg.model_dim + 1) * e
            # Not host.all2all_s: the 2.5-message latency is fit to Table 8's
            # measured decode All2All, not counted per peer.
            all2all = 2.5 * host.message_latency + a2a_bytes / host.all2all_bandwidth
        else:
            sendrecv = 0.0
            all2all = 0.0

        whole = attn_ring + sendrecv + all2all
        overhead = layers * host.decode_layer_overhead
        total = weights + layers * whole + overhead
        return DecodeLatency(
            algo="pass-q",
            n_ranks=n_ranks,
            effective_context=eff_context,
            weights=weights,
            attn_op=attn_op,
            attn_ring=attn_ring,
            sendrecv=sendrecv,
            all2all=all2all,
            whole_attn=whole,
            overhead=overhead,
            total=total,
        )

    def tp_decode(self, context: int, *, batch: int = 1, n_nodes: int = 1) -> DecodeLatency:
        """TTIT for the TP baseline: weight streaming parallelizes over all
        GPUs, KV heads are replicated (each GPU still reads a full-context
        slice of its head), and two latency-bound AllReduces per layer cross
        nodes when ``n_nodes > 1``."""
        self._check(context, n_nodes, batch)
        cfg, host, e = self.config, self.host, self.element_bytes
        layers = cfg.n_layers
        gpu = host.gpu

        weights = weight_bytes(cfg) / (n_nodes * host.hbm_bandwidth)
        kv_read_bytes = batch * 2.0 * context * cfg.kv_dim * e / host.gpus_per_host
        attn_op = gpu.kernel_launch_overhead + kv_read_bytes / gpu.hbm_bandwidth

        allreduce = 0.0
        if n_nodes > 1:
            allreduce = 2 * (n_nodes - 1) * host.allreduce_latency

        whole = attn_op + allreduce
        overhead = layers * host.decode_layer_overhead
        total = weights + layers * whole + overhead
        return DecodeLatency(
            algo="tp",
            n_ranks=n_nodes,
            effective_context=context,
            weights=weights,
            attn_op=attn_op,
            attn_ring=attn_op,
            sendrecv=0.0,
            all2all=allreduce,
            whole_attn=whole,
            overhead=overhead,
            total=total,
        )

    # ------------------------------------------------------------------ #
    # KV moves
    # ------------------------------------------------------------------ #

    def kv_transfer_s(self, tokens: int) -> float:
        """Stream ``tokens`` of KV between pools at ring bandwidth."""
        return tokens * self.config.kv_bytes_per_token() / self.host.ring_bandwidth

    def kv_swap_s(self, tokens: int) -> float:
        """Move ``tokens`` of KV one way between HBM and host DRAM."""
        return tokens * self.config.kv_bytes_per_token() / self.host.pcie_bandwidth

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _elementwise_time(self, tokens_per_rank: float) -> float:
        """Non-GEMM token-wise prefill work (norms, RoPE, residuals, cache
        writes), modelled as ``elementwise_passes`` HBM sweeps over the
        activation per layer."""
        host = self.host
        bytes_per_layer = tokens_per_rank * self.config.model_dim * self.element_bytes
        return (
            self.config.n_layers
            * host.elementwise_passes
            * bytes_per_layer
            / host.hbm_bandwidth
        )

    def heuristic_config(self, n_ranks: int) -> HeuristicConfig:
        """Static :class:`HeuristicConfig` matching this simulator's
        hardware, for driving Algorithms 1/5 consistently with the model."""
        return HeuristicConfig(
            n_heads=self.config.n_heads,
            n_kv_heads=self.config.n_kv_heads,
            element_bytes=self.element_bytes,
            peak_compute=self.host.attn_flops,
            bandwidth=self.host.ring_bandwidth,
            world_size=n_ranks,
        )

    @staticmethod
    def _check(tokens: int, ranks: int, batch: int) -> None:
        if tokens < 1:
            raise ValueError(f"token count must be >= 1, got {tokens}")
        if ranks < 1:
            raise ValueError(f"rank count must be >= 1, got {ranks}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")

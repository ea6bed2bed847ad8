"""Hardware specifications and the provenance of their calibration.

The paper's platforms (§4.1):

- **H100 (power-limited)**: 96 GB HBM2e at 2.4 TB/s, BF16 peak 800 TF/s
  (vs 989 TF/s for the 700 W HBM3 part — Appendix A caveat).
- **GTT** hosts: backend RDMA at 400 Gb/s per GPU.
- **GTI** hosts: frontend TCP at 100 Gb/s per GPU, ~3 GB/s/rank achieved.

Achieved-rate constants below are *fit once* against the paper's published
measurements and then reused for every experiment (no per-table tuning):

- attention 540 TF/s/GPU — the paper's own standalone FA3 measurement
  (Appendix A).
- GEMM 560 TF/s/GPU — fit so TP8 128K full-prefill TTFT ≈ 42 s (Table 6).
- ring SendRecv 220 GB/s/host on GTT — fit from Table 5's 627 us
  per-iteration SendRecv of a 131 MB KV shard (≈0.55 of the 300 GB/s
  8-NIC line rate).
- All2All 300 GB/s/host on GTT — fit from Table 5's 1023 us All2All at
  T = 12800, CP4.
- per-message latency 32 us — Table 8's CP2 decode SendRecv.
- elementwise-pass count 56 — the non-GEMM token-wise work per layer
  (norms, RoPE, residual adds, KV-cache writes: ~7 logical activation
  sweeps, executed by small kernels at roughly 1/8 of peak HBM
  bandwidth). Fit from the TP8 TTFT residuals at 8K/32K/128K, which grow
  ~linearly in T (0.18 s / 0.65 s / 1.65 s).
- ring setup 5.5 ms/layer when CP spans multiple hosts — the fixed
  multi-host orchestration cost visible as the T-independent residual of
  the CP2..CP8 and Table 4 partial-prefill TTFTs.
- decode per-layer overhead 130 us and 7 us kernel-launch floor — fit
  from Tables 6/8 TTIT decompositions.

:class:`HostSpec` is the one description of the wire. Its per-message
formulas (:meth:`HostSpec.sendrecv_s`, :meth:`HostSpec.all2all_s`,
:meth:`HostSpec.allreduce_s`) are what both
:class:`repro.perf.latency.LatencySimulator` and the simulated process
group's collective spans (:mod:`repro.distributed.process_group`, at
:func:`gtt_host` constants) charge.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """One accelerator's achieved-rate envelope.

    Attributes:
        name: marketing name.
        achieved_attn_flops: attention FLOP/s actually sustained (FA3).
        achieved_gemm_flops: dense linear-layer FLOP/s sustained (FP8).
        peak_flops: spec-sheet peak used for utilization reporting.
        hbm_bandwidth: memory bandwidth in bytes/s.
        hbm_capacity: memory capacity in bytes.
        kernel_launch_overhead: per-kernel latency floor (seconds) under
            CUDA Graphs, visible in decode's tiny attention ops (Table 8).
    """

    name: str
    achieved_attn_flops: float = 540e12
    achieved_gemm_flops: float = 560e12
    peak_flops: float = 800e12
    hbm_bandwidth: float = 2.4e12
    hbm_capacity: float = 96e9
    kernel_launch_overhead: float = 7e-6


@dataclass(frozen=True)
class HostSpec:
    """One CP rank: a TP-group host plus its network personality.

    Attributes:
        name: platform name (GTT / GTI).
        gpu: the accelerator spec.
        gpus_per_host: TP group size (paper: 8).
        ring_bandwidth: achieved host-level bandwidth for CP ring SendRecv
            (aggregate of the per-KV-head channels), bytes/s.
        all2all_bandwidth: achieved host-level bandwidth for the pass-Q
            output All2All, bytes/s.
        message_latency: per-message inter-host latency (seconds).
        allreduce_bandwidth: effective inter-node bandwidth for the TP
            baseline's activation AllReduce, bytes/s.
        allreduce_latency: per-AllReduce-hop latency (seconds).
        pcie_bandwidth: achieved host-level device<->host-DRAM bandwidth
            for KV offload traffic (the runtime's ``--preemption swap``
            remedy), bytes/s. Conservatively one PCIe Gen5 x16 link's
            practical ~56 GB/s: per-GPU DMAs fan out in parallel but
            contend with NIC traffic and host-memory bandwidth, so the
            sustained host aggregate lands near a single link.
        elementwise_passes: *effective* HBM passes over the activation per
            layer spent on non-GEMM token-wise work (norms, RoPE,
            residuals, cache writes), already derated for the low achieved
            bandwidth of small elementwise kernels; the per-token prefill
            overhead.
        ring_setup_per_layer: fixed per-layer orchestration cost when CP
            spans multiple hosts (s).
        decode_layer_overhead: fixed per-layer decode overhead (s).
    """

    name: str
    gpu: GPUSpec
    gpus_per_host: int = 8
    ring_bandwidth: float = 220e9
    all2all_bandwidth: float = 300e9
    message_latency: float = 32e-6
    allreduce_bandwidth: float = 140e9
    allreduce_latency: float = 30e-6
    pcie_bandwidth: float = 56e9
    elementwise_passes: float = 56.0
    ring_setup_per_layer: float = 5.5e-3
    decode_layer_overhead: float = 0.13e-3

    @property
    def attn_flops(self) -> float:
        """Host-level achieved attention FLOP/s."""
        return self.gpus_per_host * self.gpu.achieved_attn_flops

    @property
    def gemm_flops(self) -> float:
        """Host-level achieved GEMM FLOP/s."""
        return self.gpus_per_host * self.gpu.achieved_gemm_flops

    @property
    def hbm_bandwidth(self) -> float:
        """Host-level aggregate HBM bandwidth."""
        return self.gpus_per_host * self.gpu.hbm_bandwidth

    def sendrecv_s(self, nbytes: float) -> float:
        """One ring SendRecv of ``nbytes`` between two CP ranks."""
        return self.message_latency + nbytes / self.ring_bandwidth

    def all2all_s(self, nbytes: float, n_ranks: int) -> float:
        """An All2All in which the busiest rank sends ``nbytes`` in total
        to its ``n_ranks - 1`` peers, one message each."""
        return (n_ranks - 1) * self.message_latency + nbytes / self.all2all_bandwidth

    def allreduce_s(self, nbytes: float, n_ranks: int) -> float:
        """A ring AllReduce of an ``nbytes`` array over ``n_ranks`` hosts."""
        return (
            2.0 * nbytes * (n_ranks - 1) / n_ranks / self.allreduce_bandwidth
            + self.allreduce_latency * (n_ranks - 1)
        )


def gtt_host() -> HostSpec:
    """Grand Teton Training host: 8xH100, 400 Gb/s RDMA per GPU."""
    return HostSpec(name="GTT", gpu=GPUSpec(name="H100-96GB-500W"))


def gti_host() -> HostSpec:
    """Grand Teton Inference host: 8xH100, 100 Gb/s TCP per GPU.

    The paper's traces show ~3 GB/s achieved per rank (GPU) over TCP, i.e.
    24 GB/s per host for both ring and All2All traffic, with higher
    per-message latency than RDMA.
    """
    return HostSpec(
        name="GTI",
        gpu=GPUSpec(name="H100-96GB-500W"),
        ring_bandwidth=24e9,
        all2all_bandwidth=24e9,
        message_latency=60e-6,
    )


"""Capacity planning for million-token inference with the analytic model.

Answers the deployment question the paper's evaluation answers with 128
GPUs: *how many CP hosts does a 405B model need to prefill a given context
within a latency SLA?* Uses the calibrated latency simulator (Figures 6-8)
plus KV-capacity accounting to print a plan per context length.

Run:  python examples/million_token_planning.py
"""

from repro import LatencySimulator, gtt_host, llama3_405b_config
from repro.perf.flops import achieved_flops_per_gpu, mfu, model_flops


def plan(context: int, sla_seconds: float, sim: LatencySimulator) -> dict:
    """Smallest CP rank count meeting the SLA (and fitting the KV cache)."""
    cfg, host = sim.config, sim.host
    kv_per_token = cfg.kv_bytes_per_token()
    # ~70% of HBM available for KV after FP8 weights + activations
    hbm_for_kv = 0.70 * host.gpus_per_host * host.gpu.hbm_capacity - kv_per_token * 0

    for n in (1, 2, 4, 8, 16, 32):
        ttft = sim.cp_prefill(context, n_ranks=n).total
        kv_bytes_per_rank = context * kv_per_token / n
        weights_bytes = 405e9  # FP8 per rank (TP8-sharded inside)
        fits = kv_bytes_per_rank + weights_bytes < host.gpus_per_host * host.gpu.hbm_capacity * 0.9
        if ttft <= sla_seconds and fits:
            flops = model_flops(cfg, context)
            gpus = n * host.gpus_per_host
            return {
                "context": context,
                "ranks": n,
                "gpus": gpus,
                "ttft": ttft,
                "kv_gb_per_rank": kv_bytes_per_rank / 1e9,
                "tf_per_gpu": achieved_flops_per_gpu(flops, ttft, gpus) / 1e12,
                "mfu": mfu(flops, ttft, gpus, host.gpu.peak_flops),
            }
    return {"context": context, "ranks": None}


def main() -> None:
    sim = LatencySimulator(llama3_405b_config(), gtt_host())
    sla = 100.0  # seconds to first token

    print(f"Planning Llama3 405B prefill on GTT hosts, TTFT SLA = {sla:.0f}s")
    print(f"{'context':>10} {'CP ranks':>9} {'GPUs':>5} {'TTFT (s)':>9} "
          f"{'KV GB/rank':>11} {'TF/s/GPU':>9} {'MFU':>6}")
    for context in (131072, 262144, 524288, 1_048_576, 2_097_152):
        p = plan(context, sla, sim)
        if p["ranks"] is None:
            print(f"{context:>10}  -- no configuration meets the SLA --")
            continue
        print(
            f"{p['context']:>10} {p['ranks']:>9} {p['gpus']:>5} {p['ttft']:>9.1f} "
            f"{p['kv_gb_per_rank']:>11.0f} {p['tf_per_gpu']:>9.0f} {p['mfu']:>6.1%}"
        )

    print()
    print("Decode-side trade-off at 128K (TTIT, batch 1):")
    for n in (1, 2, 4):
        d = sim.cp_decode(131072, n_ranks=n) if n > 1 else sim.tp_decode(131072, n_nodes=1)
        print(f"  CP{n}: TTIT = {d.total * 1e3:6.2f} ms "
              f"(attention path {d.whole_attn * 1e6:6.1f} us/layer)")
    print("-> CP accelerates prefill; pair it with disaggregated decode "
          "(paper Section 4.3).")


if __name__ == "__main__":
    main()

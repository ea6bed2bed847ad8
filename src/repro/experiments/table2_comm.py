"""Table 2 + Table 3: TP-vs-CP communication and memory cost per block."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config
from repro.perf.flops import attention_flops, gemm_flops
from repro.perf.roofline import kv_bytes, q_bytes, tp_block_comm_bytes


def run() -> ExperimentResult:
    """Regenerate Table 2's per-block comm comparison for Llama3 405B at 128K.

    Reports elements moved per transformer block (the paper's unit), the
    TP/CP ratio, and parameter-memory scaling — plus Table 3's FLOP and byte
    quantities for full vs partial prefill.
    """
    cfg, tokens = llama3_405b_config(), 131072
    res = ExperimentResult(
        experiment_id="Table 2",
        title=f"TP vs CP per-block communication, T={tokens}",
        headers=["quantity", "TP", "CP (pass-KV)", "TP / CP"],
    )
    tp = tp_block_comm_bytes(cfg, tokens, element_bytes=1.0)  # elements
    cp = kv_bytes(cfg, tokens, 0, element_bytes=1.0)
    res.add_row("comm elements / block", tp, cp, tp / cp)
    res.add_row(
        "parameter bytes / GPU",
        "W / N_TP",
        "W per CP rank (TP-sharded inside)",
        "-",
    )
    res.notes.append(
        "TP AllReduces the activation around both linear pairs (2 * T * NH * DH); "
        "CP moves only K and V (2 * T * NKV * DH) - a "
        f"{cfg.n_heads / cfg.n_kv_heads:.0f}x advantage before the linear-layer count is considered."
    )

    # Table 3 quantities for a partial-prefill example
    t, p = tokens // 10, tokens - tokens // 10
    res.notes.append(
        f"Table 3 at T={t}, P={p}: FLOPS={attention_flops(cfg, t, p) / cfg.n_layers:.3e}/layer, "
        f"Q bytes={q_bytes(cfg, t):.3e}, KV bytes={kv_bytes(cfg, t, p):.3e} "
        f"(GEMM total {gemm_flops(cfg, t):.3e} FLOPs)."
    )
    return res

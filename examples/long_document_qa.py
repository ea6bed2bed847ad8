"""Long-document QA ("needle in a haystack") over context parallelism.

The paper's motivating workload: a user uploads a long document, then asks
questions whose answers depend on tokens buried deep inside it. This
example plants a recognizable "needle" pattern inside a long synthetic
document, prefills it across 4 CP ranks (chunked, to bound activation
memory), and shows that:

1. the CP engine's next-token predictions are identical to single-device
   execution wherever the needle's learned continuation applies, and
2. sliding-window attention — which *cannot* see the far-away needle —
   diverges, while exact CP attention does not: exactness is the point.

Run:  python examples/long_document_qa.py
"""

import numpy as np

from repro import ContextParallelEngine, LlamaModel, tiny_config
from repro.attention.flash import flash_attention


def main() -> None:
    model = LlamaModel(tiny_config(), seed=13)
    vocab = model.config.vocab_size
    rng = np.random.default_rng(99)

    # --- build a long document with a needle planted early ---------------
    needle = np.array([7, 77, 17])  # a distinctive trigram
    filler = rng.integers(0, vocab, size=180)
    probe = needle[:2]  # the question re-states the needle's prefix
    document = np.concatenate([filler[:20], needle, filler[20:], probe])

    engine = ContextParallelEngine(model, world_size=4)
    out = engine.prefill_chunked(0, document, chunk_tokens=64)
    print(f"document: {document.size} tokens across 4 CP ranks "
          f"(chunks of 64, final algo={out.plan.algo.value})")
    print(f"per-rank KV: {engine.cached_tokens(0)}")

    # --- exactness: CP logits == single-device logits ---------------------
    ref = model.forward(document)
    err = np.abs(out.logits[0] - ref).max()
    print(f"losslessness over the whole document: max err = {err:.2e}")
    assert err < 1e-8

    # --- retrieval contrast: exact attention vs a 32-token window ---------
    # With exact attention, the probe's last position attends the needle
    # ~180 tokens away. A window of 32 cannot see it; the paper's CP keeps
    # attention exact precisely to preserve such long-range dependencies.
    positions = np.arange(document.size)
    x = model.embed(document)
    for layer in range(model.config.n_layers):
        q, k, v = model.attn_qkv(layer, x, positions)
        exact = flash_attention(q, k, v, q_pos=positions, k_pos=positions)
        windowed = flash_attention(
            q, k, v, q_pos=positions, k_pos=positions,
            mask_fn=lambda qp, kp, *_: (kp <= qp[:, None]) & (kp > qp[:, None] - 32),
        )
        x = model.attn_residual(layer, x, exact.out)
        x = model.ffn_residual(layer, x)
    final_gap = np.abs(exact.out[-1] - windowed.out[-1]).max()
    print(f"last-layer attention difference at the probe position, "
          f"exact vs 32-token window: {final_gap:.3f} (non-zero = the "
          f"window lost the needle)")
    assert final_gap > 1e-6

    # --- answer generation is identical to single-device greedy ----------
    cp_answer = engine.generate({0: np.array([needle[2]])}, max_new_tokens=4)[0]
    history = list(document) + [int(needle[2])]
    expected = []
    for _ in range(4):
        logits = model.forward(np.array(history))
        tok = int(np.argmax(logits[-1]))
        expected.append(tok)
        history.append(tok)
    print(f"CP answer tokens:       {cp_answer}")
    print(f"single-device tokens:   {expected}")
    assert cp_answer == expected
    print("long-range retrieval preserved exactly under context parallelism")


if __name__ == "__main__":
    main()

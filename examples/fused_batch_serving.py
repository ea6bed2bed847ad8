"""Fused variable-length batch serving through the chunked-prefill policy.

Drives the serving stack's round builder by hand: ChunkedPrefillPolicy
packs a FIFO of mixed-length prompts into fused varseq rounds (Figure 1)
under a token budget — whole prompts while they fit, the rest of one that
does not as a partial-prefill chunk in the next round. Each round runs one
context-parallel prefill over the shared engine, and every sequence whose
prompt completes then decodes a short response. Demonstrates that fusion
and chunking preserve per-sequence exactness and that the KV cache stays
balanced across ranks.

Run:  python examples/fused_batch_serving.py
"""

import numpy as np

from repro import ContextParallelEngine, LlamaModel, tiny_config
from repro.model.sampling import sample_greedy
from repro.serving.scheduler import ChunkedPrefillPolicy
from repro.workloads.generator import WorkloadGenerator


def main() -> None:
    model = LlamaModel(tiny_config(), seed=5)
    engine = ContextParallelEngine(model, world_size=3)
    gen = WorkloadGenerator(model.config.vocab_size, seed=9)

    policy = ChunkedPrefillPolicy(chunk_tokens=64, max_tokens_per_round=96, max_seqs_per_round=4)
    lengths = [40, 18, 33, 25, 61, 12]
    prompts = {sid: gen.prompt(n) for sid, n in enumerate(lengths)}
    done = dict.fromkeys(prompts, 0)  # prompt tokens prefilled so far
    print(f"queued {len(prompts)} requests, lengths {lengths}")

    round_idx = 0
    while round_ := policy.build_round([(sid, p.size - done[sid]) for sid, p in prompts.items()]):
        chunks = {
            c.seq_id: prompts[c.seq_id][done[c.seq_id] : done[c.seq_id] + c.tokens] for c in round_
        }
        out = engine.prefill(chunks)
        print(
            f"round {round_idx}: fused {[(c.seq_id, c.tokens) for c in round_]} "
            f"({sum(c.tokens for c in round_)} tokens) algo={out.plan.algo.value}"
        )

        # per-sequence exactness inside the fused round: each chunk's logits
        # equal a single-device forward over its prompt so far
        for sid, chunk in chunks.items():
            lo, hi = done[sid], done[sid] + chunk.size
            ref = model.forward(prompts[sid][:hi])[lo:]
            err = np.abs(out.logits[sid] - ref).max()
            assert err < 1e-9, f"sequence {sid} diverged: {err}"
            done[sid] = hi

        # short batched decode for the sequences whose prompt completed
        next_tokens = {
            sid: int(sample_greedy(out.last_logits(sid)))
            for sid in chunks
            if done[sid] == prompts[sid].size
        }
        for _ in range(3 if next_tokens else 0):
            step = engine.decode(next_tokens)
            next_tokens = {sid: int(sample_greedy(step.logits[sid])) for sid in next_tokens}
        round_idx += 1

    print()
    for sid in sorted(prompts):
        counts = engine.cached_tokens(sid)
        total = engine.context_length(sid)
        print(f"seq {sid}: context {total:>3} tokens, per-rank cache {counts}")
    print("all fused rounds exact; cache balanced across ranks")


if __name__ == "__main__":
    main()

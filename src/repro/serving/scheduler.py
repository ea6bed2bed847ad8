"""Fused variable-length round packing for the continuous-batching runtime.

The paper's prefill algorithms operate on *fused varseq* inputs: several
sequences of different lengths packed into one round (Figure 1, §3.5.1),
each load-balance sharded independently. :class:`ChunkedPrefillPolicy`
builds those rounds at *chunk* granularity for the runtime
(:mod:`repro.runtime`): each pending prompt contributes at most
``chunk_tokens`` of its remaining input per round, so long prompts prefill
as a series of budget-bounded partial prefills interleaved with decode
rounds instead of monopolizing the engine (a chunk as long as the prompt
gives whole-request rounds). This is the paper's multi-turn
partial-prefill machinery (§3.3, Figure 2 — new tokens attend over
whatever KV earlier rounds committed) repurposed as chunked prefill in the
Sarathi/vLLM sense; because each chunk is a partial prefill with a rising
cache-hit rate, the §3.5.2 pass-KV/pass-Q heuristic re-fires per chunk. In
the disaggregated deployment (§4.3) these rounds are what the prefill pool
executes, and in the colocated one they bound how long any decode round
can be starved.

Capacity admission is *not* decided here: the runtime checks each built
round's exact per-rank KV demand against the paged pools before executing
it, shrinking or evicting per its FCFS rules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChunkAssignment:
    """One request's contribution to a chunked-prefill round.

    Attributes:
        seq_id: the sequence whose pending input the chunk comes from.
        tokens: how many tokens to take from the *front* of that pending
            input (the chunk is always a prefix: prefill order must match
            token order for the persistent-KV machinery to stay exact).
    """

    seq_id: int
    tokens: int

    def __post_init__(self) -> None:
        if self.tokens < 1:
            raise ValueError(f"chunk for seq {self.seq_id} must be >= 1 token")


class ChunkedPrefillPolicy:
    """Budget-bounded chunk packing for continuous batching.

    Each round takes up to ``chunk_tokens`` from each pending prompt's
    remaining input, packing chunks until the round's token budget or
    sequence cap is hit. A prompt longer than ``chunk_tokens`` therefore
    spreads across several rounds — each run as a partial prefill over
    the KV committed by its predecessors, so the planner's pass-KV/pass-Q
    heuristic fires per chunk as the effective cache-hit rate climbs.
    Chunks pack in arrival order, so every request makes steady progress
    and the tail never starves.

    Args:
        chunk_tokens: per-request chunk size cap (>= 1).
        max_tokens_per_round: fused round new-token budget; must be >=
            ``chunk_tokens`` so the FIFO head always makes progress.
        max_seqs_per_round: cap on fused sequences per round.
    """

    def __init__(
        self,
        *,
        chunk_tokens: int = 8192,
        max_tokens_per_round: int = 131072,
        max_seqs_per_round: int = 16,
    ):
        if chunk_tokens < 1:
            raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
        if max_tokens_per_round < chunk_tokens:
            raise ValueError(
                f"a round's token budget ({max_tokens_per_round}) must be >= "
                f"the prefill chunk ({chunk_tokens})"
            )
        if max_seqs_per_round < 1:
            raise ValueError(f"max_seqs_per_round must be >= 1, got {max_seqs_per_round}")
        self.chunk_tokens = chunk_tokens
        self.max_tokens_per_round = max_tokens_per_round
        self.max_seqs_per_round = max_seqs_per_round

    def build_round(self, pending: list[tuple[int, int]]) -> list[ChunkAssignment]:
        """Pack one round from ``[(seq_id, tokens_remaining), ...]``.

        ``pending`` arrives in FIFO order. Returns possibly-empty chunk
        assignments in that order. Entries with zero remaining tokens are
        skipped.
        """
        round_: list[ChunkAssignment] = []
        budget = self.max_tokens_per_round
        for seq_id, remaining in pending:
            if budget <= 0 or len(round_) >= self.max_seqs_per_round:
                break
            if remaining <= 0:
                continue
            take = min(remaining, self.chunk_tokens, budget)
            round_.append(ChunkAssignment(seq_id=seq_id, tokens=take))
            budget -= take
        return round_

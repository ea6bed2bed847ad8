"""Multi-turn chat session driver.

:class:`ChatSession` owns one conversation against a
:class:`repro.core.engine.ContextParallelEngine`: it submits the first
prompt as full prefill, greedily decodes a response, and submits follow-up
prompts as partial prefill over the persistent sharded KV cache — the exact
multi-turn loop of paper §3.3. It is the one turn driver outside the
continuous-batching runtime: the sequential reference the runtime is
bit-checked against, and what the CLI, the examples and the tests call to
run a conversation. Each turn's ``(T, P)`` pair and the planner's
pass-KV/pass-Q choice are recorded so tests can assert the heuristic flips
to pass-Q at high cache-hit rates.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import ContextParallelEngine
from repro.model.sampling import sample_greedy
from repro.serving.request import TurnRecord


class ChatSession:
    """One conversation: alternating user prompts and decoded responses.

    Args:
        engine: shared CP engine (sessions may share one engine; their
            sequences are isolated by seq_id).
        seq_id: unique id of this conversation.
    """

    def __init__(self, engine: ContextParallelEngine, seq_id: int):
        self.engine = engine
        self.seq_id = seq_id
        self.turns: list[TurnRecord] = []
        self.history: list[int] = []

    @property
    def context_length(self) -> int:
        """Tokens committed to the persistent KV cache."""
        return self.engine.context_length(self.seq_id)

    def send(self, prompt_ids: np.ndarray, *, max_new_tokens: int = 8) -> TurnRecord:
        """Submit one user prompt and greedily decode a response.

        The first call runs full prefill; later calls run partial prefill
        against the cached history.

        Args:
            prompt_ids: new prompt token ids.
            max_new_tokens: response decode budget (>= 0).

        Returns:
            The completed :class:`TurnRecord` (also appended to ``turns``).

        Raises:
            ValueError: ``max_new_tokens`` is negative.
        """
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        cached = self.context_length
        out = self.engine.prefill({self.seq_id: prompt_ids})
        self.history.extend(prompt_ids.tolist())

        record = TurnRecord(
            seq_id=self.seq_id,
            prompt_tokens=int(prompt_ids.size),
            cached_tokens=cached,
            response_tokens=0,
            algo=out.plan.algo.value,
        )

        next_logits = out.last_logits(self.seq_id)
        for _ in range(max_new_tokens):
            token = int(sample_greedy(next_logits))
            record.generated.append(token)
            self.history.append(token)
            step = self.engine.decode({self.seq_id: token})
            next_logits = step.logits[self.seq_id]
        record.response_tokens = len(record.generated)
        self.turns.append(record)
        return record

    def close(self) -> None:
        """Evict this conversation's KV from every rank."""
        self.engine.evict(self.seq_id)

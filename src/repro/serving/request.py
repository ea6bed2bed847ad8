"""Turn records for the serving layer."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TurnRecord:
    """Bookkeeping for one completed conversation turn.

    Attributes:
        seq_id: conversation id.
        prompt_tokens: new tokens prefetched this turn (``T``).
        cached_tokens: persistent KV length before the turn (``P``).
        response_tokens: tokens decoded in the response.
        algo: ring variant the planner chose for the prefill.
        generated: the decoded token ids.
    """

    seq_id: int
    prompt_tokens: int
    cached_tokens: int
    response_tokens: int
    algo: str
    generated: list[int] = field(default_factory=list)

    @property
    def miss_rate(self) -> float:
        """KV-cache miss rate the prefill ran at."""
        total = self.prompt_tokens + self.cached_tokens
        return self.prompt_tokens / total if total else 0.0

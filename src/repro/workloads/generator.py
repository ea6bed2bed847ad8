"""Deterministic synthetic prompt and conversation generation.

The paper's production traffic (user prompts, documents, follow-ups) is
proprietary; these generators produce the closest synthetic equivalent that
exercises the same code paths: variable-length prompts, multi-turn
follow-ups with realistic prompt/response size ratios, and fused batches of
mixed lengths. Everything is seeded, so tests and benchmarks replay
identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ConversationScript:
    """A scripted multi-turn conversation.

    Attributes:
        seq_id: conversation id.
        prompts: per-turn prompt token arrays.
        response_budgets: per-turn decode budgets.
    """

    seq_id: int
    prompts: list[np.ndarray] = field(default_factory=list)
    response_budgets: list[int] = field(default_factory=list)

    @property
    def turns(self) -> int:
        return len(self.prompts)

    @property
    def total_prompt_tokens(self) -> int:
        return int(sum(p.size for p in self.prompts))


class WorkloadGenerator:
    """Seeded generator of prompts, batches and conversations.

    Args:
        vocab_size: token id range (match the model's vocabulary).
        seed: RNG seed.
    """

    def __init__(self, vocab_size: int, *, seed: int = 0):
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def prompt(self, length: int) -> np.ndarray:
        """Uniform random token ids of the given length."""
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        return self.rng.integers(0, self.vocab_size, size=length, dtype=np.int64)

    def conversation(
        self,
        seq_id: int,
        *,
        turns: int,
        first_prompt: int,
        followup_range: tuple[int, int] = (8, 64),
        response_range: tuple[int, int] = (4, 16),
    ) -> ConversationScript:
        """A multi-turn script: long first prompt, short follow-ups.

        Mirrors the paper's motivating workload: the initial document/long
        prompt is full-prefilled once, then follow-ups hit the persistent
        KV cache at high hit rates (where pass-Q wins).
        """
        if turns < 1:
            raise ValueError(f"turns must be >= 1, got {turns}")
        lo_f, hi_f = followup_range
        lo_r, hi_r = response_range
        if not (1 <= lo_f <= hi_f and 0 <= lo_r <= hi_r):
            raise ValueError("invalid follow-up/response ranges")
        script = ConversationScript(seq_id=seq_id)
        script.prompts.append(self.prompt(first_prompt))
        script.response_budgets.append(int(self.rng.integers(lo_r, hi_r + 1)))
        for _ in range(turns - 1):
            script.prompts.append(self.prompt(int(self.rng.integers(lo_f, hi_f + 1))))
            script.response_budgets.append(int(self.rng.integers(lo_r, hi_r + 1)))
        return script

    def shared_prefix_traffic(
        self,
        *,
        n_system_prompts: int,
        n_fewshot_variants: int,
        conversations: int,
        system_tokens: int = 48,
        fewshot_tokens: int = 16,
        unique_range: tuple[int, int] = (8, 24),
        turns: int = 1,
        followup_range: tuple[int, int] = (6, 12),
        response_range: tuple[int, int] = (4, 8),
    ) -> list[ConversationScript]:
        """Templated shared-prefix traffic: N system prompts x M few-shot
        variants x live arrivals.

        The prefix-cache workload (SGLang/Mooncake-style): every
        conversation's first prompt is ``system ++ fewshot ++ unique``
        where the system prompt is drawn from ``n_system_prompts``
        templates and the few-shot block from ``n_fewshot_variants``
        variants of that template. Templates are assigned round-robin
        (conversation ``i`` gets system ``i % N`` and few-shot
        ``(i // N) % M``), so the cold/warm split is deterministic: the
        first occurrence of each system prompt is cold, every later one
        shares at least ``system_tokens`` with a resident donor — an
        expected index hit rate of ``1 - N / conversations``. Follow-up
        turns (when ``turns > 1``) behave like :meth:`conversation`'s.

        Returns:
            ``conversations`` scripts with seq ids ``0 .. conversations - 1``.
        """
        if n_system_prompts < 1 or n_fewshot_variants < 1:
            raise ValueError("template counts must be >= 1")
        if conversations < 1:
            raise ValueError(f"conversations must be >= 1, got {conversations}")
        if system_tokens < 1 or fewshot_tokens < 1:
            raise ValueError("template token counts must be >= 1")
        if turns < 1:
            raise ValueError(f"turns must be >= 1, got {turns}")
        lo_u, hi_u = unique_range
        lo_f, hi_f = followup_range
        lo_r, hi_r = response_range
        if not (1 <= lo_u <= hi_u and 1 <= lo_f <= hi_f and 0 <= lo_r <= hi_r):
            raise ValueError("invalid unique/follow-up/response ranges")
        systems = [self.prompt(system_tokens) for _ in range(n_system_prompts)]
        fewshots = [
            [self.prompt(fewshot_tokens) for _ in range(n_fewshot_variants)]
            for _ in range(n_system_prompts)
        ]
        scripts = []
        for i in range(conversations):
            s = i % n_system_prompts
            m = (i // n_system_prompts) % n_fewshot_variants
            unique = self.prompt(int(self.rng.integers(lo_u, hi_u + 1)))
            script = ConversationScript(seq_id=i)
            script.prompts.append(
                np.concatenate([systems[s], fewshots[s][m], unique])
            )
            script.response_budgets.append(int(self.rng.integers(lo_r, hi_r + 1)))
            for _ in range(turns - 1):
                script.prompts.append(self.prompt(int(self.rng.integers(lo_f, hi_f + 1))))
                script.response_budgets.append(int(self.rng.integers(lo_r, hi_r + 1)))
            scripts.append(script)
        return scripts


def poisson_arrivals(rate_per_s: float, n_requests: int, *, seed: int = 0) -> list[float]:
    """Arrival times (s, ascending) of a homogeneous Poisson stream: the
    running sum of ``n_requests`` seeded exponential gaps of mean
    ``1 / rate_per_s``."""
    if rate_per_s <= 0:
        raise ValueError(f"rate must be > 0, got {rate_per_s}")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_per_s, size=n_requests)
    return np.cumsum(gaps).tolist()

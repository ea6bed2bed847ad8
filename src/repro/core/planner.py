"""Prefill planning: turn a batch of sequence specs into an execution plan.

The planner is the runtime face of :mod:`repro.core.heuristics`: it inspects
the batch's aggregate new-token count ``T`` and cached length ``P``, applies
the configured selector (Algorithm 1, Algorithm 5, or the Appendix D
empirical model), and emits a :class:`PrefillPlan` recording the choice and
the threshold values that produced it — the paper runs exactly this logic
"at the beginning of each round" (Appendix D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.heuristics import (
    HeuristicConfig,
    RingAlgo,
    miss_rate,
    select_algo_empirical,
    select_algo_simple,
    select_algo_with_all2all,
)
from repro.core.sharding import SequenceSpec


class SelectorKind(enum.Enum):
    """Which published selector the planner runs."""

    SIMPLE = "algorithm-1"
    ALL2ALL_AWARE = "algorithm-5"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class PrefillPlan:
    """Resolved execution plan for one prefill round.

    Attributes:
        algo: chosen ring variant.
        selector: selector that made the choice.
        new_tokens: aggregate ``T`` over the batch.
        cached_tokens: aggregate ``P`` over the batch.
        miss_rate: ``T / (T + P)``.
        forced: ``True`` when the caller overrode the heuristic.
    """

    algo: RingAlgo
    selector: SelectorKind
    new_tokens: int
    cached_tokens: int
    miss_rate: float
    forced: bool = False


class PrefillPlanner:
    """Chooses pass-KV vs pass-Q per prefill round.

    Args:
        heuristic: static model/hardware constants; ``None`` falls back to a
            miss-rate-only rule (Equation 1), which is hardware-free and the
            right default for the numeric simulator.
        selector: which published selector to apply when ``heuristic`` is
            available.
    """

    def __init__(
        self,
        heuristic: HeuristicConfig | None = None,
        *,
        selector: SelectorKind = SelectorKind.ALL2ALL_AWARE,
    ):
        self.heuristic = heuristic
        self.selector = selector

    def plan(
        self, specs: list[SequenceSpec], *, force_algo: RingAlgo | None = None
    ) -> PrefillPlan:
        """Build the plan for a batch of sequences.

        Aggregates ``T`` and ``P`` across the fused batch (the production
        system schedules one algorithm per round, not per sequence).
        """
        if not specs:
            raise ValueError("cannot plan an empty batch")
        t = sum(s.new_tokens for s in specs)
        p = sum(s.cached_tokens for s in specs)
        if t == 0:
            raise ValueError("batch has no new tokens to prefill")
        rate = miss_rate(t, p)

        if force_algo is not None:
            return PrefillPlan(
                algo=force_algo, selector=self.selector, new_tokens=t,
                cached_tokens=p, miss_rate=rate, forced=True,
            )

        if self.heuristic is None:
            # Hardware-free fallback: message-size rule only (Equation 1).
            algo = RingAlgo.PASS_KV if rate >= _default_ratio(specs) else RingAlgo.PASS_Q
        elif self.selector is SelectorKind.SIMPLE:
            algo = select_algo_simple(self.heuristic, t, p)
        elif self.selector is SelectorKind.ALL2ALL_AWARE:
            algo = select_algo_with_all2all(self.heuristic, t, p)
        elif self.selector is SelectorKind.EMPIRICAL:
            algo = select_algo_empirical(t, p)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unknown selector {self.selector}")

        return PrefillPlan(
            algo=algo, selector=self.selector, new_tokens=t,
            cached_tokens=p, miss_rate=rate,
        )


def _default_ratio(specs: list[SequenceSpec]) -> float:
    """Fallback Equation (1) threshold when no hardware config is supplied.

    Uses the canonical Llama3 405B ratio ``2 * 8 / 128 = 0.125``; full
    prefill (``P = 0``, miss rate 1.0) always lands on pass-KV.
    """
    return 0.125

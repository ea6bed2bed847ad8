"""pass-KV vs pass-Q selection heuristics (paper §3.4, Appendices C-D).

The engine must decide, per partial prefill, whether to circulate KV
(Algorithm 2) or Q (Algorithm 3). The paper derives three selectors of
increasing fidelity, all implemented here:

1. **Algorithm 1** (message size + overlap): choose pass-KV when either

   - ``T >= N * C * NKV * e / (2 * NH * BW)`` (Equation 2: the new-token
     count is large enough that pass-KV SendRecv hides under attention), or
   - ``T / (T + P) >= 2 * NKV / NH`` (Equation 1: KV messages are smaller
     than Q messages anyway).

2. **Algorithm 5** (Appendix C): additionally charges pass-Q for its
   critical-path All2All, shrinking the miss-rate threshold to
   ``2 * NKV / NH - 4 * T * BW / (N * C * e)`` (Equation 5).

3. **Empirical model** (Appendix D): a fitted linear decision boundary in
   ``(log T, log(T/(T+P)))`` space,
   ``h(T, P) = alpha * log T + beta * log(T/(T+P)) + gamma``, preferring
   pass-KV when ``h > 0``. The paper's fitted coefficients are exposed as
   :data:`PAPER_EMPIRICAL_COEFFS`, and :func:`fit_empirical` refits them
   from labelled measurements (as the production system does periodically).

Thresholds are static per (model, hardware, N); the engine evaluates them
once and dispatches dynamically per request. Full prefill is the ``P = 0``
special case (pass-KV), decode the ``T = 1`` case (pass-Q).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class RingAlgo(enum.Enum):
    """Which tensor circulates around the CP ring."""

    PASS_KV = "pass-kv"
    PASS_Q = "pass-q"


#: Appendix D fitted coefficients: (alpha, beta, gamma).
PAPER_EMPIRICAL_COEFFS: tuple[float, float, float] = (-1.059, 1.145, 12.112)


@dataclass(frozen=True)
class HeuristicConfig:
    """Static model/hardware parameters feeding the selection thresholds.

    Attributes:
        n_heads: query heads ``NH``.
        n_kv_heads: KV heads ``NKV``.
        element_bytes: wire bytes per element ``e`` (2 for bf16).
        peak_compute: per-CP-rank achieved compute ``C`` in FLOP/s (a CP
            rank is a whole TP8 host, so this is 8x the per-GPU figure).
        bandwidth: inter-rank bandwidth ``BW`` in bytes/s available to the
            ring (aggregate across the 8 per-KV-head channels).
        world_size: number of CP ranks ``N``.
    """

    n_heads: int
    n_kv_heads: int
    element_bytes: float
    peak_compute: float
    bandwidth: float
    world_size: int

    def __post_init__(self) -> None:
        if self.n_heads <= 0 or self.n_kv_heads <= 0 or self.n_heads % self.n_kv_heads:
            raise ValueError(
                f"need NH a positive multiple of NKV, got {self.n_heads}/{self.n_kv_heads}"
            )
        if min(self.element_bytes, self.peak_compute, self.bandwidth) <= 0:
            raise ValueError("element_bytes, peak_compute and bandwidth must be positive")
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")

    # ---------------------------- thresholds ---------------------------- #

    @property
    def kv_message_ratio(self) -> float:
        """RHS of Equation (1): ``2 * NKV / NH``.

        KV messages are smaller than Q messages when the miss rate exceeds
        this constant (1/8 = 12.5% for Llama3 405B).
        """
        return 2.0 * self.n_kv_heads / self.n_heads

    @property
    def passkv_overlap_threshold(self) -> float:
        """RHS of Equation (2): min new-token count ``T`` for pass-KV
        SendRecv to hide under attention compute."""
        return (
            self.world_size
            * self.peak_compute
            * self.n_kv_heads
            * self.element_bytes
            / (2.0 * self.n_heads * self.bandwidth)
        )

    @property
    def passq_overlap_threshold(self) -> float:
        """RHS of Equation (3): min total context ``T + P`` for pass-Q ring
        SendRecv to hide under attention compute."""
        return self.world_size * self.element_bytes * self.peak_compute / (4.0 * self.bandwidth)


def miss_rate(new_tokens: int, cached_tokens: int) -> float:
    """KV-cache miss rate ``T / (T + P)``; 0 for an empty request."""
    total = new_tokens + cached_tokens
    if new_tokens < 0 or cached_tokens < 0:
        raise ValueError("token counts must be non-negative")
    return new_tokens / total if total else 0.0


def select_algo_simple(
    config: HeuristicConfig, new_tokens: int, cached_tokens: int
) -> RingAlgo:
    """Algorithm 1: overlap (Eq. 2) or message-size (Eq. 1) tests."""
    if new_tokens >= config.passkv_overlap_threshold:
        return RingAlgo.PASS_KV
    if miss_rate(new_tokens, cached_tokens) >= config.kv_message_ratio:
        return RingAlgo.PASS_KV
    return RingAlgo.PASS_Q


def select_algo_with_all2all(
    config: HeuristicConfig, new_tokens: int, cached_tokens: int
) -> RingAlgo:
    """Algorithm 5: Algorithm 1 refined by pass-Q's All2All cost (Eq. 5).

    The miss-rate threshold drops by ``4 * T * BW / (N * C * e)`` because
    pass-Q pays an exposed All2All of partial outputs even when its ring
    messages hide perfectly.
    """
    if new_tokens >= config.passkv_overlap_threshold:
        return RingAlgo.PASS_KV
    adjusted = config.kv_message_ratio - (
        4.0
        * new_tokens
        * config.bandwidth
        / (config.world_size * config.peak_compute * config.element_bytes)
    )
    if miss_rate(new_tokens, cached_tokens) >= adjusted:
        return RingAlgo.PASS_KV
    return RingAlgo.PASS_Q


def empirical_score(
    new_tokens: int,
    cached_tokens: int,
    coeffs: tuple[float, float, float] = PAPER_EMPIRICAL_COEFFS,
) -> float:
    """Appendix D decision function ``h(T, P)``.

    Positive values prefer pass-KV. ``T`` must be >= 1 (there is nothing to
    select for an empty prefill).
    """
    if new_tokens < 1:
        raise ValueError(f"empirical model needs new_tokens >= 1, got {new_tokens}")
    alpha, beta, gamma = coeffs
    rate = miss_rate(new_tokens, cached_tokens)
    return alpha * math.log(new_tokens) + beta * math.log(rate) + gamma


def select_algo_empirical(
    new_tokens: int,
    cached_tokens: int,
    coeffs: tuple[float, float, float] = PAPER_EMPIRICAL_COEFFS,
) -> RingAlgo:
    """Appendix D selector: pass-KV iff ``h(T, P) > 0``."""
    return RingAlgo.PASS_KV if empirical_score(new_tokens, cached_tokens, coeffs) > 0 else RingAlgo.PASS_Q


def fit_empirical(
    new_tokens: np.ndarray,
    cached_tokens: np.ndarray,
    prefer_passkv: np.ndarray,
    *,
    initial: tuple[float, float, float] = (-1.0, 1.0, 10.0),
) -> tuple[float, float, float]:
    """Fit Appendix D's linear boundary from labelled measurements.

    Logistic regression on features ``(log T, log(T/(T+P)), 1)`` with labels
    ``prefer_passkv`` (True where measured pass-KV latency was lower).

    Returns:
        Fitted ``(alpha, beta, gamma)``.
    """
    t = np.asarray(new_tokens, dtype=np.float64)
    p = np.asarray(cached_tokens, dtype=np.float64)
    y = np.asarray(prefer_passkv, dtype=np.float64)
    if not (t.shape == p.shape == y.shape):
        raise ValueError("inputs must share a shape")
    if np.any(t < 1):
        raise ValueError("new_tokens must be >= 1 for the log features")
    # imported here: scipy costs more to load than the rest of the package
    try:
        from scipy.optimize import minimize
    except ImportError as exc:
        raise ImportError("fit_empirical needs scipy: pip install 'repro[fit]'") from exc
    feats = np.stack([np.log(t), np.log(t / (t + p)), np.ones_like(t)], axis=1)

    def loss(w: np.ndarray) -> float:
        z = feats @ w
        # numerically stable logistic loss
        return float(np.mean(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1 - y)))

    res = minimize(loss, np.asarray(initial, dtype=np.float64), method="Nelder-Mead",
                   options={"maxiter": 5000, "xatol": 1e-8, "fatol": 1e-10})
    alpha, beta, gamma = (float(x) for x in res.x)
    return alpha, beta, gamma

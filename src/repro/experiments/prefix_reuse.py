"""Extension experiment: shared-prefix KV reuse (radix prefix cache).

Production traffic is heavily templated — N system prompts x M few-shot
variants fan out into thousands of conversations whose first hundreds of
tokens are identical — yet a cache-less runtime prices every prompt as
cold, re-prefilling the shared prefix per request. This experiment
replays the same templated trace through the continuous-batching runtime
with the radix prefix cache on and off, colocated and disaggregated, at
a sweep of template counts (fewer templates = higher hit rate), with
rounds priced for Llama3 405B by the calibrated clock.

What the table shows:

- **hit rate / reused tokens**: the index matches every conversation
  after the first occurrence of its template, and adoption charges zero
  new blocks for the shared span (allocator refcounts).
- **warm vs cold TTFT**: a warm request prefills only its uncached
  suffix, so its first token lands strictly earlier than a cold
  request's at every swept hit rate — the RadixAttention/Mooncake
  headline, asserted in-experiment for every row with hit rate >= 50%.
- **capacity**: finished conversations stay resident as LRU-evictable
  cached prefixes, so the pool runs fuller (that is the cache working);
  shared blocks are counted once, and under pressure the least-recently
  -used unpinned prefixes are dropped first (the ``prefix evictions``
  column).

Every cell is bit-checked: cache on, cache off, and sequential
per-conversation :class:`repro.serving.session.ChatSession` replay must
decode identical tokens — the serving-exactness invariant extended over
hit/miss/eviction/copy-on-write schedules.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.model.config import llama3_405b_config, tiny_config
from repro.perf.hardware import HostSpec, gtt_host
from repro.perf.latency import LatencySimulator

#: Deployment shapes compared, in sweep order.
DEPLOYMENTS = ("colocated", "disaggregated")


def run(
    host: HostSpec | None = None,
    *,
    conversations: int = 8,
    template_sweep: tuple[int, ...] = (1, 2, 4),
    world_size: int = 2,
    decode_world: int = 2,
    capacity: int = 256,
    priced_ranks: int = 4,
    seed: int = 11,
) -> ExperimentResult:
    """Hit rate vs TTFT and capacity for the radix prefix cache.

    Numerics run the tiny model (prefill pool at ``world_size``, decode
    pool at ``decode_world`` when disaggregated); the step clock prices
    rounds for Llama3 405B on ``priced_ranks`` CP hosts. ``capacity``
    bounds each pool's per-rank KV tokens tightly enough that retained
    cached prefixes eventually LRU-evict. Conversations arrive staggered
    (30 s apart), so TTFT measures service, not queueing.

    Raises:
        AssertionError: tokens differ between cache on/off/sequential
            replay, or a row with hit rate >= 50% fails to put warm TTFT
            strictly below cold TTFT.
    """
    from repro.core.engine import ContextParallelEngine
    from repro.model.llama import LlamaModel
    from repro.runtime import ServeConfig
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import (
        collect_generated,
        replay_scripts_sequential,
        submit_scripts_to_runtime,
    )

    host = host if host is not None else gtt_host()
    model = LlamaModel(tiny_config(), seed=0)
    sim = LatencySimulator(llama3_405b_config(), host)

    res = ExperimentResult(
        experiment_id="Prefix reuse",
        title=(
            f"{conversations} templated conversations through the radix "
            f"prefix cache (CP{world_size} numerics, CP{priced_ranks} 405B "
            f"pricing, {capacity} KV tokens/rank)"
        ),
        headers=[
            "deployment", "templates", "hit rate", "reused tokens",
            "p50 TTFT warm (s)", "p50 TTFT cold (s)", "p50 TTFT no-cache (s)",
            "peak KV (cache)", "peak KV (no cache)", "prefix evictions",
        ],
    )

    for deployment in DEPLOYMENTS:
        for n_templates in template_sweep:
            gen = WorkloadGenerator(model.config.vocab_size, seed=seed)
            scripts = gen.shared_prefix_traffic(
                n_system_prompts=n_templates,
                n_fewshot_variants=2,
                conversations=conversations,
                system_tokens=48,
                fewshot_tokens=16,
                unique_range=(8, 16),
                turns=1,
                response_range=(3, 5),
            )
            tokens_by_mode = {}
            reports = {}
            for cache_on in (True, False):
                runtime = ServeConfig(
                    world=world_size,
                    decode_world=None if deployment == "colocated" else decode_world,
                    capacity=capacity,
                    prefix_cache=cache_on,
                    priced_ranks=priced_ranks,
                ).build(model, sim=sim)
                rids = submit_scripts_to_runtime(
                    runtime, scripts, start_offset_s=30.0, think_time_s=30.0
                )
                report = runtime.run(max_steps=400_000)
                reports[cache_on] = report
                tokens_by_mode[cache_on] = collect_generated(report, rids)
            reference = replay_scripts_sequential(
                lambda: ContextParallelEngine(
                    LlamaModel(tiny_config(), seed=0), world_size=world_size
                ),
                scripts,
            )
            for s in scripts:
                for cache_on in (True, False):
                    assert tokens_by_mode[cache_on][s.seq_id] == reference[s.seq_id], (
                        "serving-level exactness violated: prefix cache "
                        f"(on={cache_on}) changed decoded tokens for seq "
                        f"{s.seq_id} ({deployment}, {n_templates} templates)"
                    )

            m_on = reports[True].metrics
            m_off = reports[False].metrics
            hit_rate = m_on.prefix_hit_rate
            warm = m_on.percentile_ttft_split(50, warm=True)
            cold = m_on.percentile_ttft_split(50, warm=False)
            if hit_rate >= 0.5 and m_on.ttft_warm_samples and m_on.ttft_cold_samples:
                assert warm < cold, (
                    f"warm p50 TTFT {warm:.3f}s not strictly below cold "
                    f"{cold:.3f}s at hit rate {hit_rate:.0%} "
                    f"({deployment}, {n_templates} templates)"
                )
            res.add_row(
                deployment,
                n_templates,
                hit_rate,
                m_on.prefix_reused_tokens,
                warm,
                cold,
                m_off.percentile_ttft(50),
                f"{m_on.peak_kv_utilization.get('prefill', 0.0):.0%}",
                f"{m_off.peak_kv_utilization.get('prefill', 0.0):.0%}",
                m_on.prefix_evictions,
            )

    res.notes.append(
        "Every cell decodes bit-identical tokens with the cache on, off, "
        "and under sequential per-conversation replay (asserted): sharing "
        "changes what a prompt costs, never what it computes."
    )
    res.notes.append(
        "Warm p50 TTFT is strictly below cold at every row with hit rate "
        ">= 50% (asserted in-experiment): a warm request prefills only its "
        "uncached suffix. Peak KV runs higher with the cache because "
        "finished conversations stay resident as LRU-evictable donors — "
        "shared blocks are still counted once by the refcounting allocator, "
        "and the tightest cells show the LRU dropping the least-recently-"
        "used templates (the hit rate falls as distinct templates outgrow "
        "the pool)."
    )
    return res

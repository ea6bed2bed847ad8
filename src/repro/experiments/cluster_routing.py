"""Extension experiment: cluster-tier routing (replicas x policy).

One replica cannot serve "millions of users"; a fleet can — but only if
the router sends templated traffic where its KV already lives. This
experiment replays the same shared-prefix trace through
:class:`repro.cluster.ReplicaFleet` at a sweep of replica counts under
prefix-affinity routing vs round-robin, with every replica's rounds
priced for Llama3 405B by the calibrated clock.

What the table shows:

- **hit rate**: round-robin spreads a template across every replica, so
  each replica pays its own cold prefill per template (hit rate decays
  as ``1 - R*N/conversations``); prefix-affinity concentrates each
  template on one replica and keeps the single-replica hit rate
  (``1 - N/conversations``) at any fleet size — the SGLang
  cache-aware-routing / Mooncake global-scheduler claim.
- **warm p50 TTFT**: affinity converts cold prefills into warm ones, so
  under load the median first token lands earlier even though routing
  concentrates work on fewer replicas.
- **placement spread**: how many replicas each policy actually used —
  affinity trades spread for reuse; the load/queue terms in its score
  keep the trade bounded.

Every cell is pinned twice: completed streams bit-identical to
sequential per-conversation replay (routing changes placement and
timing, never tokens), and every replica audits leak-free after the
drain. At every replica count >= 2, prefix routing must beat
round-robin on both warm p50 TTFT and prefix hit rate (asserted).
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult
from repro.experiments.serving_grid import run_grid
from repro.model.config import tiny_config
from repro.runtime import ServeConfig
from repro.workloads.generator import WorkloadGenerator

#: Routing policies compared, in sweep order.
POLICIES = ("prefix", "round-robin")


def run(*, replica_sweep: tuple[int, ...] = (1, 2, 3)) -> ExperimentResult:
    """Replica count x routing policy for shared-prefix traffic.

    Numerics run the tiny model on CP2 per replica; the step clock prices
    rounds for Llama3 405B on CP4 hosts. Conversations arrive in a tight
    burst (1 s apart, 5 s think time) so routing decides queueing, not
    just cache reuse. Two system prompts fan out over twelve two-turn
    sessions. One replica is a lone runtime: there is nothing to route.

    Raises:
        AssertionError: a completed stream differs from sequential
            replay, a replica leaks KV after the drain, or prefix
            routing fails to beat round-robin on warm p50 TTFT or hit
            rate at a replica count >= 2.
    """
    res = ExperimentResult(
        experiment_id="Cluster routing",
        title=(
            "12 shared-prefix conversations (2 templates) over a replica fleet "
            "(CP2 numerics per replica, CP4 405B pricing)"
        ),
        headers=[
            "replicas", "routing", "hit rate", "reused tokens", "p50 TTFT warm (s)",
            "p50 TTFT cold (s)", "p50 TTFT (s)", "goodput (req/s)", "replicas used",
        ],
    )
    gen = WorkloadGenerator(tiny_config().vocab_size, seed=11)
    scripts = gen.shared_prefix_traffic(
        n_system_prompts=2, n_fewshot_variants=2, conversations=12,
        unique_range=(8, 16), turns=2, response_range=(3, 5),
    )
    # seeded arrival shuffle: shared_prefix_traffic cycles templates
    # round-robin, so without it a round-robin router whose replica
    # count divides the template count would align with the cycle and
    # get perfect affinity by accident
    scripts = [scripts[i] for i in gen.rng.permutation(len(scripts))]
    cells = {
        f"{replicas} replicas, {policy}": ServeConfig(
            prefix_cache=True, replicas=replicas, routing=policy
        )
        for replicas in replica_sweep
        for policy in POLICIES
    }
    reports = run_grid(res.experiment_id, scripts, cells, think_time_s=5.0)
    for config, report in zip(cells.values(), reports.values()):
        m = report.metrics
        used = len(set(report.placements.values())) if config.replicas > 1 else 1
        res.add_row(
            config.replicas, config.routing, m.prefix_hit_rate, m.prefix_reused_tokens,
            m.percentile_ttft_split(50, warm=True), m.percentile_ttft_split(50, warm=False),
            m.percentile_ttft(50), report.goodput(), f"{used}/{config.replicas}",
        )

    # the headline: at any fleet size >= 2, affinity beats round-robin
    # on both reuse and the median warm first token
    for replicas in (r for r in replica_sweep if r > 1):
        prefix, rr = (reports[f"{replicas} replicas, {policy}"].metrics for policy in POLICIES)
        warm = prefix.percentile_ttft_split(50, warm=True)
        warm_rr = rr.percentile_ttft_split(50, warm=True)
        if math.isnan(warm_rr):
            # round-robin produced no warm request at all — compare
            # against its overall median instead of vacuously passing
            warm_rr = rr.percentile_ttft(50)
        if not (prefix.prefix_hit_rate > rr.prefix_hit_rate and warm < warm_rr):
            raise AssertionError(
                f"{res.experiment_id} [{replicas} replicas]: prefix routing (hit rate "
                f"{prefix.prefix_hit_rate:.0%}, warm p50 TTFT {warm:.3f}s) does not beat "
                f"round-robin ({rr.prefix_hit_rate:.0%}, {warm_rr:.3f}s)"
            )

    res.notes.append(
        "Every cell decodes bit-identical tokens to sequential "
        "per-conversation replay and every replica audits leak-free after "
        "the drain (asserted): routing changes placement and timing, "
        "never values."
    )
    res.notes.append(
        "At every fleet size >= 2, prefix-affinity routing beats "
        "round-robin on warm p50 TTFT and prefix hit rate (asserted): "
        "round-robin re-pays each template's cold prefill once per "
        "replica, affinity pays it once per fleet. At 1 replica the "
        "policies coincide — there is nothing to route."
    )
    return res

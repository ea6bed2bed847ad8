"""Discrete-event serving simulator over the calibrated latency model.

Answers system-level questions the per-request model cannot: under a
stream of arrivals, what TTFT/TTIT distributions does a CP deployment
deliver, and how does colocated serving (prefill preempts decode, §4.3's
standalone deployment) compare with a disaggregated pool? This is the
*analytic* face of the architecture the paper closes on — "a serving
system that decouples the parallelization scheme for prefill and decode"
(§4.3, citing DistServe and Mooncake). Its executable counterpart is the
disaggregated :class:`repro.runtime.ContinuousBatchingRuntime`, whose
measured TTFT/TTIT the "Disaggregated runtime" experiment
(:mod:`repro.experiments.disagg_runtime`) puts next to this simulator's
predictions over the same traces.

Scheduling model (deliberately simple and deterministic):

- **Prefill-priority, non-preemptive jobs**: the CP pool runs one prefill
  at a time (prefill is compute-bound and saturates all ranks); queued
  prefills go FIFO. No chunking — the runtime's chunked prefill
  interleaves at finer grain, which is the main place measurement and
  prediction part ways.
- **Decode rounds between prefills**: whenever no prefill is running or
  queued, all active sequences advance one token per round at the batched
  CP decode TTIT. A prefill arrival waits for the current round only.
- **Disaggregated mode**: decode rounds run on a separate TP8 host at
  single-host TTIT and are never preempted by prefills; the KV stream
  tail (``1/n_layers`` of the full stream — layer-wise overlap) is added
  to TTFT (see :mod:`repro.serving.disaggregated`), where the runtime
  instead schedules whole transfers on an explicit serialized wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.config import ModelConfig
from repro.perf.hardware import HostSpec
from repro.perf.latency import LatencySimulator


@dataclass(frozen=True)
class Arrival:
    """One incoming request.

    Attributes:
        request_id: unique id.
        time: arrival time (seconds).
        context_tokens: prompt length to prefill.
        output_tokens: decode budget.
    """

    request_id: int
    time: float
    context_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.context_tokens < 1 or self.output_tokens < 0:
            raise ValueError(f"bad request {self}")


@dataclass
class Completion:
    """Measured outcome for one request."""

    request_id: int
    arrival: float
    prefill_start: float = 0.0
    first_token: float = 0.0
    finish: float = 0.0
    decoded: int = 0

    @property
    def ttft(self) -> float:
        return self.first_token - self.arrival

    @property
    def queueing(self) -> float:
        return self.prefill_start - self.arrival


@dataclass
class ServingReport:
    """Aggregate simulation output."""

    completions: list[Completion] = field(default_factory=list)
    makespan: float = 0.0
    decode_rounds: int = 0

    def ttfts(self) -> np.ndarray:
        return np.array([c.ttft for c in self.completions])

    def mean_ttft(self) -> float:
        return float(self.ttfts().mean())

    def p99_ttft(self) -> float:
        return float(np.percentile(self.ttfts(), 99))

    def mean_queueing(self) -> float:
        return float(np.mean([c.queueing for c in self.completions]))

    def throughput(self) -> float:
        """Completed requests per second over the makespan."""
        return len(self.completions) / self.makespan if self.makespan > 0 else 0.0


class ClusterServingSimulator:
    """Event-driven simulation of one CP deployment.

    Args:
        config: model architecture.
        host: platform spec.
        n_ranks: CP pool size (hosts).
        disaggregated: route decode to a dedicated TP8 host.
    """

    def __init__(
        self,
        config: ModelConfig,
        host: HostSpec,
        *,
        n_ranks: int,
        disaggregated: bool = False,
    ):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.config = config
        self.host = host
        self.n_ranks = n_ranks
        self.disaggregated = disaggregated
        self.sim = LatencySimulator(config, host)

    # ------------------------------------------------------------------ #

    def _prefill_time(self, context: int) -> float:
        t = self.sim.cp_prefill(context, n_ranks=self.n_ranks).total
        if self.disaggregated:
            t += self.sim.kv_transfer_s(context) / self.config.n_layers
        return t

    def _decode_round_time(self, contexts: list[int]) -> float:
        batch = len(contexts)
        # the round is paced by the longest context (load-balanced shards
        # make per-rank work proportional to max context in the batch)
        ctx = max(contexts)
        if self.disaggregated or self.n_ranks == 1:
            return self.sim.tp_decode(ctx, batch=batch, n_nodes=1).total
        return self.sim.cp_decode(ctx, batch=batch, n_ranks=self.n_ranks).total

    def _decode_round(
        self, active: dict[int, tuple[Completion, Arrival]], now: float, report: ServingReport
    ) -> float:
        """Advance every active sequence one token; retire the finished.
        Returns the clock after the round."""
        contexts = [arr.context_tokens + comp.decoded for comp, arr in active.values()]
        now += self._decode_round_time(contexts)
        report.decode_rounds += 1
        for rid, (comp, arr) in list(active.items()):
            comp.decoded += 1
            if comp.decoded >= arr.output_tokens:
                comp.finish = now
                report.completions.append(comp)
                del active[rid]
        return now

    def simulate(self, arrivals: list[Arrival]) -> ServingReport:
        """Run the event loop over a sorted arrival stream."""
        arrivals = sorted(arrivals, key=lambda a: a.time)
        if not arrivals:
            return ServingReport()
        if self.disaggregated:
            return self._simulate_disaggregated(arrivals)
        return self._simulate_colocated(arrivals)

    def _simulate_colocated(self, arrivals: list[Arrival]) -> ServingReport:
        """One pool: prefills preempt decode rounds (standalone deployment)."""
        pending = list(arrivals)
        active: dict[int, tuple[Completion, Arrival]] = {}
        report = ServingReport()
        now = 0.0

        while pending or active:
            if pending and pending[0].time <= now:
                # colocated semantics: a queued prefill preempts further
                # decode rounds (it only waited for the round in flight)
                req = pending.pop(0)
                comp = Completion(request_id=req.request_id, arrival=req.time)
                comp.prefill_start = now
                now += self._prefill_time(req.context_tokens)
                comp.first_token = now
                if req.output_tokens == 0:
                    comp.finish = now
                    report.completions.append(comp)
                else:
                    active[req.request_id] = (comp, req)
                continue
            if active:
                now = self._decode_round(active, now, report)
                continue
            # idle: jump to the next arrival
            now = max(now, pending[0].time)

        report.makespan = now
        report.completions.sort(key=lambda c: c.request_id)
        return report

    def _simulate_disaggregated(self, arrivals: list[Arrival]) -> ServingReport:
        """Two pools: a CP prefill pipeline feeding a TP8 decode host."""
        report = ServingReport()

        # prefill pool: FIFO, one prefill at a time
        joins: list[tuple[float, Completion, Arrival]] = []
        t_pool = 0.0
        for req in arrivals:
            comp = Completion(request_id=req.request_id, arrival=req.time)
            comp.prefill_start = max(t_pool, req.time)
            t_pool = comp.prefill_start + self._prefill_time(req.context_tokens)
            comp.first_token = t_pool
            if req.output_tokens == 0:
                comp.finish = t_pool
                report.completions.append(comp)
            else:
                joins.append((t_pool, comp, req))

        # decode pool: sequences join as their KV arrives; never preempted
        joins.sort(key=lambda j: j[0])
        active: dict[int, tuple[Completion, Arrival]] = {}
        t_dec = 0.0
        while joins or active:
            if joins and joins[0][0] <= t_dec:
                _, comp, req = joins.pop(0)
                active[req.request_id] = (comp, req)
                continue
            if active:
                t_dec = self._decode_round(active, t_dec, report)
                continue
            t_dec = joins[0][0]

        report.makespan = max(t_pool, t_dec)
        report.completions.sort(key=lambda c: c.request_id)
        return report


def poisson_arrivals(
    rate_per_s: float,
    n_requests: int,
    *,
    context_tokens: int,
    output_tokens: int,
    seed: int = 0,
) -> list[Arrival]:
    """Homogeneous Poisson arrival stream of identical requests."""
    if rate_per_s <= 0:
        raise ValueError(f"rate must be > 0, got {rate_per_s}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=n_requests)
    times = np.cumsum(gaps)
    return [
        Arrival(request_id=i, time=float(times[i]),
                context_tokens=context_tokens, output_tokens=output_tokens)
        for i in range(n_requests)
    ]

"""Measure one workload inside this process: repetitions, metrics, verification.

``run.py`` pins the BLAS thread count and ``sys.path`` before importing this
module, so everything here runs single-threaded in one process and the
load generator is that same thread.

Two kinds of run (``run.py --trace 0|1``):

- :func:`measure_e2e` — untraced repetitions of "build deployment, submit
  scripts, ``run()`` to drain", each bracketed by the frozen probe loop.
  End-to-end metrics only ever come from here.
- :func:`measure_layers` — cycles of one untraced, one span-traced and one
  program-tracer-on repetition, then one repetition under a call counter.
  Per-layer metrics come from here; the difference to the untraced
  repetition is the tracing overhead.

Both end in :func:`verify`.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import layers
import numpy as np
from probe import Probe
from repro.obs import RecordingTracer, explain_ttft
from repro.runtime.state import RequestState
from repro.workloads.generator import ConversationScript, WorkloadGenerator
from repro.workloads.replay import replay_scripts_sequential, submit_scripts_to_runtime
from workloads import Workload

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
E2E_METRICS = [
    ("setup_s", "s"),
    ("host_cost_per_token", "probe/token"),
    ("peak_rss_mb", "MB"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttit_mean_ms", "ms"),
    ("sim_goodput_rps", "req/s"),
    ("sim_decode_tok_s", "tok/s"),
]

#: Spans reported as ``<name>.calls`` + ``<name>.self_s``.
_SPAN_METRICS = [
    "attention.flash", "core.ring_passkv", "core.ring_passq", "core.ring_decode",
    "core.engine.prefill", "core.engine.decode", "core.engine.kv_move",
    "distributed.pg", "kvcache.cache.get", "kvcache.cache.write", "kvcache.paged",
    "kvcache.prefix_index", "model.dense", "serving.policy", "perf.price",
    "cluster.submit", "cluster.route", "cluster.step",
]

#: (name, unit, deterministic) of every per-layer metric. Deterministic
#: metrics must repeat exactly across repetitions, runs and machines.
PER_LAYER_METRICS = (
    [(f"{span}.{kind}", unit, det) for span in _SPAN_METRICS
     for kind, unit, det in (("calls", "count", True), ("self_s", "s", False))]
    + [
        ("attention.flash.mflop", "MFLOP", True),
        ("attention.flash.q_rows_mean", "rows", True),
        ("core.engine.prefill.tokens", "tokens", True),
        ("core.engine.decode.total_s", "s", False),
        ("core.engine.decode.batch_mean", "seqs", True),
        ("core.algo.passq_share", "fraction", True),
        ("distributed.pg.payload_mb", "MB", True),
        ("kvcache.prefix_hit_rate", "fraction", True),
        ("kvcache.prefix_reused_token_share", "fraction", True),
        ("kvcache.peak_occupancy", "fraction", True),
        ("kvcache.evicted_tokens", "tokens", True),
        ("runtime.step.calls", "count", True),
        ("runtime.self_s", "s", False),
        ("runtime.prefill_rounds", "count", True),
        ("runtime.decode_rounds", "count", True),
        ("runtime.decode_batch_mean", "seqs", True),
        ("runtime.prefill_round_tokens_mean", "tokens", True),
        ("runtime.preemptions", "count", True),
        ("runtime.swaps_out", "count", True),
        ("runtime.transfer.tokens", "tokens", True),
        ("runtime.transfer.stall_s", "s", True),
        ("runtime.faults.injected", "count", True),
        ("runtime.queue_wait_p50_s", "s", True),
        ("runtime.pool_busy_share.prefill", "fraction", True),
        ("runtime.pool_busy_share.decode", "fraction", True),
        ("cluster.route.affinity_share", "fraction", True),
        ("cluster.replicas_used", "count", True),
        ("obs.trace.events", "count", True),
        ("obs.trace.overhead_pct", "%", False),
        ("sim.ttft_p90_s", "s", True),
        ("sim.ttft_samples", "count", True),
        ("sim.ttit_p50_ms", "ms", True),
        ("sim.ttit_p95_ms", "ms", True),
        ("sim.ttit_samples", "count", True),
        ("sim.makespan_s", "s", True),
        ("sim.slo_met_share", "fraction", True),
        ("host.wall_ms_per_token", "ms/token", False),
        ("host.probe_ms", "ms", False),
        ("host.py_calls_per_token", "calls/token", True),
        ("host.span_overhead_pct", "%", False),
        ("host.unattributed_s", "s", False),
        ("host.traced_wall_s", "s", False),
    ]
)

#: A hung event loop raises instead of running into the driver's time-out.
_MAX_STEPS = 2_000_000


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


@dataclass
class Inputs:
    """Everything set-up produces: the program only ever sees ``scripts``."""

    workload: Workload
    smoke: bool
    model: object
    scripts: list[ConversationScript]

    @property
    def turns(self) -> int:
        return sum(s.turns for s in self.scripts)


def prepare(wl: Workload, seed: int, *, smoke: bool = False) -> Inputs:
    model = wl.make_model()
    gen = WorkloadGenerator(model.config.vocab_size, seed=seed)
    return Inputs(wl, smoke, model, wl.make_scripts(gen, smoke))


# ---------------------------------------------------------------------- #
# one repetition
# ---------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What one repetition left behind, detached from the deployment (so
    its KV arrays are freed before the next repetition starts).

    ``sim`` and ``counters`` are deterministic: every repetition of a run
    must produce identical values.
    """

    wall: float
    tokens_served: int
    sim: dict[str, float]
    counters: dict[str, float]
    generated: dict[int, list[list[int] | None]]  # None = turn did not finish
    statuses: dict[str, int]
    leaks: list[str]
    py_calls: int = 0


def run_rep(
    inputs: Inputs,
    *,
    recorder: layers.SpanRecorder | None = None,
    tracer: RecordingTracer | None = None,
    profiler: cProfile.Profile | None = None,
) -> Outcome:
    """Build a fresh deployment, submit every script, drain; time all three."""
    wl = inputs.workload
    gc.collect()
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(layers.installed(recorder))
            stack.enter_context(recorder.root())
        if profiler is not None:
            profiler.enable()
            stack.callback(profiler.disable)
        start = time.perf_counter()
        deployment = wl.build(inputs.model, tracer, inputs.smoke)
        rids = submit_scripts_to_runtime(
            deployment, inputs.scripts,
            start_offset_s=wl.start_offset_s, think_time_s=wl.think_time_s,
        )
        report = deployment.run(max_steps=_MAX_STEPS)
        wall = time.perf_counter() - start

    records = report.records  # a fleet merges its replicas' records on every access
    finished = [r for r in records.values() if r.state is RequestState.FINISHED]
    if hasattr(deployment, "kv_leak_reports"):
        leaks = [f"replica {i}: {msg}" for i, msgs in deployment.kv_leak_reports().items() for msg in msgs]
    else:
        leaks = deployment.kv_leak_report()
    py_calls = 0
    if profiler is not None:
        py_calls = sum(entry.callcount for entry in profiler.getstats())
    return Outcome(
        wall=wall,
        tokens_served=sum(r.request.prompt.size + len(r.generated) for r in finished),
        sim=_sim_metrics(wl, report, finished),
        counters=_report_counters(inputs, report, records),
        generated={
            seq_id: [
                list(records[rid].generated) if records[rid].state is RequestState.FINISHED else None
                for rid in turn_rids
            ]
            for seq_id, turn_rids in rids.items()
        },
        statuses=report.statuses(),
        leaks=leaks,
        py_calls=py_calls,
    )


def _tail(samples: list[float], q: float) -> float:
    """The ``q``-th percentile when at least ten samples lie beyond it;
    0.0 (never an approximation) when the sample is too small."""
    if len(samples) * (100.0 - q) / 100.0 < 10:
        return 0.0
    return float(np.percentile(samples, q))


def _sim_metrics(wl: Workload, report, finished: list) -> dict[str, float]:
    ttft = [r.ttft for r in finished]
    gaps = [gap for r in finished for gap in r.ttit_samples()]
    met = 0
    for r in finished:
        own = r.ttit_samples()
        mean_ttit_ms = 1e3 * sum(own) / len(own) if own else 0.0
        met += r.ttft <= wl.slo_ttft_s and mean_ttit_ms <= wl.slo_ttit_ms
    return {
        "sim_ttft_p50_s": float(np.percentile(ttft, 50)),
        "sim_ttit_mean_ms": 1e3 * statistics.fmean(gaps),
        "sim_goodput_rps": met / report.makespan,
        "sim_decode_tok_s": report.tokens_per_second(),
        "sim.ttft_p90_s": _tail(ttft, 90),
        "sim.ttft_samples": len(ttft),
        "sim.ttit_p50_ms": 1e3 * float(np.percentile(gaps, 50)),
        "sim.ttit_p95_ms": 1e3 * _tail(gaps, 95),
        "sim.ttit_samples": len(gaps),
        "sim.makespan_s": report.makespan,
        "sim.slo_met_share": met / len(finished),
    }


def _report_counters(inputs: Inputs, report, records: dict) -> dict[str, float]:
    """Deterministic counters from the program's own reports."""
    fleet = hasattr(report, "replica_reports")
    pools = list(report.metrics.replicas.values()) if fleet else [report.metrics]

    def total(attr: str) -> float:
        return sum(getattr(m, attr) for m in pools)

    def busy_share(pool: str) -> float:
        return sum(m.pool_busy_s.get(pool, 0.0) for m in pools) / (report.makespan * len(pools))

    lookups = total("prefix_hits") + total("prefix_misses")
    prompt_tokens = sum(s.total_prompt_tokens for s in inputs.scripts)
    chunk_algos = Counter(algo for r in records.values() for algo in r.chunk_algos)
    return {
        "kvcache.prefix_hit_rate": total("prefix_hits") / lookups if lookups else 0.0,
        "kvcache.prefix_reused_token_share": total("prefix_reused_tokens") / prompt_tokens,
        "kvcache.peak_occupancy": max(
            (v for m in pools for v in m.peak_kv_utilization.values()), default=0.0
        ),
        "kvcache.evicted_tokens": total("evicted_tokens") + total("prefix_evicted_tokens"),
        "runtime.prefill_rounds": report.prefill_rounds,
        "runtime.decode_rounds": report.decode_rounds,
        "runtime.preemptions": total("preemptions"),
        "runtime.swaps_out": total("swaps_out"),
        "runtime.transfer.tokens": total("transferred_kv_tokens"),
        "runtime.transfer.stall_s": total("transfer_stall_s"),
        "runtime.faults.injected": total("transfer_faults") + total("swap_losses") + total("pool_resets"),
        "runtime.pool_busy_share.prefill": busy_share("prefill"),
        "runtime.pool_busy_share.decode": busy_share("decode"),
        "core.algo.passq_chunks": chunk_algos["pass-q"],
        "core.algo.passkv_chunks": chunk_algos["pass-kv"],
        "cluster.replicas_used": len(set(report.placements.values())) if fleet else 0,
    }


# ---------------------------------------------------------------------- #
# the two kinds of run
# ---------------------------------------------------------------------- #


def _keep_going(done: int, started: float, *, seconds: float | None, reps: int | None,
                at_least: int) -> bool:
    """Fixed ``reps`` when given; otherwise repeat while one more repetition
    of average length still fits into ``seconds``, but never fewer than
    ``at_least``."""
    if reps is not None:
        return done < reps
    elapsed = time.perf_counter() - started
    return done < at_least or elapsed + elapsed / done <= seconds


@dataclass
class E2ERun:
    outcomes: list[Outcome]
    probes: list[float]  # one before the first repetition, one after each
    peak_rss_mb: float


def measure_e2e(inputs: Inputs, *, seconds: float | None, reps: int | None) -> E2ERun:
    probe = Probe()
    probe.run()  # first touch of the probe's own code paths
    started = time.perf_counter()
    probes = [probe.run()]
    outcomes: list[Outcome] = []
    while _keep_going(len(outcomes), started, seconds=seconds, reps=reps, at_least=3):
        outcomes.append(run_rep(inputs))
        probes.append(probe.run())
    # before verification: the reference replay is not the program's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return E2ERun(outcomes, probes, peak_rss_mb)


def e2e_metrics(run: E2ERun, setup_s: float) -> dict[str, float]:
    first = run.outcomes[0]
    # each repetition against the probes run just before and after it: the
    # machine's speed drifts by tens of percent within a run
    costs = [
        o.wall / ((before + after) / 2.0)
        for o, before, after in zip(run.outcomes, run.probes, run.probes[1:])
    ]
    metrics = {
        "setup_s": setup_s,
        "host_cost_per_token": statistics.median(costs) / first.tokens_served,
        "peak_rss_mb": run.peak_rss_mb,
    }
    metrics.update({name: first.sim[name] for name, _ in E2E_METRICS if name in first.sim})
    return metrics


@dataclass
class LayerRun:
    untraced: list[Outcome]
    traced: list[Outcome]
    tracer_on: list[Outcome]
    profiled: Outcome | None
    probes: list[float]
    span_stats: list[dict[str, float]]  # one per traced repetition
    event_stats: list[dict[str, float]]  # one per tracer-on repetition

    @property
    def outcomes(self) -> list[Outcome]:
        return self.untraced + self.traced + self.tracer_on + [self.profiled]


def measure_layers(
    inputs: Inputs, *, seconds: float | None, reps: int | None, trace_path: str | None = None
) -> LayerRun:
    """``trace_path``: write the first traced repetition's spans there as
    Chrome-trace JSON. Spans and events are reduced to their statistics as
    soon as a repetition ends, so no repetition runs beside another's."""
    probe = Probe()
    probe.run()
    started = time.perf_counter()
    run = LayerRun([], [], [], None, [probe.run()], [], [])
    at_least = 1 if inputs.smoke else 2  # two, so that counters can be seen to repeat
    while _keep_going(len(run.untraced), started, seconds=seconds, reps=reps, at_least=at_least):
        run.untraced.append(run_rep(inputs))
        run.probes.append(probe.run())

        recorder = layers.SpanRecorder()
        run.traced.append(run_rep(inputs, recorder=recorder))
        run.span_stats.append(_span_stats(recorder))
        if trace_path is not None and len(run.traced) == 1:
            recorder.write_chrome(trace_path, workload=inputs.workload.name)

        tracer = RecordingTracer()
        run.tracer_on.append(run_rep(inputs, tracer=tracer))
        run.event_stats.append(_event_stats(tracer.events))
    # builtins=False: count Python-level calls only, through the same C
    # profile hook sys.setprofile uses, at a fraction of its cost
    run.profiled = run_rep(inputs, profiler=cProfile.Profile(builtins=False))
    return run


def _event_stats(events: list) -> dict[str, float]:
    """Round shapes and queue waits from the program's own trace events."""
    decode_seqs = [e.attrs["seqs"] for e in events if e.name == "decode_round"]
    prefill_tokens = [e.attrs["tokens"] for e in events if e.name == "prefill_round"]
    by_request: dict[int, list] = {}
    for e in events:
        if e.request_id is not None:
            by_request.setdefault(e.request_id, []).append(e)
    waits = [
        explain_ttft(by_request[e.request_id], e.request_id).components["queue_wait"]
        for e in events if e.name == "finish"
    ]
    return {
        "obs.trace.events": len(events),
        "runtime.decode_batch_mean": statistics.fmean(decode_seqs) if decode_seqs else 0.0,
        "runtime.prefill_round_tokens_mean": statistics.fmean(prefill_tokens) if prefill_tokens else 0.0,
        "runtime.queue_wait_p50_s": float(np.percentile(waits, 50)) if waits else 0.0,
    }


def _span_stats(recorder: layers.SpanRecorder) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    summary = recorder.summary()
    counts = recorder.counts
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, float] = {}
    for span in _SPAN_METRICS:
        row = summary.get(span, zero)
        out[f"{span}.calls"] = row["calls"]
        out[f"{span}.self_s"] = row["self_s"]
    flash_calls = out["attention.flash.calls"]
    decode_calls = out["core.engine.decode.calls"]
    passq, passkv = counts["core.algo.passq_prefills"], counts["core.algo.passkv_prefills"]
    out.update({
        "attention.flash.mflop": counts["attention.flash.mflop"],
        "attention.flash.q_rows_mean": counts["attention.flash.q_rows"] / flash_calls if flash_calls else 0.0,
        "core.engine.prefill.tokens": counts["core.engine.prefill.tokens"],
        "core.engine.decode.total_s": summary.get("core.engine.decode", zero)["total_s"],
        "core.engine.decode.batch_mean": counts["core.engine.decode.batch"] / decode_calls if decode_calls else 0.0,
        "core.algo.passq_share": passq / (passq + passkv) if passq + passkv else 0.0,
        "distributed.pg.payload_mb": counts["distributed.pg.payload_mb"],
        "runtime.step.calls": summary.get("runtime.step", zero)["calls"],
        "runtime.self_s": summary.get("runtime.step", zero)["self_s"] + summary.get("runtime.submit", zero)["self_s"],
        "cluster.route.affinity_share": (
            counts["cluster.route.affinity"] / counts["cluster.route.placed"]
            if counts["cluster.route.placed"] else 0.0
        ),
        "host.unattributed_s": summary[layers.ROOT]["self_s"],
        "host.traced_wall_s": summary[layers.ROOT]["total_s"],
    })
    return out


def layer_metrics(run: LayerRun) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, plus the deterministic ones that failed to
    repeat across this run's repetitions (must be empty)."""
    deterministic = {name for name, _, det in PER_LAYER_METRICS if det}
    unstable = [
        f"{name}: {[s[name] for s in samples]}"
        for samples in (run.span_stats, run.event_stats)
        for name in samples[0]
        if name in deterministic and any(s[name] != samples[0][name] for s in samples)
    ]
    # every span timing comes from one repetition, the traced one of median
    # wall, so that self times and host.unattributed_s add up to its wall
    order = sorted(range(len(run.traced)), key=lambda i: run.traced[i].wall)
    metrics = {**run.span_stats[order[(len(order) - 1) // 2]], **run.event_stats[0]}

    first = run.untraced[0]
    wall = statistics.median(o.wall for o in run.untraced)
    metrics.update({k: v for k, v in first.counters.items() if k in deterministic})
    metrics.update({k: v for k, v in first.sim.items() if k in deterministic})
    metrics.update({
        "obs.trace.overhead_pct": 100.0 * (statistics.median(o.wall for o in run.tracer_on) / wall - 1.0),
        "host.span_overhead_pct": 100.0 * (statistics.median(o.wall for o in run.traced) / wall - 1.0),
        "host.wall_ms_per_token": 1e3 * wall / first.tokens_served,
        "host.probe_ms": 1e3 * statistics.median(run.probes),
        "host.py_calls_per_token": run.profiled.py_calls / first.tokens_served,
    })
    return metrics, unstable


# ---------------------------------------------------------------------- #
# verification
# ---------------------------------------------------------------------- #


@dataclass
class Verdict:
    attempted: int
    unfinished: int
    mismatched: int
    problems: list[str]

    @property
    def failed(self) -> int:
        return self.unfinished + self.mismatched

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def verify(inputs: Inputs, outcomes: list[Outcome], *, flip_token: bool = False) -> Verdict:
    """Bit-compare every finished turn of every repetition against a
    sequential replay on a fresh engine per conversation; require clean KV
    audits, identical simulated results across repetitions, and (at full
    scale) the workload's stated shape.

    ``flip_token`` is the ``--inject flip-token`` test hook: it corrupts
    one generated token before the comparison, which must then fail.
    """
    wl = inputs.workload
    reference = replay_scripts_sequential(
        lambda: wl.reference_engine(inputs.model), inputs.scripts
    )
    if flip_token:
        first_turn = next(t for turns in outcomes[0].generated.values() for t in turns if t)
        first_turn[0] = (first_turn[0] + 1) % inputs.model.config.vocab_size

    unfinished = mismatched = 0
    problems: list[str] = []
    for i, outcome in enumerate(outcomes):
        for seq_id, turns in outcome.generated.items():
            for got, want in zip(turns, reference[seq_id]):
                if got is None:
                    unfinished += 1
                elif got != want:
                    mismatched += 1
        problems += [f"rep {i}: KV leak: {msg}" for msg in outcome.leaks]
        if outcome.sim != outcomes[0].sim:
            problems.append(f"rep {i}: simulated metrics differ from rep 0: {outcome.sim} != {outcomes[0].sim}")
        if outcome.counters != outcomes[0].counters:
            problems.append(f"rep {i}: report counters differ from rep 0: {outcome.counters} != {outcomes[0].counters}")
    if not inputs.smoke:
        problems += [f"property: {msg}" for msg in wl.properties(outcomes[0].counters)]
    return Verdict(len(outcomes) * inputs.turns, unfinished, mismatched, problems)

"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments [--markdown] [--only ID]`` — regenerate the paper's tables
  and figures (plus extension experiments) and print them.
- ``plan --context N [--sla S]`` — smallest CP deployment meeting a TTFT
  SLA for Llama3 405B on GTT.
- ``heuristic --new-tokens T --cached P [--ranks N]`` — what each selector
  chooses for a partial prefill.
- ``demo [--world N] [--tokens T]`` — run the numeric engine end-to-end
  and report the losslessness error.
- ``serve`` — replay a multi-session trace through the continuous-batching
  runtime (chunked prefill + preemption under KV pressure) and report
  streaming metrics; ``--disaggregate P:D`` splits it into a CP-P prefill
  pool feeding a CP-D decode pool over a priced KV-transfer stream
  (§4.3); ``--preemption {recompute,trim,swap}`` picks the eviction
  remedy (full re-prefill, tail-trim + suffix re-prefill, or CPU-side KV
  swap priced at PCIe bandwidth, bounded by ``--swap-capacity``);
  ``--prefix-cache`` turns on shared-prefix KV reuse (a radix index over
  committed tokens with refcounted copy-on-write paged blocks);
  ``--traffic shared-prefix`` replays the templated N-system-prompts x
  M-few-shot-variants workload that exercises it;
  ``--policy {fifo,srpf}`` picks the chunk-packing order
  (shortest-remaining-prefill-first trades head-of-line blocking for
  mean TTFT); ``--faults`` arms the deterministic chaos layer
  (``transfer=0.2,swap=0.2,pool_reset=1,deadline=30,queue=16`` — see
  :meth:`repro.runtime.faults.FaultPlan.parse`), seeded by
  ``--fault-seed`` (default: ``--seed``, so one seed reproduces both
  the workload and the fault schedule); ``--replicas N`` serves the
  trace through a cluster-tier fleet of N independent replicas (each
  with the chosen deployment shape) behind ``--routing
  {prefix,round-robin,least-loaded}`` — prefix-affinity routing places
  each conversation on the replica whose radix index holds its longest
  cached prefix, balanced against load and queue depth, with session
  stickiness for follow-up turns; ``--verify`` bit-checks every
  decoded token against sequential per-conversation replay (under
  faults, every *completed* request — shed and timed-out requests
  claim nothing; routing never changes token values) and cross-checks
  every metrics counter against the recorded scheduling trace (drift
  fails the run); ``--trace PATH --trace-format {jsonl,chrome}``
  records the deterministic scheduling trace (same seed ⇒
  byte-identical file; the chrome format loads in ui.perfetto.dev);
  ``--prom PATH`` writes the metrics as a Prometheus text exposition.
- ``explain REQ_ID --trace PATH`` — reconstruct one request's timeline
  from a recorded serve trace and decompose its TTFT into queue wait,
  prefill compute, swap/transfer stalls, fault backoff, and
  post-preemption requeue wait (components sum to TTFT exactly), plus
  the fleet routing decision when the trace came from ``--replicas``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import report

    selected = report.select(args.only, fast=args.fast)
    if not selected:
        known = ", ".join(exp_id for exp_id, _ in report.registry(fast=args.fast))
        print(f"no experiment id contains {args.only!r}; known ids: {known}", file=sys.stderr)
        return 2
    for exp_id, run in selected:
        res = run()
        if res.experiment_id != exp_id:
            raise RuntimeError(f"experiment registered as {exp_id!r} reports {res.experiment_id!r}")
        print(res.render_markdown() if args.markdown else res.render())
        print()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.model.config import llama3_405b_config
    from repro.perf.flops import mfu, model_flops
    from repro.perf.hardware import gti_host, gtt_host
    from repro.perf.latency import LatencySimulator

    host = gti_host() if args.platform == "gti" else gtt_host()
    sim = LatencySimulator(llama3_405b_config(), host)
    print(f"planning {args.context} tokens on {host.name}, SLA {args.sla:.1f}s")
    for n in (1, 2, 4, 8, 16, 32):
        ttft = sim.cp_prefill(args.context, n_ranks=n).total
        flops = model_flops(sim.config, args.context)
        util = mfu(flops, ttft, n * host.gpus_per_host, host.gpu.peak_flops)
        marker = " <-- meets SLA" if ttft <= args.sla else ""
        print(f"  CP{n:<3} ({n * host.gpus_per_host:>3} GPUs): "
              f"TTFT {ttft:8.2f}s  MFU {util:5.1%}{marker}")
        if ttft <= args.sla:
            return 0
    print("  no configuration meets the SLA")
    return 1


def _cmd_heuristic(args: argparse.Namespace) -> int:
    from repro.core.heuristics import (
        select_algo_empirical,
        select_algo_simple,
        select_algo_with_all2all,
    )
    from repro.model.config import llama3_405b_config
    from repro.perf.hardware import gtt_host
    from repro.perf.latency import LatencySimulator

    sim = LatencySimulator(llama3_405b_config(), gtt_host())
    hc = sim.heuristic_config(args.ranks)
    t, p = args.new_tokens, args.cached
    rate = t / (t + p) if t + p else 0.0
    print(f"T={t} P={p} miss rate={rate:.2%} on CP{args.ranks}")
    print(f"  Algorithm 1:        {select_algo_simple(hc, t, p).value}")
    print(f"  Algorithm 5:        {select_algo_with_all2all(hc, t, p).value}")
    print(f"  empirical (paper):  {select_algo_empirical(t, p).value}")
    print(f"  simulated oracle:   {sim.best_algo(t, p, n_ranks=args.ranks).value}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.engine import ContextParallelEngine
    from repro.model.config import tiny_config
    from repro.model.llama import LlamaModel
    from repro.obs import RecordingTracer, comm_totals

    model = LlamaModel(tiny_config(), seed=0)
    engine = ContextParallelEngine(model, world_size=args.world)
    engine.group.tracer = tracer = RecordingTracer()
    toks = (np.arange(args.tokens) * 13) % model.config.vocab_size
    out = engine.prefill({0: toks})
    err = float(np.abs(out.logits[0] - model.forward(toks)).max())
    generated = engine.generate({1: toks[: args.tokens // 2]}, max_new_tokens=4)
    by_kind = {kind: tot.bytes for kind, tot in comm_totals(tracer.events).items() if tot.count}
    print(f"world={args.world} tokens={args.tokens}")
    print(f"prefill algo: {out.plan.algo.value}")
    print(f"losslessness max error vs single device: {err:.3e}")
    print(f"sample generation: {generated[1]}")
    print(f"comm bytes by kind: {by_kind}")
    return 0 if err < 1e-8 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.engine import ContextParallelEngine
    from repro.model.config import tiny_config
    from repro.model.llama import LlamaModel
    from repro.obs import RecordingTracer, comm_totals, write_chrome

    model = LlamaModel(tiny_config(), seed=0)
    engine = ContextParallelEngine(model, world_size=args.world)
    engine.group.tracer = tracer = RecordingTracer()
    toks = np.arange(args.tokens) % model.config.vocab_size
    engine.prefill({0: toks})
    engine.generate({0: np.array([1])}, max_new_tokens=args.decode_steps)
    write_chrome(tracer.events, args.output)
    print(f"wrote {len(tracer.events)} traced events to {args.output}")
    print(f"{'kind':<12} {'count':>6} {'bytes':>14} {'seconds':>10}")
    for kind, tot in sorted(comm_totals(tracer.events).items()):
        if tot.count:
            print(f"{kind:<12} {tot.count:>6} {tot.bytes:>14} {tot.seconds:>10.6f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.engine import ContextParallelEngine
    from repro.model.config import llama3_405b_config, tiny_config
    from repro.model.llama import LlamaModel
    from repro.perf.hardware import gti_host, gtt_host
    from repro.perf.latency import LatencySimulator
    from repro.runtime import ContinuousBatchingRuntime, FaultPlan, SimulatedStepClock
    from repro.runtime.state import RequestState
    from repro.serving.scheduler import ChunkedPrefillPolicy
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import (
        replay_scripts_sequential,
        submit_scripts_to_runtime,
    )

    if args.round_budget < args.chunk:
        print(
            f"error: --round-budget ({args.round_budget}) must be >= "
            f"--chunk ({args.chunk})",
            file=sys.stderr,
        )
        return 2
    model = LlamaModel(tiny_config(), seed=0)
    gen = WorkloadGenerator(model.config.vocab_size, seed=args.seed)
    if args.traffic == "shared-prefix":
        scripts = gen.shared_prefix_traffic(
            n_system_prompts=max(1, args.sessions // 4),
            n_fewshot_variants=2,
            conversations=args.sessions,
            system_tokens=args.first_prompt,
            fewshot_tokens=max(1, args.first_prompt // 3),
            unique_range=(6, 12),
            turns=args.turns,
            followup_range=(6, 12),
            response_range=(4, 6),
        )
    else:
        scripts = [
            gen.conversation(
                sid, turns=args.turns, first_prompt=args.first_prompt,
                followup_range=(6, 12), response_range=(4, 6),
            )
            for sid in range(args.sessions)
        ]
    host = gti_host() if args.platform == "gti" else gtt_host()
    sim = LatencySimulator(llama3_405b_config(), host)
    pools = None
    if args.disaggregate is not None:
        try:
            p, d = (int(x) for x in args.disaggregate.split(":"))
            if p < 1 or d < 1:
                raise ValueError
        except ValueError:
            print(
                f"error: --disaggregate wants P:D with positive integers, "
                f"got {args.disaggregate!r}",
                file=sys.stderr,
            )
            return 2
        pools = (p, d)
    if args.decode_capacity is not None and pools is None:
        print(
            "error: --decode-capacity only applies with --disaggregate",
            file=sys.stderr,
        )
        return 2
    if args.world is not None and pools is not None:
        print(
            "error: --world conflicts with --disaggregate (pool sizes come "
            "from P:D)",
            file=sys.stderr,
        )
        return 2
    if args.swap_capacity is not None and args.preemption != "swap":
        print(
            "error: --swap-capacity only applies with --preemption swap",
            file=sys.stderr,
        )
        return 2
    faults = None
    if args.faults is not None:
        # one seed controls workload AND fault plan unless split explicitly
        fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
        try:
            faults = FaultPlan.parse(args.faults, seed=fault_seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.fault_seed is not None:
        print("error: --fault-seed only applies with --faults", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print(f"error: --replicas must be >= 1, got {args.replicas}", file=sys.stderr)
        return 2
    # --verify needs a recorded trace for the metrics reconciliation
    # cross-check even when no --trace file was asked for
    from repro.obs import NULL_TRACER, RecordingTracer

    tracer = RecordingTracer() if (args.trace or args.verify) else NULL_TRACER
    if args.routing is not None and args.replicas == 1:
        print(
            "error: --routing only applies with --replicas > 1 "
            "(a single replica has nothing to route)",
            file=sys.stderr,
        )
        return 2
    world = args.world if args.world is not None else 2

    remedy = dict(
        preemption=args.preemption,
        swap_capacity_tokens=args.swap_capacity,
        prefix_cache=args.prefix_cache,
        faults=faults,
        sanitize=args.sanitize,
    )

    # fresh policy/clock/engines per replica: replicas share model
    # weights (read-only) but never scheduler or clock state; fleet
    # replicas record through a replica-scoped tracer view so every
    # event in a fleet trace is attributable
    def make_runtime(replica_id=None):
        rt_tracer = tracer if replica_id is None else tracer.scoped(replica=replica_id)
        policy = ChunkedPrefillPolicy(
            chunk_tokens=args.chunk,
            max_tokens_per_round=args.round_budget,
            max_seqs_per_round=8,
            order=args.policy,
        )
        if pools is None:
            engine = ContextParallelEngine(
                model, world_size=world, capacity_tokens=args.capacity
            )
            return ContinuousBatchingRuntime(
                engine,
                policy=policy,
                clock=SimulatedStepClock(sim, n_ranks=args.priced_ranks),
                tracer=rt_tracer,
                **remedy,
            )
        decode_cap = (
            args.decode_capacity if args.decode_capacity is not None else args.capacity
        )
        engine = ContextParallelEngine(
            model, world_size=pools[0], capacity_tokens=args.capacity
        )
        decode_engine = ContextParallelEngine(
            model, world_size=pools[1], capacity_tokens=decode_cap
        )
        # a dedicated decode pool streams at single-host TP TTIT (§4.3)
        return ContinuousBatchingRuntime(
            engine,
            decode_engine=decode_engine,
            policy=policy,
            clock=SimulatedStepClock(sim, n_ranks=args.priced_ranks, tp_decode=True),
            tracer=rt_tracer,
            **remedy,
        )

    deploy = (
        f"CP{world}"
        if pools is None
        else f"CP{pools[0]} prefill -> CP{pools[1]} decode"
    )
    fleet = None
    if args.replicas == 1:
        # the bare-runtime path, untouched: a 1-replica fleet's output is
        # byte-identical to this (the metamorphic property), so keep the
        # simple object when there is nothing to route
        runtime = make_runtime()
    else:
        from repro.cluster import ReplicaFleet, make_router

        routing = args.routing if args.routing is not None else "prefix"
        fleet = ReplicaFleet.build(
            make_runtime, args.replicas, router=make_router(routing), tracer=tracer
        )
        runtime = fleet
        deploy = f"{args.replicas} x {deploy} ({routing} routing)"
    rids = submit_scripts_to_runtime(runtime, scripts)
    report = runtime.run(max_steps=1_000_000)

    cap = "unbounded" if args.capacity is None else str(args.capacity)
    extras = f"policy: {args.policy}"
    if args.prefix_cache:
        extras += ", prefix cache: on"
    print(
        f"served {args.sessions} sessions x {args.turns} turns "
        f"({args.traffic} traffic) on {deploy} "
        f"(KV capacity/rank: {cap}, chunk: {args.chunk}, "
        f"preemption: {args.preemption}, {extras}, "
        f"priced as 405B on CP{args.priced_ranks} {host.name})"
    )
    if faults is not None:
        print(f"fault plan (seed {faults.seed}): {faults.describe()}")
        outcomes = ", ".join(
            f"{k}: {v}" for k, v in sorted(report.statuses().items())
        )
        print(f"request outcomes: {outcomes}")
        print(f"goodput: {report.goodput():.3f} completed requests/s")
    print(f"rounds: {report.prefill_rounds} prefill, {report.decode_rounds} decode")
    print(f"makespan: {report.makespan:.1f}s simulated, "
          f"{report.tokens_per_second():.2f} decoded tok/s")
    if fleet is not None:
        placed = report.placements
        spread = ", ".join(
            f"replica {rid}: {sum(1 for r in placed.values() if r == rid)} sessions"
            for rid in sorted(report.replica_reports)
        )
        print(f"placements: {spread}")
        leaks = fleet.kv_leak_reports()
        clean = all(not v for v in leaks.values())
        print(f"post-drain KV audit: {'clean' if clean else leaks}")
    elif pools is not None:
        util = report.pool_utilization()
        print(
            "pool utilization: "
            + ", ".join(f"{pool}: {frac:.1%}" for pool, frac in util.items())
        )
    print(report.metrics.summary())

    if args.trace:
        from repro.obs import write_chrome, write_jsonl

        if args.trace_format == "chrome":
            write_chrome(tracer.events, args.trace)
        else:
            write_jsonl(tracer.events, args.trace)
        print(
            f"wrote {len(tracer.events)} trace events to {args.trace} "
            f"({args.trace_format})"
        )
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(report.metrics.prometheus_text())
        print(f"wrote Prometheus exposition to {args.prom}")

    if not args.verify:
        return 0
    reference = replay_scripts_sequential(
        lambda: ContextParallelEngine(
            LlamaModel(tiny_config(), seed=0),
            world_size=pools[0] if pools is not None else world,
        ),
        scripts,
    )
    mismatches = compared = skipped = 0
    for script in scripts:
        ref_turns = reference[script.seq_id]
        for i, rid in enumerate(rids[script.seq_id]):
            if report.record(rid).state is not RequestState.FINISHED:
                # shed/timed-out turns claim nothing; the exactness
                # contract under faults covers completed requests only
                skipped += 1
                continue
            compared += 1
            got = list(report.generated(rid))
            if got != list(ref_turns[i]):
                mismatches += 1
                print(f"MISMATCH seq {script.seq_id} turn {i}: "
                      f"{got} != {ref_turns[i]}")
    verdict = "identical" if mismatches == 0 else f"{mismatches} turns differ"
    scope = f"{compared} completed turns"
    if skipped:
        scope += f", {skipped} shed/timed-out skipped"
    print(f"verify vs sequential replay: {verdict} ({scope})")

    # the trace/metrics cross-check: every ServingMetrics counter and
    # stall total must be exactly derivable from the recorded trace
    from repro.obs import reconcile, reconcile_fleet

    if fleet is not None:
        drift = reconcile_fleet(tracer.events, report.metrics)
    else:
        drift = reconcile(tracer.events, runtime.metrics)
    for problem in drift:
        print(f"DRIFT {problem}")
    recon = "exact" if not drift else f"{len(drift)} counter(s) drifted"
    print(f"verify trace reconciliation: {recon} "
          f"({len(tracer.events)} events vs metrics)")
    return 0 if mismatches == 0 and not drift else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import format_explanation, load_jsonl, request_ids

    try:
        events = load_jsonl(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(
            f"error: {args.trace!r} is not a JSONL trace ({exc!r}); "
            "explain wants the output of serve --trace PATH "
            "--trace-format jsonl",
            file=sys.stderr,
        )
        return 2
    if args.request_id is None:
        ids = request_ids(events)
        print(f"{len(events)} events, {len(ids)} requests: "
              + ", ".join(str(i) for i in ids))
        return 0
    try:
        print(format_explanation(events, args.request_id))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        default_lint_target,
        lint_paths,
        rules_table,
    )

    if args.list_rules:
        print(rules_table())
        return 0
    if args.paths:
        findings = lint_paths(args.paths)
        target_desc = ", ".join(args.paths)
    else:
        target = default_lint_target()
        findings = lint_paths([target], root=target.parent)
        target_desc = str(target)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s) in {target_desc}", file=sys.stderr)
        return 1
    print(f"clean: no determinism findings in {target_desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context Parallelism for Scalable Million-Token Inference - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("--markdown", action="store_true", help="emit markdown tables")
    p_exp.add_argument("--only", default="", help="filter by experiment id substring")
    p_exp.add_argument("--fast", action="store_true", help="skip the slow sweeps")
    p_exp.set_defaults(func=_cmd_experiments)

    p_plan = sub.add_parser("plan", help="size a CP deployment for a TTFT SLA")
    p_plan.add_argument("--context", type=int, required=True)
    p_plan.add_argument("--sla", type=float, default=60.0)
    p_plan.add_argument("--platform", choices=["gtt", "gti"], default="gtt")
    p_plan.set_defaults(func=_cmd_plan)

    p_h = sub.add_parser("heuristic", help="pass-KV vs pass-Q selection for (T, P)")
    p_h.add_argument("--new-tokens", type=int, required=True)
    p_h.add_argument("--cached", type=int, required=True)
    p_h.add_argument("--ranks", type=int, default=4)
    p_h.set_defaults(func=_cmd_heuristic)

    p_demo = sub.add_parser("demo", help="numeric engine end-to-end check")
    p_demo.add_argument("--world", type=int, default=4)
    p_demo.add_argument("--tokens", type=int, default=32)
    p_demo.set_defaults(func=_cmd_demo)

    p_serve = sub.add_parser(
        "serve", help="replay a trace through the continuous-batching runtime"
    )
    p_serve.add_argument("--sessions", type=int, default=4)
    p_serve.add_argument("--turns", type=int, default=2)
    p_serve.add_argument("--first-prompt", type=int, default=48)
    p_serve.add_argument(
        "--world", type=int, default=None,
        help="colocated CP pool size (default 2; conflicts with --disaggregate)",
    )
    p_serve.add_argument(
        "--capacity", type=int, default=None,
        help="per-rank KV token capacity (default unbounded; small values force preemption)",
    )
    p_serve.add_argument(
        "--disaggregate", metavar="P:D", default=None,
        help="split serving into a CP-P prefill pool feeding a CP-D decode "
             "pool over a priced KV-transfer stream (default: colocated)",
    )
    p_serve.add_argument(
        "--decode-capacity", type=int, default=None,
        help="per-rank KV token capacity of the decode pool "
             "(default: same as --capacity; only with --disaggregate)",
    )
    p_serve.add_argument(
        "--preemption", choices=["recompute", "trim", "swap"], default="recompute",
        help="eviction remedy under KV pressure: full evict + exact re-prefill "
             "(recompute, default), tail-trim newest blocks + re-prefill only the "
             "suffix (trim), or CPU-side KV swap priced at PCIe bandwidth (swap)",
    )
    p_serve.add_argument(
        "--swap-capacity", type=int, default=None,
        help="host-side KV store budget in tokens per pool "
             "(default unbounded; only with --preemption swap)",
    )
    p_serve.add_argument(
        "--prefix-cache", action="store_true",
        help="shared-prefix KV reuse: a radix index over committed tokens "
             "lets admissions adopt resident prefixes through refcounted "
             "copy-on-write paged blocks, charging only the uncached suffix",
    )
    p_serve.add_argument(
        "--traffic", choices=["conversations", "shared-prefix"],
        default="conversations",
        help="workload shape: independent multi-turn conversations "
             "(default), or templated shared-prefix traffic (N system "
             "prompts x M few-shot variants) that exercises the prefix cache",
    )
    p_serve.add_argument(
        "--policy", choices=["fifo", "srpf"], default="fifo",
        help="chunked-prefill packing order: arrival order (fifo, default) "
             "or shortest-remaining-prefill-first (srpf)",
    )
    p_serve.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="arm the deterministic chaos layer: comma-separated key=value "
             "spec, e.g. transfer=0.2,swap=0.2,pool_reset=1,deadline=30,"
             "queue=16 (keys: transfer/swap fault rates, pool_reset count, "
             "window, retries, backoff, backoff_cap, deadline seconds, "
             "queue depth cap)",
    )
    p_serve.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the fault schedule (default: --seed, so one seed "
             "reproduces workload and faults together; only with --faults)",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=1,
        help="serve through a cluster-tier fleet of N independent replicas "
             "(each with the deployment shape the other flags pick); 1 "
             "(default) keeps the bare single runtime",
    )
    p_serve.add_argument(
        "--routing", choices=["prefix", "round-robin", "least-loaded"],
        default=None,
        help="fleet routing policy for new conversations (only with "
             "--replicas > 1; default prefix): prefix-affinity scores "
             "replicas by cached-prefix match minus load and queue depth, "
             "round-robin cycles, least-loaded picks the fewest queued "
             "prefill tokens; follow-up turns always stick to their "
             "conversation's replica",
    )
    p_serve.add_argument("--chunk", type=int, default=16, help="prefill chunk tokens")
    p_serve.add_argument("--round-budget", type=int, default=32,
                         help="fused prefill round token budget")
    p_serve.add_argument("--priced-ranks", type=int, default=4,
                         help="CP pool size the step clock prices (405B model)")
    p_serve.add_argument("--platform", choices=["gtt", "gti"], default="gtt")
    p_serve.add_argument("--seed", type=int, default=11)
    p_serve.add_argument(
        "--verify", action="store_true",
        help="bit-check decoded tokens against sequential per-conversation "
             "replay, and cross-check every metrics counter against the "
             "recorded scheduling trace (any drift fails the run)",
    )
    p_serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the deterministic scheduling trace (admits, prefill "
             "chunks, decode rounds, KV transfers, swaps, preemptions, "
             "prefix-cache and fault events on simulated time) and write "
             "it to PATH; same seed + same flags => byte-identical file",
    )
    p_serve.add_argument(
        "--trace-format", choices=["jsonl", "chrome"], default="jsonl",
        help="trace file format: JSONL (one event per line, canonical, "
             "default) or Chrome/Perfetto trace.json (load in "
             "chrome://tracing or ui.perfetto.dev; replicas are "
             "processes, pools and requests are thread tracks)",
    )
    p_serve.add_argument(
        "--prom", metavar="PATH", default=None,
        help="write the run's metrics as a Prometheus text exposition to "
             "PATH (fleet runs label every series with its replica id)",
    )
    p_serve.add_argument(
        "--sanitize", action="store_true",
        help="arm the KV shadow-state sanitizer on every pool engine: each "
             "allocator/lifecycle op is validated against an independent "
             "shadow model and the run fails at the first double-free, "
             "use-after-free, refcount, copy-on-write, or leak violation",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="AST determinism linter over the repro package "
             "(unseeded RNG, wall-clock reads, set-iteration order, "
             "id()-based ordering)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: the installed "
             "repro package tree)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (ids, scopes, rationale) and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_explain = sub.add_parser(
        "explain",
        help="decompose one request's TTFT from a recorded serve trace",
    )
    p_explain.add_argument(
        "request_id", type=int, nargs="?", default=None,
        help="fleet/runtime request id to explain (omit to list the "
             "trace's request ids)",
    )
    p_explain.add_argument(
        "--trace", metavar="PATH", required=True,
        help="JSONL trace recorded by serve --trace PATH "
             "--trace-format jsonl",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_trace = sub.add_parser("trace", help="export a Chrome trace of a demo run")
    p_trace.add_argument("--world", type=int, default=4)
    p_trace.add_argument("--tokens", type=int, default=48)
    p_trace.add_argument("--decode-steps", type=int, default=4)
    p_trace.add_argument("--output", default="cp_trace.json")
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
  M-few-shot-variants workload that exercises it; ``--faults`` arms the
  deterministic chaos layer
  (``transfer=0.2,swap=0.2,pool_reset=1,deadline=30,queue=16`` — see
  :meth:`repro.runtime.faults.FaultPlan.parse`), seeded by
  ``--fault-seed`` (default: ``--seed``, so one seed reproduces both
  the workload and the fault schedule); ``--replicas N`` serves the
  trace through a cluster-tier fleet of N independent replicas (each
  with the chosen deployment shape) behind ``--routing
  {prefix,round-robin}`` — prefix-affinity routing places
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
import math
import sys

import numpy as np


def _check_writable(flag: str, path: str) -> None:
    """Raise ``ValueError`` unless ``path`` opens for writing, so a bad
    output path is a usage error before the run, not a traceback after
    it. An existing file is left as it is; a missing one is created."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValueError(f"{flag} {path!r} is not writable: {exc.strerror}") from None


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import report

    selected = report.select(args.only, fast=args.fast)
    if not selected:
        known = ", ".join(exp_id for exp_id, _ in report.registry(fast=args.fast))
        print(
            f"error: no experiment id contains {args.only!r}; known ids: {known}", file=sys.stderr
        )
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
    try:
        if not (args.sla > 0 and math.isfinite(args.sla)):
            raise ValueError(f"--sla must be a finite number of seconds > 0, got {args.sla}")
        ttfts = {n: sim.cp_prefill(args.context, n_ranks=n).total for n in (1, 2, 4, 8, 16, 32)}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"planning {args.context} tokens on {host.name}, SLA {args.sla:.1f}s")
    for n, ttft in ttfts.items():
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
    t, p, n = args.new_tokens, args.cached, args.ranks
    try:
        hc = sim.heuristic_config(n)
        picks = {
            "Algorithm 1:": select_algo_simple(hc, t, p).value,
            "Algorithm 5:": select_algo_with_all2all(hc, t, p).value,
            "empirical (paper):": select_algo_empirical(t, p).value,
            "simulated oracle:": sim.cp_prefill(t, p, n_ranks=n).algo,
        }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rate = t / (t + p) if t + p else 0.0
    print(f"T={t} P={p} miss rate={rate:.2%} on CP{n}")
    for label, algo in picks.items():
        print(f"  {label:<20}{algo}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.engine import ContextParallelEngine
    from repro.model.config import tiny_config
    from repro.model.llama import LlamaModel
    from repro.obs import RecordingTracer, comm_totals
    from repro.serving.session import ChatSession

    model = LlamaModel(tiny_config(), seed=0)
    toks = (np.arange(args.tokens) * 13) % model.config.vocab_size
    try:
        engine = ContextParallelEngine(model, world_size=args.world)
        engine.group.tracer = tracer = RecordingTracer()
        out = engine.prefill({0: toks})
        turn = ChatSession(engine, 1).send(toks[: args.tokens // 2], max_new_tokens=4)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    err = float(np.abs(out.logits[0] - model.forward(toks)).max())
    by_kind = {kind: tot.bytes for kind, tot in comm_totals(tracer.events).items() if tot.count}
    print(f"world={args.world} tokens={args.tokens}")
    print(f"prefill algo: {out.plan.algo.value}")
    print(f"losslessness max error vs single device: {err:.3e}")
    print(f"sample generation: {turn.generated}")
    print(f"comm bytes by kind: {by_kind}")
    return 0 if err < 1e-8 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.engine import ContextParallelEngine
    from repro.model.config import tiny_config
    from repro.model.llama import LlamaModel
    from repro.obs import RecordingTracer, comm_totals, write_chrome
    from repro.serving.session import ChatSession

    model = LlamaModel(tiny_config(), seed=0)
    toks = np.arange(args.tokens) % model.config.vocab_size
    try:
        engine = ContextParallelEngine(model, world_size=args.world)
        engine.group.tracer = tracer = RecordingTracer()
        engine.prefill({0: toks})
        ChatSession(engine, 0).send(np.array([1]), max_new_tokens=args.decode_steps)
        _check_writable("--output", args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    from repro.obs import NULL_TRACER, RecordingTracer
    from repro.perf.hardware import gti_host, gtt_host
    from repro.perf.latency import LatencySimulator
    from repro.runtime import FaultPlan, RuntimeWedged, ServeConfig
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.replay import (
        divergences,
        replay_scripts_sequential,
        submit_scripts_to_runtime,
    )

    model = LlamaModel(tiny_config(), seed=0)
    host = gti_host() if args.platform == "gti" else gtt_host()
    # --verify needs a recorded trace for the metrics reconciliation
    # cross-check even when no --trace file was asked for
    tracer = RecordingTracer() if (args.trace or args.verify) else NULL_TRACER
    # one boundary: an argv check below, or any owner's validation inside
    # the workload generator, FaultPlan, ServeConfig or the layers it
    # builds, is a usage error reported before any simulated time passes
    try:
        if args.sessions < 1:
            raise ValueError(f"--sessions must be >= 1, got {args.sessions}")
        world, decode_world = (args.world if args.world is not None else 2), None
        if args.disaggregate is not None:
            sizes = args.disaggregate.split(":")
            if len(sizes) != 2 or not all(s.isdigit() and int(s) > 0 for s in sizes):
                raise ValueError(
                    f"--disaggregate wants P:D with positive integers, got {args.disaggregate!r}"
                )
            if args.world is not None:
                raise ValueError("--world conflicts with --disaggregate (pool sizes come from P:D)")
            world, decode_world = (int(s) for s in sizes)
        if args.fault_seed is not None and args.faults is None:
            raise ValueError("--fault-seed only applies with --faults")
        if args.routing is not None and args.replicas == 1:
            raise ValueError(
                "--routing only applies with --replicas > 1 (a single replica has nothing to route)"
            )
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
        config = ServeConfig(
            world=world,
            decode_world=decode_world,
            capacity=args.capacity,
            decode_capacity=args.decode_capacity,
            chunk=args.chunk,
            round_budget=args.round_budget,
            max_seqs=8,
            preemption=args.preemption,
            swap_capacity=args.swap_capacity,
            prefix_cache=args.prefix_cache,
            # one seed controls workload AND fault plan unless split explicitly
            faults=None if args.faults is None else FaultPlan.parse(
                args.faults, seed=args.seed if args.fault_seed is None else args.fault_seed
            ),
            sanitize=args.sanitize,
            replicas=args.replicas,
            routing=args.routing if args.routing is not None else "prefix",
            priced_ranks=args.priced_ranks,
        )
        runtime = config.build(
            model, sim=LatencySimulator(llama3_405b_config(), host), tracer=tracer
        )
        for flag, path in (("--trace", args.trace), ("--prom", args.prom)):
            if path:
                _check_writable(flag, path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rids = submit_scripts_to_runtime(runtime, scripts)
    try:
        report = runtime.run(max_steps=1_000_000)
    except RuntimeWedged as exc:
        # KV capacity too small for the traffic: a configuration error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    leaks = runtime.kv_leak_report()

    fleet = config.replicas > 1
    deploy = f"CP{world}" if decode_world is None else f"CP{world} prefill -> CP{decode_world} decode"
    if fleet:
        deploy = f"{config.replicas} x {deploy} ({config.routing} routing)"
    cap = "unbounded" if args.capacity is None else str(args.capacity)
    cache = ", prefix cache: on" if args.prefix_cache else ""
    print(
        f"served {args.sessions} sessions x {args.turns} turns "
        f"({args.traffic} traffic) on {deploy} "
        f"(KV capacity/rank: {cap}, chunk: {args.chunk}, "
        f"preemption: {args.preemption}{cache}, "
        f"priced as 405B on CP{args.priced_ranks} {host.name})"
    )
    if config.faults is not None:
        print(f"fault plan (seed {config.faults.seed}): {config.faults.describe()}")
        outcomes = ", ".join(
            f"{k}: {v}" for k, v in sorted(report.statuses().items())
        )
        print(f"request outcomes: {outcomes}")
        print(f"goodput: {report.goodput():.3f} completed requests/s")
    print(f"rounds: {report.prefill_rounds} prefill, {report.decode_rounds} decode")
    print(f"makespan: {report.makespan:.1f}s simulated, "
          f"{report.tokens_per_second():.2f} decoded tok/s")
    if fleet:
        placed = report.placements
        spread = ", ".join(
            f"replica {rid}: {sum(1 for r in placed.values() if r == rid)} sessions"
            for rid in sorted(report.replica_reports)
        )
        print(f"placements: {spread}")
        print(f"post-drain KV audit: {leaks or 'clean'}")
    elif decode_world is not None:
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
        lambda: ContextParallelEngine(model, world_size=world), scripts
    )
    mismatches = divergences(report, rids, reference)
    for problem in mismatches:
        print(f"MISMATCH {problem}")
    # shed/timed-out turns claim nothing: the exactness contract under
    # faults covers completed requests only
    compared = len(report.completed)
    skipped = sum(map(len, rids.values())) - compared
    verdict = f"{len(mismatches)} turns differ" if mismatches else "identical"
    scope = f"{compared} completed turns"
    if skipped:
        scope += f", {skipped} shed/timed-out skipped"
    print(f"verify vs sequential replay: {verdict} ({scope})")

    # the trace/metrics cross-check: every ServingMetrics counter and
    # stall total must be exactly derivable from the recorded trace
    from repro.obs import reconcile, reconcile_fleet

    if fleet:
        drift = reconcile_fleet(tracer.events, report.metrics)
    else:
        drift = reconcile(tracer.events, runtime.metrics)
    for problem in drift:
        print(f"DRIFT {problem}")
    recon = "exact" if not drift else f"{len(drift)} counter(s) drifted"
    print(f"verify trace reconciliation: {recon} "
          f"({len(tracer.events)} events vs metrics)")
    for leak in leaks:
        print(f"LEAK {leak}")
    return 1 if mismatches or drift or leaks else 0


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
        "--routing", choices=["prefix", "round-robin"],
        default=None,
        help="fleet routing policy for new conversations (only with "
             "--replicas > 1; default prefix): prefix-affinity scores "
             "replicas by cached-prefix match minus load and queue depth, "
             "round-robin cycles; follow-up turns always stick to their "
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

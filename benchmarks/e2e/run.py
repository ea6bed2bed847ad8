"""The repo benchmark: four serving workloads on two clocks.

    python3 benchmarks/e2e/run.py                      # every workload, both kinds of run
    python3 benchmarks/e2e/run.py --workload decode_batch --seed 12 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke              # machine-independent counter gate
    python3 benchmarks/e2e/run.py --agree              # two sets, compared against the bounds

With ``--workload`` the process measures that workload itself and prints,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Without it, each workload runs in a child
process of its own, one at a time. README.md has the glossary.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()  # set-up time counts from here: before NumPy and the program load

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
MANIFEST = REPO / "BENCHMARK.json"
EXPECTED = HERE / "expected_counts.json"

#: Extra processes that only set up and report how long it took; with this
#: process's own set-up they make the sample ``setup_s`` is the median of.
SETUP_CHILDREN = 2
#: Two probe medians further apart than this flag their host rows as drift.
DRIFT = 0.05


def bootstrap() -> None:
    """Pin BLAS to one thread and make ``repro`` importable. Must run
    before NumPy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = REPO / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: {src}/repro not found: the benchmark measures the program in src/")
    sys.path[:0] = [str(src), str(HERE)]


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="measure this workload in this process (default: all, one child each)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, help="measure for this long (the driver's mode)")
    p.add_argument("--reps", type=int, help="measure exactly this many repetitions (default 7 without --seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    p.add_argument("--smoke", action="store_true", help="shrunken workloads, one cycle, counters checked against expected_counts.json")
    p.add_argument("--write-expected", action="store_true", help="with --smoke: rewrite expected_counts.json")
    p.add_argument("--agree", action="store_true", help="run the end-to-end set twice and compare against the bounds")
    p.add_argument("--out", help="directory for one Chrome-trace JSON per workload (--trace 1)")
    p.add_argument("--inject", choices=("flip-token", "no-pressure"), help="test hook: make verification fail")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None and args.reps is None:
        args.reps = 1 if args.smoke else 7
    if args.reps is not None and args.reps < 5 and not args.smoke:
        p.error("--reps below 5 cannot carry a median; use --smoke for a quick check")
    if args.write_expected and not args.smoke:
        p.error("--write-expected needs --smoke")
    return args


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #


def check_manifest(harness) -> None:
    """BENCHMARK.json and the harness must name the same metrics."""
    if not MANIFEST.exists():
        return
    manifest = json.loads(MANIFEST.read_text())
    for key, table in (("end_to_end", harness.E2E_METRICS), ("per_layer", harness.PER_LAYER_METRICS)):
        listed = [(m["name"], m["unit"]) for m in manifest[key]]
        reported = [(row[0], row[1]) for row in table]
        if listed != reported:
            odd = sorted(set(listed) ^ set(reported))
            sys.exit(f"run.py: BENCHMARK.json {key} disagrees with harness.py: {odd or 'order differs'}")


def child_setup_s(args: argparse.Namespace) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def provenance(args: argparse.Namespace, walls: list[float], probes: list[float]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"

    def spread(values: list[float]) -> dict:
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        return {"median": q2, "q1": q1, "q3": q3, "raw": values}

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "reps": len(walls),
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": commit,
        "rep_wall_s": spread(walls), "probe_wall_s": spread(probes),
    }


def run_single(args: argparse.Namespace) -> int:
    bootstrap()
    import harness
    from workloads import WORKLOADS, chat_pressure_build

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.inject == "no-pressure" and args.workload == "chat_pressure":
        workload = dataclasses.replace(
            workload, build=functools.partial(chat_pressure_build, capacity=None)
        )
    inputs = harness.prepare(workload, args.seed, smoke=args.smoke)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0
    check_manifest(harness)

    trace = args.trace if args.trace is not None else 0
    if trace == 0:
        setups = [setup_s] + [child_setup_s(args) for _ in range(0 if args.smoke else SETUP_CHILDREN)]
        run = harness.measure_e2e(inputs, seconds=args.seconds, reps=args.reps)
        metrics = harness.e2e_metrics(run, statistics.median(setups))
        table = harness.E2E_METRICS
        unstable: list[str] = []
        timed = run.outcomes
    else:
        trace_path = None
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            trace_path = os.path.join(args.out, f"{args.workload}.trace.json")
        run = harness.measure_layers(inputs, seconds=args.seconds, reps=args.reps, trace_path=trace_path)
        metrics, unstable = harness.layer_metrics(run)
        table = [row[:2] for row in harness.PER_LAYER_METRICS]
        timed = run.untraced
        if trace_path:
            print(f"spans: {trace_path} (open in https://ui.perfetto.dev)")

    verdict = harness.verify(inputs, run.outcomes, flip_token=args.inject == "flip-token")
    problems = verdict.problems + [f"deterministic metric did not repeat: {u}" for u in unstable]

    print(f"== {args.workload}  seed {args.seed}  trace {trace}  reps {len(timed)}"
          f"{'  smoke' if args.smoke else ''}")
    for name, unit in table:
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}")
    statuses = run.outcomes[0].statuses
    print(f"requests per rep: sent {inputs.turns}  " + "  ".join(f"{k} {v}" for k, v in sorted(statuses.items()))
          + f"  | over {len(run.outcomes)} reps: unfinished {verdict.unfinished}  mismatched {verdict.mismatched}"
          + f"  failed_share {verdict.failed / verdict.attempted:.6f}")
    if verdict.failed:
        problems.insert(0, f"{verdict.unfinished} turns did not finish, {verdict.mismatched} differ from sequential replay")
    for problem in problems:
        print(f"VERIFICATION FAILED: {problem}")
    print("PROVENANCE " + json.dumps(provenance(args, [o.wall for o in timed], run.probes)))
    print(json.dumps({
        "correct": verdict.correct and not unstable,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }))
    return 0 if verdict.correct and not unstable else 1


# ---------------------------------------------------------------------- #
# every workload, one child process each
# ---------------------------------------------------------------------- #


def spawn(args: argparse.Namespace, workload: str, trace: int) -> tuple[int, dict | None, dict | None]:
    """Run one workload in a child, echo its report, return (exit code,
    result line, provenance line)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.reps is not None:
        cmd += ["--reps", str(args.reps)]
    if args.smoke:
        cmd.append("--smoke")
    if args.out:
        cmd += ["--out", args.out]
    if args.inject:
        cmd += ["--inject", args.inject]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = prov = None
    for line in lines:
        if line.startswith("PROVENANCE "):
            prov = json.loads(line[len("PROVENANCE "):])
        elif not line.startswith("{"):
            print(line)
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    sys.stdout.flush()
    return done.returncode, result, prov


def workload_names() -> list[str]:
    return [w["name"] for w in json.loads(MANIFEST.read_text())["workloads"]]


def run_all(args: argparse.Namespace) -> int:
    traces = (0, 1) if args.trace is None else (args.trace,)
    failed = []
    for workload in workload_names():
        for trace in traces:
            code, result, prov = spawn(args, workload, trace)
            if prov:
                print(f"  [{prov['python']} numpy {prov['numpy']} {prov['blas']} x{prov['blas_threads']} thread, "
                      f"nproc {prov['nproc']}, commit {prov['commit'][:12]}] rep wall median "
                      f"{prov['rep_wall_s']['median']:.3f}s (q1 {prov['rep_wall_s']['q1']:.3f}, q3 {prov['rep_wall_s']['q3']:.3f}), "
                      f"probe median {1e3 * prov['probe_wall_s']['median']:.1f}ms")
            if code != 0 or result is None or not result["correct"]:
                failed.append(f"{workload} (trace {trace})")
    print("FAILED: " + ", ".join(failed) if failed else "all workloads verified")
    return 1 if failed else 0


def run_smoke(args: argparse.Namespace) -> int:
    """One shrunken cycle per workload; deterministic per-layer metrics must
    equal the committed expectation (Python call counts excepted: they
    depend on the interpreter version)."""
    bootstrap()
    import harness

    gate = [name for name, _, det in harness.PER_LAYER_METRICS if det and name != "host.py_calls_per_token"]
    got: dict[str, dict[str, float]] = {}
    ok = True
    for workload in workload_names():
        code, result, _ = spawn(args, workload, 1)
        if code != 0 or result is None:
            ok = False
            continue
        got[workload] = {name: result["metrics"][name]["value"] for name in gate}
    if args.write_expected:
        if not ok:
            sys.exit("run.py: not writing expected_counts.json from a failed run")
        EXPECTED.write_text(json.dumps({"seed": args.seed, "counts": got}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
        return 0
    expected = json.loads(EXPECTED.read_text())
    if expected["seed"] != args.seed:
        sys.exit(f"run.py: expected_counts.json was written at --seed {expected['seed']}")
    for workload, counts in got.items():
        for name, value in counts.items():
            want = expected["counts"][workload][name]
            if abs(value - want) > 1e-9 * max(abs(want), 1.0):
                print(f"COUNTER MISMATCH: {workload} {name}: got {value!r}, expected {want!r}")
                ok = False
    print("smoke: counters match expected_counts.json" if ok else "smoke: FAILED")
    return 0 if ok else 1


def run_agree(args: argparse.Namespace) -> int:
    """Two sets of end-to-end runs of the same code must agree within each
    metric's own bound; simulated metrics must agree exactly."""
    manifest = json.loads(MANIFEST.read_text())
    ok = True
    for workload in workload_names():
        sets = [spawn(args, workload, 0) for _ in range(2)]
        if any(code != 0 or result is None for code, result, _ in sets):
            print(f"{workload}: a run failed")
            ok = False
            continue
        probes = [prov["probe_wall_s"]["median"] for _, _, prov in sets]
        drift = abs(probes[1] / probes[0] - 1.0) > DRIFT
        print(f"-- agree: {workload} (probe medians {1e3 * probes[0]:.1f} / {1e3 * probes[1]:.1f} ms)")
        for m in manifest["end_to_end"]:
            a, b = (result["metrics"][m["name"]]["value"] for _, result, _ in sets)
            exact = m["name"].startswith("sim_")
            passed = a == b if exact else abs(b - a) / a <= m["bound"]
            note = "  machine-drift" if drift and not exact and m["name"] != "peak_rss_mb" else ""
            print(f"{m['name']:24s} {a:>14.6g} {b:>14.6g}  {100 * (b - a) / a:+7.2f}%  "
                  f"{'exact' if exact else 'bound %g%%' % (100 * m['bound'])}  {'PASS' if passed else 'FAIL'}{note}")
            ok = ok and passed
    print("agree: PASS" if ok else "agree: FAIL")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_single(args)
    if not MANIFEST.exists():
        sys.exit(f"run.py: {MANIFEST} not found")
    if args.smoke:
        return run_smoke(args)
    if args.agree:
        return run_agree(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

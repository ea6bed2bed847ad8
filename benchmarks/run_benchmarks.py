#!/usr/bin/env python
"""Run the numeric-kernel benchmarks and record ``BENCH_kernels.json``.

Entry point for tracking the simulator substrate's performance trajectory
across PRs: it runs ``bench_numeric_kernels.py`` under pytest-benchmark,
then distills the stats into a small machine-readable JSON checked in at
the repository root. Compare the committed file against a fresh run to see
whether a change sped up or regressed the hot path.

Usage::

    python benchmarks/run_benchmarks.py            # full statistics
    python benchmarks/run_benchmarks.py --smoke    # 1 round (CI run-check)
    python benchmarks/run_benchmarks.py -k flash   # subset by name
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = Path(__file__).resolve().parent / "bench_numeric_kernels.py"

# Mean latencies of the seed (pre-fused-kernel) substrate on the PR 1
# container, kept so every later BENCH_kernels.json carries its own
# before/after reference point.
SEED_BASELINE_MEAN_MS = {
    "bench_reference_attention": 32.08,
    "bench_flash_attention": 31.63,
    "bench_ring_passkv_cp4": 42.24,
    "bench_ring_passq_cp4": 40.25,
    "bench_engine_prefill_cp2": 6.55,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--output",
        default=None,
        help="where to write the distilled results (default: BENCH_kernels.json "
        "at the repo root for full runs; a scratch file for --smoke or -k "
        "subset runs, so partial/noise stats never clobber the tracked record)",
    )
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="single round per benchmark: import/run check, timings are noise",
    )
    ap.add_argument("-k", "--select", default=None, help="pytest -k expression")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One BLAS thread, as benchmarks/e2e pins it: on a shared two-core box a
    # second OpenBLAS thread turns a 5 ms benchmark into a 100 ms one at random.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")

    with tempfile.TemporaryDirectory() as tmp:
        raw_json = Path(tmp) / "bench.json"
        cmd = [
            sys.executable, "-m", "pytest", str(BENCH_FILE),
            "--benchmark-only", "-q", f"--benchmark-json={raw_json}",
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.select:
            cmd += ["-k", args.select]
        rc = subprocess.call(cmd, cwd=ROOT, env=env)
        if rc != 0:
            return rc
        raw = json.loads(raw_json.read_text())

    record = {
        "generated_unix": int(time.time()),
        "smoke": bool(args.smoke),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed_baseline_mean_ms": SEED_BASELINE_MEAN_MS,
        "benchmarks": {
            b["name"]: {
                "mean_ms": round(b["stats"]["mean"] * 1e3, 4),
                "min_ms": round(b["stats"]["min"] * 1e3, 4),
                "stddev_ms": round(b["stats"]["stddev"] * 1e3, 4),
                "rounds": b["stats"]["rounds"],
                **({"extra_info": b["extra_info"]} if b.get("extra_info") else {}),
            }
            for b in raw["benchmarks"]
        },
    }
    if args.output is not None:
        out_path = Path(args.output)
    elif args.smoke or args.select:
        out_path = ROOT / "BENCH_kernels.partial.json"
    else:
        out_path = ROOT / "BENCH_kernels.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if out_path == ROOT / "BENCH_kernels.json":
        # a successful full run supersedes any smoke/subset scratch file;
        # leaving it around would masquerade as a tracked record
        (ROOT / "BENCH_kernels.partial.json").unlink(missing_ok=True)

    width = max(len(n) for n in record["benchmarks"]) if record["benchmarks"] else 0
    print(f"\nwrote {out_path}")
    for name, stats in sorted(record["benchmarks"].items()):
        print(f"  {name:<{width}}  mean {stats['mean_ms']:9.3f} ms  min {stats['min_ms']:9.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

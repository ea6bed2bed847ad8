"""Function and option reachability gate: every function under ``src/repro``
is run, and every literal default it has is overridden by some caller.

``tests/test_reachability.py`` checks that every module has an importer;
this checks the functions inside them. It runs the entry-point set (the
CLI commands CI runs, the examples and the benchmark smokes) in this one
process under ``sys.setprofile`` and fails on any ``def`` under
``src/repro``, at any nesting level, that none of them enters and that
``FUNCTIONS_ALLOWED`` does not list with a reason. A function nothing
runs is wired into an entry point, deleted with its tests, or
allowlisted, in that order of preference.

The same run reads each entered function's parameters on entry and fails
on a parameter with a literal default (``eps=1e-05``, ``host=None``) that
no call sets to a second value and that ``OPTIONS_ALLOWED`` does not list
with a reason: an option with one value in use is a constant. The gate
also fails on an allowlist entry the set now enters or sets: like the
module gate's ``ALLOWED``, both tables only shrink.

    PYTHONPATH=src python tests/function_reachability.py

It takes under a minute on two cores, so it is a CI step of its own,
not a tier-1 test; tier-1 (``tests/test_reachability.py``) checks only that
every ``FUNCTIONS_ALLOWED`` key still names a function and every
``OPTIONS_ALLOWED`` key a defaulted parameter, each with a reason.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import shlex
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from numbers import Number
from pathlib import Path

from test_reachability import ALLOWED

ROOT = Path(os.path.realpath(__file__)).parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Functions (``module.qualname``), classes or modules that no entry point
#: runs, each with the reason it stays.
FUNCTIONS_ALLOWED: dict[str, str] = {
    # oracles and failure paths
    "repro.attention.reference.reference_attention": (
        "the independent oracle the fused kernel is equivalence-tested against"
    ),
    "repro.analysis.sanitizer.SanitizerError.__init__": "the sanitizer's failure path: runs only on a violation",
    "repro.analysis.sanitizer.OpTrace.snapshot": "the sanitizer's failure path: the op history a violation reports",
    "repro.analysis.sanitizer.AllocatorSanitizer._fail": "the sanitizer's failure path: raises the violation",
    "repro.analysis.sanitizer.AllocatorSanitizer._owner_streams": (
        "the sanitizer's failure path: names the streams owning a double-freed or shared block"
    ),
    "repro.cluster.router.Router.place": (
        "the routing interface's abstract method; test_base_router_place_is_abstract pins it"
    ),
    "repro.obs.trace.Tracer.record": (
        "the null tracer's emit primitive: every hook site guards on `enabled`, and "
        "TestNullTracer pins that an unguarded emit into NULL_TRACER is inert"
    ),
    # named by the benchmark, or run only by a full experiment run
    "repro.distributed.process_group.SimProcessGroup.all_reduce_sum": (
        "benchmarks/e2e/layers.py::TARGETS wraps it by name and fails every --trace 1 run without it"
    ),
    "repro.experiments.fig10_heuristic.run": "Figure 10 runs in a full `experiments` run only, not under --fast",
    # the runtime's default clock and its guarded edges
    "repro.runtime.clock.UnitStepClock": (
        "the runtime's default clock (ServeConfig.build(sim=None)) and the golden traces' clock"
    ),
    "repro.runtime.runtime.ContinuousBatchingRuntime.preempt": (
        "forced preemption: runtime tests, test_forced_preemption_mid_decode_resumes_exactly "
        "(killer of resume-resamples-pending-token) among them, preempt through it"
    ),
    "repro.runtime.runtime.ContinuousBatchingRuntime._spill_oldest_swapped": (
        "the swap-blocked dead end's fallback to recompute; no entry config wedges its swap queue"
    ),
    "repro.runtime.transfer.KVTransferStream.extend": (
        "a delta transfer whose destination evicted its copy mid-stream; no entry config hits it"
    ),
    "repro.runtime.transfer.KVTransferStream._repack": (
        "re-serialises transfers queued behind a cancelled one; no entry config cancels a queued transfer"
    ),
    "repro.runtime.transfer.Transfer.sunk_s": (
        "read when a transfer is cancelled mid-stream; no entry config cancels one"
    ),
    # test seams: the paged state machines and allocator tests observe state through them
    "repro.kvcache.paged.PagedAllocator.free_blocks": "test seam: TestAllocatorMachine's pool invariant",
    "repro.kvcache.paged.PagedAllocator.free_tokens": "test seam: TestAllocatorMachine's free-token invariant",
    "repro.kvcache.paged.PagedAllocator.block_refcount": "test seam: TestSharingAllocatorMachine's refcount invariant",
    "repro.kvcache.paged.PagedAllocator.stream_blocks": "test seam: the copy-on-write tests read a stream's blocks",
    "repro.kvcache.paged.PagedAllocator.stream_tokens": "test seam: the allocator tests read a stream's fill",
    "repro.kvcache.paged.PagedAllocator.streams": "test seam: the allocator tests check no stream is left behind",
}

#: Parameters with a literal default (``module.qualname(param)``) that no
#: entry point sets to a second value, each with the reason it stays an option.
OPTIONS_ALLOWED: dict[str, str] = {
    # the reference oracles: tests compare the kernel and the engine against them
    **{
        f"repro.attention.reference.reference_attention_with_lse({param})": (
            "the reference oracle: the kernel's equivalence tests hand it their coordinates, "
            "masks and scales (tests/attention, tests/properties)"
        )
        for param in ("q_pos", "k_pos", "q_seq", "k_seq", "scale", "mask_fn")
    },
    "repro.model.llama.LlamaModel.forward(positions)": (
        "the single-device reference model: test_relative_positions_matter and "
        "test_fused_sequences_isolated shift and fuse its positions"
    ),
    "repro.model.llama.LlamaModel.forward(seq_ids)": (
        "the single-device reference model: test_fused_sequences_isolated fuses two sequences"
    ),
    # tier-1 seams
    "repro.core.engine.ContextParallelEngine.prefill(force_algo)": (
        "test seam: test_pass_q_forced_matches and test_a_round_plans_its_ring_once run "
        "pass-Q on prompts the heuristic gives to pass-KV"
    ),
    "repro.core.planner.PrefillPlanner.plan(force_algo)": (
        "test seam: the engine's force_algo reaches the planner through it; test_force_override"
    ),
    "repro.core.shape_engine.ShapeModel.__init__(next_token)": (
        "test seam: test_trace_digest_is_unchanged replays each golden case on ShapeEngine "
        "fed its numeric run's tokens (helpers.token_source)"
    ),
    "repro.experiments.cluster_routing.run(replica_sweep)": (
        "tier-1 shrink seam: TestClusterRouting sweeps (1, 2) replicas; the full sweep is "
        "the `experiments` run's"
    ),
    "repro.experiments.prefix_reuse.run(template_sweep)": (
        "tier-1 shrink seam: TestPrefixReuse sweeps (1, 2) templates; the full sweep is "
        "the `experiments` run's"
    ),
    **{
        f"repro.experiments.fault_tolerance.run({param})": (
            "tier-1 shrink seam: TestFaultTolerance runs 2 two-turn sessions of 40-token "
            "prompts; the full grid is the `experiments` run's"
        )
        for param in ("n_sessions", "turns", "first_prompt")
    },
}


# ---------------------------------------------------------------------- #
# what there is: every def under src/repro, read with ast
# ---------------------------------------------------------------------- #


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defs():
    """``((file, first line, name), module, qualname, node)`` for every ``def``.

    The first line is what the function's code object reports as
    ``co_firstlineno``: its first decorator's line when it has one."""

    def visit(node: ast.AST, path: Path, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                yield (str(path), first, child.name), module, qualname, child
                yield from visit(child, path, module, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, path, module, f"{prefix}{child.name}.")
            else:
                yield from visit(child, path, module, prefix)

    for path in sorted(PACKAGE.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield from visit(tree, path.resolve(), module_name(path), "")


def functions() -> dict[tuple[str, int, str], tuple[str, str]]:
    """``(file, first line, name) -> (module, qualname)`` for every ``def``."""
    return {key: (module, qualname) for key, module, qualname, _ in _defs()}


def literal_defaults(node: ast.FunctionDef) -> dict[str, object]:
    """``param -> default`` for each parameter whose default is a literal."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    found = {}
    for arg, default in pairs:
        with contextlib.suppress(ValueError):
            found[arg.arg] = ast.literal_eval(default)
    return found


def options() -> dict[tuple[str, int, str], dict[str, object]]:
    """``(file, first line, name) -> {param: default}`` for every ``def`` with
    a literal default."""
    return {key: found for key, _, _, node in _defs() if (found := literal_defaults(node))}


def option_name(module: str, qualname: str, param: str) -> str:
    """An ``OPTIONS_ALLOWED`` key: ``module.qualname(param)``."""
    return f"{module}.{qualname}({param})"


def allowed_by(module: str, qualname: str, keys) -> str | None:
    """The allowlist key covering a function: its own name, its class's or
    its module's."""
    name = f"{module}.{qualname}"
    for key in keys:
        # a key above the module (a package) covers nothing
        if name == key or (name.startswith(f"{key}.") and key.startswith(module)):
            return key
    return None


# ---------------------------------------------------------------------- #
# what runs: the entry-point set
# ---------------------------------------------------------------------- #

_BAD_ARGV = [
    # CI's "every subcommand rejects bad configuration" loop, one each
    "serve --capacity 0", "serve --turns 0", "serve --first-prompt 0", "serve --sessions 0",
    "serve --round-budget 8", "serve --decode-capacity 64", "serve --replicas 0",
    "serve --faults transfer=0.1,transfer=0.9",
    "demo --tokens 1", "demo --world 0", "trace --decode-steps -1", "plan --context 0",
    "heuristic --new-tokens 0 --cached 5", "heuristic --new-tokens 5 --cached 5 --ranks 0",
    "plan --context 1000 --sla 0", "serve --trace /nonexistent/t.json",
    "serve --prom /nonexistent/p.txt", "trace --output /nonexistent/x.json",
    "experiments --only zzz",
    # KV capacity the traffic cannot fit: the runtime wedges
    "serve --capacity 32 --sessions 6 --turns 3",
]

_CLI = [
    # CI's smokes
    "demo --world 4",
    "serve --capacity 64 --preemption swap --sessions 3 --turns 2 --verify --sanitize",
    "serve --preemption trim --capacity 64 --verify --sanitize",
    "serve --world 4 --sessions 3 --turns 2 --capacity 32 --verify --sanitize",
    "serve --prefix-cache --traffic shared-prefix --sessions 4 --turns 2 --verify",
    "serve --disaggregate 2:2 --capacity 96 --preemption swap --sessions 4 --turns 2"
    " --faults transfer=0.2,swap=0.2,pool_reset=1 --fault-seed 7 --verify",
    "serve --replicas 3 --routing prefix --prefix-cache --traffic shared-prefix --sessions 6"
    " --turns 2 --faults transfer=0.2 --fault-seed 7 --verify",
    "serve --replicas 8 --routing prefix --prefix-cache --traffic shared-prefix --sessions 64"
    " --turns 2 --verify",
    "serve --disaggregate 2:2 --prefix-cache --sessions 4 --turns 2 --verify"
    " --trace trace.jsonl --prom live.prom",
    "explain --trace trace.jsonl",
    "explain 0 --trace trace.jsonl",
    "serve --replicas 2 --prefix-cache --traffic shared-prefix --sessions 4 --turns 2 --seed 11"
    " --trace trace.json --trace-format chrome --prom metrics.prom",
    "serve --prefix-cache --traffic shared-prefix --sessions 4 --turns 2 --seed 11 --prom coloc.prom",
    "trace --world 4 --output comm.json",
    # tail-trim remedy beside the prefix cache (trim reaches the radix index)
    "serve --preemption trim --capacity 64 --prefix-cache --traffic shared-prefix --sessions 6"
    " --turns 2 --verify --sanitize",
    # the disaggregated faulted shape the trace-equality checks use
    "serve --disaggregate 2:2 --faults transfer=0.3 --verify",
    # a recorded fleet of disaggregated replicas: the wire's pool scope
    # nests inside each replica's
    "serve --replicas 2 --disaggregate 2:2 --sessions 4 --turns 2 --verify",
    # the unscored policy under a recorded trace
    "serve --replicas 2 --routing round-robin --sessions 4 --turns 2 --verify",
    # the other commands
    "experiments --fast",
    "experiments --fast --markdown --only 'Table 2'",
    "plan --context 128000",
    "heuristic --new-tokens 128 --cached 4096",
    "lint",
    "lint --list-rules",
]

#: A file breaking each determinism rule the linter knows; ``lint`` on it exits 1.
_LINT_BAD = """\
import random
import time

import numpy as np


def pick(items):
    rng = np.random.default_rng()
    order = sorted(items, key=id)
    for item in set(items):
        assert item
    return rng, order, random.random(), time.time()
"""


def _cli(argv: str, want: int) -> Callable[[], None]:
    def run() -> None:
        from repro.cli import main

        got = main(shlex.split(argv))
        if got != want:
            raise RuntimeError(f"exited {got}, want {want}")

    return run


def _replay_prom() -> None:
    """CI's check that the recorded trace alone rebuilds the exposition."""
    from repro.obs import load_jsonl, replay
    from repro.serving.metrics import ServingMetrics

    replayed = replay(load_jsonl("trace.jsonl"), ServingMetrics()).prometheus_text()
    if replayed != Path("live.prom").read_text():
        raise RuntimeError("trace.jsonl does not replay to live.prom")


def _validate_chrome() -> None:
    """CI's check that both Chrome exports parse and their spans nest."""
    import json

    from repro.obs import validate_chrome

    for path in ("trace.json", "comm.json"):
        problems = validate_chrome(json.loads(Path(path).read_text()))
        if problems:
            raise RuntimeError(f"{path}: {problems}")


def _lint_seeded() -> None:
    Path("seeded.py").write_text(_LINT_BAD)
    _cli("lint seeded.py", 1)()


def _script(path: Path) -> Callable[[], None]:
    def run() -> None:
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"exited {exc.code}") from None
        finally:
            sys.argv = saved

    return run


def _e2e_smoke(workload: str) -> Callable[[], None]:
    def run() -> None:
        e2e = runpy.run_path(str(ROOT / "benchmarks" / "e2e" / "run.py"), run_name="e2e_run")
        got = e2e["main"](["--workload", workload, "--smoke", "--trace", "1"])
        if got != 0:
            raise RuntimeError(f"exited {got}")

    return run


def _kernel_bench_smoke() -> None:
    import pytest

    got = pytest.main([
        str(ROOT / "benchmarks" / "bench_numeric_kernels.py"),
        "--benchmark-only", "-q", "--smoke", "-p", "no:cacheprovider",
    ])
    if got != 0:
        raise RuntimeError(f"pytest exited {got}")


def entries() -> list[tuple[str, Callable[[], None]]]:
    run = [(f"repro {argv}", _cli(argv, 2)) for argv in _BAD_ARGV]
    run += [(f"repro {argv}", _cli(argv, 0)) for argv in _CLI]
    run += [
        ("replay trace.jsonl == live.prom", _replay_prom),
        ("validate_chrome trace.json comm.json", _validate_chrome),
        ("repro lint seeded.py", _lint_seeded),
    ]
    run += [(f"examples/{p.name}", _script(p)) for p in sorted((ROOT / "examples").glob("*.py"))]
    run += [
        (f"benchmarks/e2e/run.py --workload {w} --smoke --trace 1", _e2e_smoke(w))
        for w in ("long_prefill", "decode_batch", "chat_pressure", "fleet_smallreq")
    ]
    run.append(("benchmarks/bench_numeric_kernels.py --smoke", _kernel_bench_smoke))
    return run


def same_value(value, default) -> bool:
    """Whether a passed value is the literal default: numbers by value (a
    NumPy scalar equal to ``2.0`` is ``2.0``), a flag only by a flag, and
    anything else by type and value."""
    if value is default:
        return True
    if isinstance(value, bool) or isinstance(default, bool) or default is None:
        return False
    if isinstance(value, Number) and isinstance(default, Number):
        return bool(value == default)
    return type(value) is type(default) and value == default


def entered_code(defaults: dict[tuple[str, int, str], dict[str, object]]) -> tuple[set, set]:
    """Run every entry under a profile hook: the code objects it entered, and
    the ``(function key, param)`` pairs of ``defaults`` that some call set to
    a value other than the default."""
    seen: set = set()
    overridden: set = set()
    # code object -> (function key, {param: default} not yet seen set),
    # worked out on the code object's first call
    pending: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add(code)
            watched = pending.get(code)
            if watched is None:
                key = (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
                watched = pending[code] = (key, dict(defaults.get(key, {})))
            key, todo = watched
            if todo:
                values = frame.f_locals
                for param, default in list(todo.items()):
                    if not same_value(values[param], default):
                        del todo[param]
                        overridden.add((key, param))

    class Profile(cProfile.Profile):
        # the e2e harness counts calls with cProfile, which takes the
        # profile hook over on some Pythons: keep what it saw, then
        # hand the hook back
        def disable(self):
            super().disable()
            seen.update(e.code for e in self.getstats() if not isinstance(e.code, str))
            sys.setprofile(hook)

    cProfile.Profile = Profile
    failed = []
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            for label, run in entries():
                start = time.perf_counter()
                out = io.StringIO()
                sys.setprofile(hook)
                threading.setprofile(hook)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        run()
                except Exception as exc:  # an entry that fails must fail the gate
                    failed.append(f"{label}: {exc!r}\n{out.getvalue()[-2000:]}")
                finally:
                    sys.setprofile(None)
                    threading.setprofile(None)
                print(f"{time.perf_counter() - start:6.1f}s  {label}", flush=True)
        finally:
            os.chdir(here)
    if failed:
        sys.exit("entry points failed:\n" + "\n".join(failed))
    return seen, overridden


def main() -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    defs = functions()
    defaults = options()
    code, overridden = entered_code(defaults)
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in code}

    never = {key: name for key, name in defs.items() if key not in entered}
    unlisted = sorted(
        f"{module}.{qualname}  ({Path(file).relative_to(ROOT)}:{line})"
        for (file, line, _), (module, qualname) in never.items()
        # a module the module gate allowlists is covered by that entry
        if allowed_by(module, qualname, FUNCTIONS_ALLOWED.keys() | ALLOWED.keys()) is None
    )
    stale = sorted({
        key
        for k, (module, qualname) in defs.items()
        if k in entered and (key := allowed_by(module, qualname, FUNCTIONS_ALLOWED)) is not None
    })
    print(f"{len(defs) - len(never)} of {len(defs)} functions under src/repro entered; "
          f"{len(never)} not, {len(never) - len(unlisted)} of them allowlisted")
    if unlisted:
        print("functions no entry point runs (wire them in, delete them with their "
              "tests, or add them to FUNCTIONS_ALLOWED with a reason):")
        print("\n".join(f"  {line}" for line in unlisted))
    if stale:
        print("FUNCTIONS_ALLOWED entries the entry points now run (drop them):")
        print("\n".join(f"  {key}" for key in stale))

    # options: the literal defaults of entered functions
    watched = {(k, p): d for k, params in defaults.items() if k in entered for p, d in params.items()}
    unset = {kp: d for kp, d in watched.items() if kp not in overridden}
    unlisted_options = sorted(
        f"{module}.{qualname}({param}={default!r})  ({Path(k[0]).relative_to(ROOT)}:{k[1]})"
        for (k, param), default in unset.items()
        for module, qualname in [defs[k]]
        if option_name(module, qualname, param) not in OPTIONS_ALLOWED
    )
    stale_options = sorted(
        name
        for k, param in overridden
        if (name := option_name(*defs[k], param)) in OPTIONS_ALLOWED
    )
    print(f"{len(watched)} literal-default parameters of entered functions: "
          f"{len(watched) - len(unset)} set to a second value; {len(unset)} never set, "
          f"{len(unset) - len(unlisted_options)} of them allowlisted")
    if unlisted_options:
        print("options no entry point sets to a second value (make each a constant, "
              "or add it to OPTIONS_ALLOWED with a reason):")
        print("\n".join(f"  {line}" for line in unlisted_options))
    if stale_options:
        print("OPTIONS_ALLOWED entries the entry points now set (drop them):")
        print("\n".join(f"  {key}" for key in stale_options))
    return 1 if unlisted or stale or unlisted_options or stale_options else 0


if __name__ == "__main__":
    sys.exit(main())

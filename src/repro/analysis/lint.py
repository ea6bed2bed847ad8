"""AST-based determinism linter for the serving stack.

Every invariant the test suite pins — merge-exactness, serving-exactness
over arbitrary fault/routing/preemption schedules — assumes the code
under test is a deterministic function of its explicit seeds.  This
module enforces that statically, with a small rule engine over the
Python AST:

====== ==================== =======================================================
id     name                 what it rejects
====== ==================== =======================================================
DET101 unseeded-rng         ``default_rng()`` with no seed, the stdlib ``random``
                            module, and legacy ``np.random.*`` global-state calls
DET102 wall-clock           ``time.time``/``perf_counter``/``monotonic``/
                            ``datetime.now`` and friends outside ``benchmarks/``
DET201 set-iteration        iterating a set expression (literal, ``set(...)``,
                            set-annotated attribute, set-returning call) in a
                            scheduling-decision module (``runtime/``, ``serving/``,
                            ``cluster/``) without an order-insensitive consumer
DET202 dict-popitem         ``dict.popitem()`` (LIFO on insertion order) in
                            scheduling-decision modules
DET301 id-ordering          ``id()`` inside a ``sorted``/``min``/``max``/``.sort``
                            key — memory addresses are not stable across runs
DET401 assert-statement     an ``assert`` statement outside ``tests/`` and
                            ``benchmarks/`` — ``python -O`` strips it, so the
                            check it makes runs or not by interpreter flag
====== ==================== =======================================================

Findings on a line can be suppressed with a trailing
``# repro-lint: disable=DET201`` comment (comma-separate multiple ids,
or ``disable=all``); suppressions are expected to carry a justification
in the surrounding comment.

The linter is intentionally self-contained (stdlib ``ast`` only) so the
CI ``lint`` lane needs nothing beyond the package itself.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

# --------------------------------------------------------------------------
# rule registry


@dataclass(frozen=True)
class LintRule:
    """A single determinism rule: identity, scope, and documentation."""

    rule_id: str
    name: str
    summary: str
    doc: str
    scope: str  # human-readable scope description


RULES: tuple[LintRule, ...] = (
    LintRule(
        rule_id="DET101",
        name="unseeded-rng",
        summary="RNG without an explicit seed",
        doc=(
            "Flags zero-argument numpy default_rng() calls, any use of the "
            "stdlib random module (its state is process-global and unseeded "
            "by default), and legacy np.random.* global-state functions "
            "(rand, randint, shuffle, ...). All randomness must flow from an "
            "explicitly threaded seed or SeedSequence so every run replays."
        ),
        scope="all linted files",
    ),
    LintRule(
        rule_id="DET102",
        name="wall-clock",
        summary="wall-clock read in simulated-time code",
        doc=(
            "Flags time.time/time_ns/perf_counter/perf_counter_ns/monotonic/"
            "monotonic_ns/process_time and datetime.now/utcnow/today. The "
            "runtime prices time through SimulatedStepClock; a wall-clock "
            "read makes schedules (and therefore metrics and preemption "
            "choices) machine-dependent. benchmarks/ is exempt — measuring "
            "real elapsed time is its job."
        ),
        scope="all linted files except benchmarks/",
    ),
    LintRule(
        rule_id="DET201",
        name="set-iteration",
        summary="iteration over a set in a scheduling module",
        doc=(
            "Flags for-loops and comprehensions whose iterable is a set "
            "expression — a set literal, set()/frozenset() call, a name or "
            "self-attribute annotated set[...] in the module, or a call to a "
            "local function annotated -> set[...]. Python set order is "
            "insertion-and-hash dependent, so iterating one in admission/"
            "packing/eviction code lets placement leak into token values. "
            "Wrap the iterable in sorted(...), or feed it directly to an "
            "order-insensitive reducer (sorted/min/max/sum/any/all/len/set/"
            "frozenset), which this rule recognizes and allows."
        ),
        scope="scheduling modules: runtime/, serving/, cluster/",
    ),
    LintRule(
        rule_id="DET202",
        name="dict-popitem",
        summary="dict.popitem() in a scheduling module",
        doc=(
            "Flags .popitem() calls: which entry pops depends on insertion "
            "history, which depends on schedule. Pop an explicit, "
            "deterministically chosen key instead."
        ),
        scope="scheduling modules: runtime/, serving/, cluster/",
    ),
    LintRule(
        rule_id="DET301",
        name="id-ordering",
        summary="id() used as a sort key or tie-break",
        doc=(
            "Flags id(...) (or a bare reference to the id builtin) inside "
            "the key= argument of sorted/min/max/list.sort. CPython object "
            "addresses vary run to run, so any ordering derived from them "
            "is nondeterministic. Break ties on stable fields (request id, "
            "arrival index) instead."
        ),
        scope="all linted files",
    ),
    LintRule(
        rule_id="DET401",
        name="assert-statement",
        summary="assert statement in program code",
        doc=(
            "Flags assert statements. python -O (which CI runs the "
            "experiments under) strips them, so an invariant checked by one "
            "holds or silently breaks depending on an interpreter flag. "
            "Raise an explicit exception (RuntimeError for a broken "
            "invariant) that names what was violated. tests/ and "
            "benchmarks/ are exempt: their asserts are the checks pytest "
            "runs."
        ),
        scope="all linted files except tests/ and benchmarks/",
    ),
)

RULES_BY_ID: dict[str, LintRule] = {r.rule_id: r for r in RULES}

SCHEDULING_DIRS = ("runtime", "serving", "cluster")
CLOCK_EXEMPT_DIRS = ("benchmarks",)
ASSERT_EXEMPT_DIRS = ("tests", "benchmarks")

_NP_LEGACY_RANDOM = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "normal",
    "uniform", "standard_normal", "exponential", "poisson", "binomial",
    "bytes", "get_state", "set_state",
}
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "seed",
    "getrandbits", "randbytes", "getstate", "setstate",
}
_CLOCK_TIME_ATTRS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
# calling any of these directly on a set expression consumes the
# iteration order without observing it
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset",
}

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s-]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        rule = RULES_BY_ID[self.rule_id]
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} [{rule.name}] {self.message}"


# --------------------------------------------------------------------------
# per-module type facts (which names/attributes/functions are sets)


@dataclass
class _SetFacts:
    """Names, self-attributes, and local callables known to be sets."""

    names: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)  # self.<attr>
    funcs: set[str] = field(default_factory=set)  # def f(...) -> set[...]

    @staticmethod
    def _is_set_annotation(node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Subscript):
            return _SetFacts._is_set_annotation(node.value)
        if isinstance(node, ast.Name):
            return node.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
        if isinstance(node, ast.Attribute):  # typing.Set etc.
            return node.attr in ("Set", "FrozenSet", "AbstractSet")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                return _SetFacts._is_set_annotation(
                    ast.parse(node.value, mode="eval").body
                )
            except SyntaxError:
                return False
        return False

    @classmethod
    def collect(cls, tree: ast.AST) -> "_SetFacts":
        facts = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and cls._is_set_annotation(node.annotation):
                facts._record_target(node.target)
            elif isinstance(node, ast.arg) and cls._is_set_annotation(node.annotation):
                facts.names.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if cls._is_set_annotation(node.returns):
                    facts.funcs.add(node.name)
            elif isinstance(node, ast.Assign):
                if isinstance(node.value, (ast.Set, ast.SetComp)) or (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in ("set", "frozenset")
                ):
                    for tgt in node.targets:
                        facts._record_target(tgt)
        return facts

    def _record_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "self":
                self.attrs.add(target.attr)

    def is_set_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` evaluates to a set, as far as local facts show."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.attrs
            )
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                return f.id in ("set", "frozenset") or f.id in self.funcs
            if isinstance(f, ast.Attribute):
                return f.attr in self.funcs or f.attr in (
                    "intersection", "union", "difference", "symmetric_difference",
                )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) and self.is_set_expr(node.right)
        return False


# --------------------------------------------------------------------------
# the checker


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath: str, source: str):
        self.relpath = relpath
        parts = Path(relpath).parts
        self.in_scheduling = any(p in SCHEDULING_DIRS for p in parts)
        self.in_benchmarks = any(p in CLOCK_EXEMPT_DIRS for p in parts)
        self.asserts_allowed = any(p in ASSERT_EXEMPT_DIRS for p in parts)
        self.findings: list[Finding] = []
        self.tree = ast.parse(source, filename=relpath)
        self.facts = _SetFacts.collect(self.tree)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def run(self) -> list[Finding]:
        self.visit(self.tree)
        return self.findings

    def _flag(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule_id, self.relpath, node.lineno, node.col_offset, message)
        )

    # ---- DET101 / DET102 ----------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._flag(
                    "DET101", node,
                    "stdlib random module imported — its global state is "
                    "unseeded; thread a numpy Generator instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag(
                "DET101", node,
                "import from stdlib random — thread a seeded numpy Generator",
            )
        elif node.module == "time" and not self.in_benchmarks:
            clocky = sorted(
                a.name for a in node.names if a.name in _CLOCK_TIME_ATTRS
            )
            if clocky:
                self._flag(
                    "DET102", node,
                    f"wall-clock import ({', '.join(clocky)}) outside benchmarks/",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # default_rng() with no seed
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "default_rng" and not node.args and not node.keywords:
            self._flag(
                "DET101", node,
                "default_rng() without a seed — derive one from the "
                "experiment/request seed (e.g. default_rng(seed))",
            )
        # dict.popitem in scheduling modules
        if (
            self.in_scheduling
            and isinstance(func, ast.Attribute)
            and func.attr == "popitem"
        ):
            self._flag(
                "DET202", node,
                ".popitem() pops by insertion order, which depends on "
                "schedule — pop an explicitly chosen key",
            )
        # id() in sort keys
        if name in ("sorted", "min", "max") or (
            isinstance(func, ast.Attribute) and func.attr == "sort"
        ):
            for kw in node.keywords:
                if kw.arg == "key" and self._mentions_id(kw.value):
                    self._flag(
                        "DET301", kw.value,
                        f"id() used in a {name or 'sort'} key — object "
                        "addresses are not stable across runs; break ties "
                        "on a stable field",
                    )
        self.generic_visit(node)

    @staticmethod
    def _mentions_id(node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "id":
                return True
        return False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        v = node.value
        # np.random.<legacy> global-state functions
        if (
            node.attr in _NP_LEGACY_RANDOM
            and isinstance(v, ast.Attribute)
            and v.attr == "random"
            and isinstance(v.value, ast.Name)
            and v.value.id in ("np", "numpy")
        ):
            self._flag(
                "DET101", node,
                f"legacy np.random.{node.attr} uses the process-global RNG — "
                "use a threaded Generator",
            )
        # random.<fn> on the stdlib module
        if (
            node.attr in _STDLIB_RANDOM
            and isinstance(v, ast.Name)
            and v.id == "random"
        ):
            self._flag(
                "DET101", node,
                f"stdlib random.{node.attr} draws from unseeded global state",
            )
        if not self.in_benchmarks:
            # time.<clock>
            if (
                node.attr in _CLOCK_TIME_ATTRS
                and isinstance(v, ast.Name)
                and v.id == "time"
            ):
                self._flag(
                    "DET102", node,
                    f"wall-clock time.{node.attr} outside benchmarks/ — "
                    "schedules must run on SimulatedStepClock",
                )
            # datetime.now / date.today — match datetime.now(...),
            # datetime.datetime.now(...), date.today()
            if node.attr in _CLOCK_DATETIME_ATTRS:
                root = v
                while isinstance(root, ast.Attribute):
                    root = root.value
                leaf = v.attr if isinstance(v, ast.Attribute) else (
                    v.id if isinstance(v, ast.Name) else None
                )
                if (
                    isinstance(root, ast.Name)
                    and root.id in ("datetime", "date")
                    and leaf in ("datetime", "date")
                ):
                    self._flag(
                        "DET102", node,
                        f"wall-clock datetime {node.attr}() outside benchmarks/",
                    )
        self.generic_visit(node)

    # ---- DET401: assert statements --------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if not self.asserts_allowed:
            self._flag(
                "DET401", node,
                "assert statement — python -O strips it; raise an explicit "
                "exception (RuntimeError for a broken invariant) that names it",
            )
        self.generic_visit(node)

    # ---- DET201: set iteration ----------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self.in_scheduling and self.facts.is_set_expr(node.iter):
            self._flag(
                "DET201", node.iter,
                f"for-loop over set expression {ast.unparse(node.iter)!r} — "
                "iterate sorted(...) so schedule never leaks through hash order",
            )
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def _comp_is_order_safe(self, comp: ast.expr) -> bool:
        """A comprehension/genexp whose result is consumed order-insensitively."""
        if isinstance(comp, ast.SetComp):
            return True  # result is itself a set; order never observed
        parent = self.parents.get(comp)
        if isinstance(parent, ast.Call) and comp in parent.args:
            f = parent.func
            if isinstance(f, ast.Name) and f.id in _ORDER_INSENSITIVE_CONSUMERS:
                return True
        return False

    def _visit_comp(self, node: ast.expr) -> None:
        if self.in_scheduling and not self._comp_is_order_safe(node):
            for gen in node.generators:
                if self.facts.is_set_expr(gen.iter):
                    self._flag(
                        "DET201", gen.iter,
                        f"comprehension over set expression "
                        f"{ast.unparse(gen.iter)!r} whose result order is "
                        "observable — wrap in sorted(...) or consume with an "
                        "order-insensitive reducer",
                    )
        self.generic_visit(node)

    visit_ListComp = _visit_comp  # type: ignore[assignment]
    visit_SetComp = _visit_comp  # type: ignore[assignment]
    visit_DictComp = _visit_comp  # type: ignore[assignment]
    visit_GeneratorExp = _visit_comp  # type: ignore[assignment]


# --------------------------------------------------------------------------
# suppression handling + entry points


def _suppressed_rules(source_line: str) -> set[str]:
    m = _SUPPRESS_RE.search(source_line)
    if not m:
        return set()
    return {tok.strip().upper() for tok in m.group(1).split(",") if tok.strip()}


def lint_source(source: str, relpath: str = "<string>") -> list[Finding]:
    """Lint one module's source; ``relpath`` drives rule scoping."""
    try:
        checker = _Checker(relpath, source)
    except SyntaxError as exc:
        return [
            Finding(
                "DET101", relpath, exc.lineno or 1, exc.offset or 0,
                f"could not parse: {exc.msg}",
            )
        ]
    findings = checker.run()
    lines = source.splitlines()
    kept = []
    for f in findings:
        line = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        suppressed = _suppressed_rules(line)
        if "ALL" in suppressed or f.rule_id in suppressed:
            continue
        kept.append(f)
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def lint_paths(paths: Iterable[str | Path], root: Path | None = None) -> list[Finding]:
    """Lint files and/or directory trees (``*.py``, recursively).

    Paths reported in findings (and used for rule scoping) are made
    relative to ``root`` when given, falling back to the path as passed.
    """
    findings: list[Finding] = []
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            rel: Path = f
            if root is not None:
                try:
                    rel = f.resolve().relative_to(Path(root).resolve())
                except ValueError:
                    rel = f
            findings.extend(lint_source(f.read_text(), rel.as_posix()))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def default_lint_target() -> Path:
    """The tree ``python -m repro lint`` checks by default: the installed
    ``repro`` package itself."""
    return Path(__file__).resolve().parent.parent


def rules_table() -> str:
    """Human-readable rule documentation for ``lint --list-rules``."""
    out = []
    for r in RULES:
        out.append(f"{r.rule_id}  {r.name}  [{r.scope}]")
        out.append(f"    {r.summary}")
        for chunk in _wrap(r.doc, 72):
            out.append(f"    {chunk}")
        out.append("")
    return "\n".join(out).rstrip()


def _wrap(text: str, width: int) -> list[str]:
    words, lines, cur = text.split(), [], ""
    for w in words:
        if cur and len(cur) + 1 + len(w) > width:
            lines.append(cur)
            cur = w
        else:
            cur = f"{cur} {w}".strip()
    if cur:
        lines.append(cur)
    return lines

"""One-event-stream gate: a new hook cannot reintroduce the pair.

Counters are a fold over the events the runtime emits
(``repro.serving.metrics.FOLD``); the taxonomy table in
``repro/obs/trace.py`` is that table's mirror for readers. This gate (in
``tests/test_reachability.py``'s style: stdlib ``ast`` over the source
tree) keeps the three in step:

- under ``src/repro/runtime`` and ``src/repro/cluster`` nothing writes
  ``metrics`` except through the three direct writers the
  ``ServingMetrics`` docstring names;
- every event name emitted anywhere in ``src/repro`` has a taxonomy row,
  every row says what it feeds, and ``feeds`` agrees with ``FOLD``;
- an event ``FOLD`` counts is never emitted behind ``if tracer.enabled:``
  (it would read zero untraced).
"""

import ast
import re
from pathlib import Path

from repro.obs import trace
from repro.serving.metrics import FOLD

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The writers that stay beside the stream, and why (ServingMetrics docstring).
DIRECT_WRITERS = {"record_turn", "record_ttit", "record_kv_occupancy"}


def _taxonomy() -> dict[str, str]:
    """``event name -> feeds`` from the docstring table, columns cut at
    the ruler's extents (continuation lines extend the row above)."""
    lines = trace.__doc__.splitlines()
    rulers = [i for i, line in enumerate(lines) if line.startswith("====")]
    assert len(rulers) == 3, "taxonomy table: header ruler, body ruler, closing ruler"
    cols = [m.span() for m in re.finditer(r"=+", lines[rulers[0]])]
    (name_lo, name_hi), (feeds_lo, feeds_hi) = cols[0], cols[2]
    feeds: dict[str, str] = {}
    last = None
    for line in lines[rulers[1] + 1 : rulers[2]]:
        names = re.findall(r"``(\w+)``", line[name_lo:name_hi])
        assert len(names) <= 1, f"one event per taxonomy row: {line!r}"
        if names:
            last = names[0]
            assert last not in feeds, f"duplicate taxonomy row for {last!r}"
            feeds[last] = ""
        assert last is not None, f"continuation line before any row: {line!r}"
        feeds[last] = (feeds[last] + " " + line[feeds_lo:feeds_hi].strip()).strip()
    return feeds


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _is_metrics(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "metrics") or (
        isinstance(node, ast.Name) and node.id == "metrics"
    )


def _emits(tree: ast.AST):
    """``(call, event name)`` for every ``<x>.instant("name", ...)`` /
    ``<x>.span("name", ...)`` with a literal name (and the process
    group's ``_trace("kind", ...)``, which spans under that name)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("instant", "span", "_trace")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node, node.args[0].value


def test_taxonomy_table_mirrors_the_fold_table():
    feeds = _taxonomy()
    trace_only = {name for name, what in feeds.items() if what == "trace-only"}
    assert all(feeds.values()), "every taxonomy row says what it feeds"
    assert set(FOLD) == set(feeds) - trace_only, (
        "obs/trace.py's taxonomy and serving/metrics.py's FOLD disagree: "
        f"counted but not in the table {sorted(set(FOLD) - set(feeds))}, "
        f"marked trace-only but folded {sorted(set(FOLD) & trace_only)}, "
        f"says it feeds something but FOLD has no row {sorted(set(feeds) - trace_only - set(FOLD))}"
    )


def test_every_emitted_event_has_a_taxonomy_row_and_counted_ones_are_unguarded():
    feeds = _taxonomy()
    emitted: set[str] = set()
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = _parents(tree)
        for call, name in _emits(tree):
            emitted.add(name)
            assert name in feeds, f"{path}:{call.lineno}: event {name!r} has no taxonomy row"
            if name not in FOLD:
                continue
            node = call
            while node in parents:
                node = parents[node]
                guarded = isinstance(node, ast.If) and "enabled" in ast.unparse(node.test)
                assert not guarded, (
                    f"{path}:{call.lineno}: {name!r} feeds counters but is emitted behind "
                    f"`if {ast.unparse(node.test)}:` — it would read zero with no recorder"
                )
    assert emitted == set(feeds), f"taxonomy rows nothing emits: {sorted(set(feeds) - emitted)}"


def test_runtime_and_cluster_write_metrics_only_through_the_named_writers():
    offenders: list[str] = []
    for package in ("runtime", "cluster"):
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}"
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                    targets = node.targets if hasattr(node, "targets") else [node.target]
                    for target in targets:
                        inner = target.value if isinstance(target, ast.Subscript) else target
                        if isinstance(inner, ast.Attribute) and _is_metrics(inner.value):
                            offenders.append(f"{where}: assigns metrics.{inner.attr}")
                if not (isinstance(node, ast.Attribute) and _is_metrics(node.value)):
                    continue
                if node.attr.startswith("_"):
                    offenders.append(f"{where}: reaches into metrics.{node.attr}")
                elif node.attr.startswith("record_") and node.attr not in DIRECT_WRITERS:
                    offenders.append(f"{where}: metrics.{node.attr} is not a named direct writer")
    assert not offenders, "\n".join(offenders)


def test_the_named_writers_are_the_only_record_methods():
    from repro.serving.metrics import ServingMetrics

    assert {n for n in vars(ServingMetrics) if n.startswith("record_")} == DIRECT_WRITERS
    for name in DIRECT_WRITERS:
        assert f":meth:`{name}`" in ServingMetrics.__doc__, f"{name} not named in the class docstring"

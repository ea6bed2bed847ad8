"""Reachability gate: every module under ``src/repro`` has an importer.

A module that nothing in ``src/``, ``examples/`` or ``benchmarks/``
imports is reachable only from its own tests — code the system does not
use, kept alive by the tests that exercise it. ROADMAP open item 3's
audit deleted the ones it found; this test keeps the audit done. Wire a
new module into a CLI command, an experiment, an example or a benchmark,
or add it to ``ALLOWED`` with the reason it may stand alone.

A sub-package's ``__init__`` re-exporting a module's names is not an
importer: ``from repro.pkg import Name`` counts for the module that
defines ``Name``. The top-level ``repro/__init__.py`` still counts — it
is the public API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules allowed to have no importer, each with its reason.
ALLOWED = {
    "repro.__main__": "entry point: `python -m repro` runs it, nothing imports it",
    "repro.experiments.compare": (
        "deviation-budget regression guard: tests/experiments/test_compare.py "
        "asserts the paper-vs-measured budgets through it"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_froms(path: Path):
    """``(base, alias)`` of every ``from base import ...`` in ``path``,
    relative imports resolved against the importing package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = _module_name(path.parent / "__init__.py").split(".")
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias


def _reexports(sources: list[Path]) -> dict[tuple[str, str], tuple[str, str]]:
    """``(package, exported name) -> (base, name)`` for every name a
    package ``__init__`` imports from elsewhere."""
    return {
        (_module_name(path), alias.asname or alias.name): (base, alias.name)
        for path in sources
        if path.name == "__init__.py"
        for base, alias in _import_froms(path)
    }


def _imported_names(path: Path, reexports) -> set[str]:
    """Every dotted name ``path`` imports: ``from a import b`` contributes
    ``a``, ``a.b`` (``b`` may be a submodule) and the module that defines
    ``b`` when ``a`` only re-exports it."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    for base, alias in _import_froms(path):
        names.update((base, f"{base}.{alias.name}"))
        key = (base, alias.name)
        while reexports.get(key, key) != key:  # follow re-exports to the defining module
            key = reexports[key]
            names.add(key[0])
    return names


def test_every_module_has_an_importer():
    sources = sorted(SRC.glob("repro/**/*.py"))
    # packages are reached through their modules, so only modules are judged
    imported_by: dict[str, set[str]] = {
        _module_name(p): set() for p in sources if p.name != "__init__.py"
    }
    outside = sorted((ROOT / "examples").glob("**/*.py"))
    outside += sorted((ROOT / "benchmarks").glob("**/*.py"))
    reexports = _reexports(sources)
    importers = [p for p in sources if p.name != "__init__.py" or p.parent == SRC / "repro"]
    for path in importers + outside:
        me = _module_name(path) if path in sources else str(path.relative_to(ROOT))
        for name in _imported_names(path, reexports):
            if name in imported_by and name != me:
                imported_by[name].add(me)

    orphans = sorted(
        name for name, users in imported_by.items() if not users and name not in ALLOWED
    )
    assert not orphans, (
        f"modules with no importer in src/, examples/ or benchmarks/: {orphans} — "
        "wire them in, delete them with their tests, or allowlist them with a reason"
    )
    stale = sorted(name for name in ALLOWED if name in imported_by and imported_by[name])
    assert not stale, f"allowlisted modules that now have importers: {stale}"


def test_serving_start_up_does_not_import_scipy():
    """The converse gate: what serving must *not* reach. scipy costs more to
    import than the rest of the package together and only the offline
    Figure 10 refit (``fit_empirical``) uses it; CI runs the same check."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.runtime, repro.cluster; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )

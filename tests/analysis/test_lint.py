"""Determinism linter: every rule fires on bad fixtures, stays quiet on
good ones, respects scope and suppressions, and passes the shipped tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    RULES_BY_ID,
    Finding,
    default_lint_target,
    lint_paths,
    lint_source,
    rules_table,
)


def ids(findings: list[Finding]) -> set[str]:
    return {f.rule_id for f in findings}


class TestUnseededRng:
    def test_bare_default_rng_flagged(self):
        fs = lint_source("import numpy as np\nrng = np.random.default_rng()\n", "core/x.py")
        assert ids(fs) == {"DET101"}

    def test_seeded_default_rng_clean(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "rng2 = np.random.default_rng(seed)\n"
        )
        assert lint_source(src, "core/x.py") == []

    def test_stdlib_random_import_flagged(self):
        assert ids(lint_source("import random\n", "core/x.py")) == {"DET101"}
        assert ids(lint_source("from random import choice\n", "core/x.py")) == {"DET101"}

    def test_stdlib_random_call_flagged(self):
        fs = lint_source("import random\nx = random.randint(0, 5)\n", "core/x.py")
        assert [f.rule_id for f in fs] == ["DET101", "DET101"]

    def test_np_legacy_global_state_flagged(self):
        for call in ("np.random.seed(0)", "np.random.rand(3)", "np.random.shuffle(xs)"):
            fs = lint_source(f"import numpy as np\n{call}\n", "core/x.py")
            assert ids(fs) == {"DET101"}, call

    def test_generator_methods_clean(self):
        src = "def f(rng):\n    return rng.random() + rng.integers(0, 5)\n"
        assert lint_source(src, "core/x.py") == []


class TestWallClock:
    def test_time_time_flagged(self):
        fs = lint_source("import time\nt = time.time()\n", "runtime/x.py")
        assert ids(fs) == {"DET102"}

    def test_perf_counter_flagged(self):
        fs = lint_source("import time\nt = time.perf_counter()\n", "serving/x.py")
        assert ids(fs) == {"DET102"}

    def test_from_import_flagged(self):
        fs = lint_source("from time import perf_counter\n", "core/x.py")
        assert ids(fs) == {"DET102"}

    def test_datetime_now_flagged(self):
        fs = lint_source(
            "import datetime\nt = datetime.datetime.now()\n", "core/x.py"
        )
        assert ids(fs) == {"DET102"}

    def test_benchmarks_exempt(self):
        src = "import time\nt0 = time.time()\nt1 = time.perf_counter()\n"
        assert lint_source(src, "benchmarks/run_benchmarks.py") == []

    def test_time_sleep_clean(self):
        assert lint_source("import time\ntime.sleep(1)\n", "core/x.py") == []


SET_ITER_BAD = """
class Sched:
    def __init__(self):
        self._live: set[int] = set()

    def holders(self) -> set[int]:
        return set(self._live)

    def bad_for(self):
        for rid in self._live:
            print(rid)

    def bad_call_iter(self):
        for h in self.holders():
            print(h)

    def bad_listcomp(self):
        return [r for r in self._live]

    def bad_literal(self):
        for x in {1, 2, 3}:
            print(x)
"""

SET_ITER_GOOD = """
class Sched:
    def __init__(self):
        self._live: set[int] = set()

    def ok(self):
        for rid in sorted(self._live):
            print(rid)
        total = sum(r for r in self._live)
        flag = any(r > 0 for r in self._live)
        low = min(self._live) if self._live else None
        copy = {r for r in self._live}
        return total, flag, low, copy
"""


class TestSetIteration:
    def test_bad_patterns_flagged_in_scheduling_modules(self):
        fs = lint_source(SET_ITER_BAD, "runtime/sched.py")
        assert ids(fs) == {"DET201"}
        assert len(fs) == 4

    def test_order_insensitive_consumers_allowed(self):
        assert lint_source(SET_ITER_GOOD, "runtime/sched.py") == []

    def test_out_of_scope_module_clean(self):
        # core/ makes scheduling-free use of sets; the rule is scoped to
        # the modules where iteration order can reach placement decisions
        assert lint_source(SET_ITER_BAD, "core/engine.py") == []

    @pytest.mark.parametrize("module", ["runtime", "serving", "cluster"])
    def test_all_scheduling_dirs_in_scope(self, module):
        fs = lint_source("for x in {1, 2}:\n    print(x)\n", f"{module}/m.py")
        assert ids(fs) == {"DET201"}

    def test_popitem_flagged(self):
        fs = lint_source("d = {}\nd.popitem()\n", "cluster/router.py")
        assert ids(fs) == {"DET202"}
        assert lint_source("d = {}\nd.popitem()\n", "core/x.py") == []


class TestIdOrdering:
    def test_id_in_sorted_key_flagged(self):
        fs = lint_source("ys = sorted(xs, key=lambda r: id(r))\n", "core/x.py")
        assert ids(fs) == {"DET301"}

    def test_bare_id_key_flagged(self):
        fs = lint_source("y = max(xs, key=id)\n", "runtime/x.py")
        assert ids(fs) == {"DET301"}

    def test_id_in_tiebreak_tuple_flagged(self):
        fs = lint_source(
            "xs.sort(key=lambda r: (r.arrival, id(r)))\n", "core/x.py"
        )
        assert ids(fs) == {"DET301"}

    def test_stable_keys_clean(self):
        src = "ys = sorted(xs, key=lambda r: (r.arrival, r.request_id))\n"
        assert lint_source(src, "core/x.py") == []


class TestSuppressions:
    def test_disable_silences_matching_rule(self):
        src = "for x in {1, 2}:  # repro-lint: disable=DET201\n    print(x)\n"
        assert lint_source(src, "runtime/x.py") == []

    def test_disable_all(self):
        src = "for x in {1, 2}:  # repro-lint: disable=all\n    print(x)\n"
        assert lint_source(src, "runtime/x.py") == []

    def test_disable_other_rule_keeps_finding(self):
        src = "for x in {1, 2}:  # repro-lint: disable=DET101\n    print(x)\n"
        assert ids(lint_source(src, "runtime/x.py")) == {"DET201"}

    def test_disable_multiple_rules(self):
        src = (
            "import time\n"
            "for x in {1, 2}:  # repro-lint: disable=DET201, DET102\n"
            "    print(x, time.time())  # repro-lint: disable=DET102\n"
        )
        assert lint_source(src, "runtime/x.py") == []


class TestAssertStatement:
    def test_assert_flagged_in_program_code(self):
        src = "def f(x):\n    assert x > 0, 'x must be positive'\n    return x\n"
        fs = lint_source(src, "repro/core/x.py")
        assert [(f.rule_id, f.line) for f in fs] == [("DET401", 2)]

    def test_explicit_raise_clean(self):
        src = "def f(x):\n    if x <= 0:\n        raise RuntimeError('x must be positive')\n    return x\n"
        assert lint_source(src, "repro/core/x.py") == []

    def test_tests_and_benchmarks_exempt(self):
        src = "assert 1 + 1 == 2\n"
        assert lint_source(src, "tests/core/test_x.py") == []
        assert lint_source(src, "benchmarks/e2e/run.py") == []

    def test_suppression_respected(self):
        src = "assert True  # repro-lint: disable=DET401\n"
        assert lint_source(src, "repro/core/x.py") == []


class TestEngineAndReporting:
    def test_findings_sorted_and_formatted(self):
        src = "import random\nfor x in {1}:\n    print(x)\n"
        fs = lint_source(src, "runtime/x.py")
        assert [f.line for f in fs] == sorted(f.line for f in fs)
        rendered = fs[0].format()
        assert "runtime/x.py:1:" in rendered and "DET101" in rendered

    def test_every_rule_documented(self):
        table = rules_table()
        for rule in RULES:
            assert rule.rule_id in table and rule.name in table
        assert set(RULES_BY_ID) == {r.rule_id for r in RULES}

    def test_syntax_error_reported_not_raised(self):
        fs = lint_source("def broken(:\n", "core/x.py")
        assert len(fs) == 1 and "could not parse" in fs[0].message

    def test_lint_paths_over_directory(self, tmp_path):
        (tmp_path / "runtime").mkdir()
        (tmp_path / "runtime" / "bad.py").write_text("for x in {1}:\n    print(x)\n")
        (tmp_path / "runtime" / "good.py").write_text("x = sorted({1, 2})\n")
        fs = lint_paths([tmp_path], root=tmp_path.parent)
        assert len(fs) == 1 and fs[0].rule_id == "DET201"
        assert fs[0].path.endswith("runtime/bad.py")


class TestShippedTree:
    def test_src_repro_lints_clean(self):
        target = default_lint_target()
        assert target.name == "repro"
        findings = lint_paths([target], root=target.parent)
        assert findings == [], "\n".join(f.format() for f in findings)


class TestCli:
    def test_lint_clean_tree_exit_0(self):
        from repro.cli import main

        assert main(["lint"]) == 0

    def test_lint_bad_fixture_exit_1_with_rule_ids(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "runtime" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(
            "import random\nfor x in {1, 2}:\n    print(random.random())\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out and "DET201" in out

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out

    def test_module_invocation(self):
        # the CI lane runs exactly this command
        import os

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            capture_output=True, text=True, cwd=root, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_args(self):
        args = build_parser().parse_args(["plan", "--context", "131072", "--sla", "10"])
        assert args.context == 131072
        assert args.sla == 10.0


class TestCommands:
    def test_demo_exits_zero(self, capsys):
        assert main(["demo", "--world", "2", "--tokens", "16"]) == 0
        out = capsys.readouterr().out
        assert "losslessness" in out
        assert "pass-kv" in out
        assert "comm bytes by kind: {'sendrecv': " in out

    def test_heuristic_output(self, capsys):
        assert main(["heuristic", "--new-tokens", "1280", "--cached", "126720"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 1" in out
        assert "pass-q" in out

    def test_plan_meets_sla(self, capsys):
        assert main(["plan", "--context", "131072", "--sla", "60"]) == 0
        assert "meets SLA" in capsys.readouterr().out

    def test_plan_impossible_sla(self, capsys):
        assert main(["plan", "--context", "1048576", "--sla", "0.001"]) == 1

    def test_experiments_filtered(self, capsys):
        assert main(["experiments", "--fast", "--only", "Table 7"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
        assert "Figure 8" not in out

    def test_experiments_markdown(self, capsys):
        assert main(["experiments", "--fast", "--only", "Table 2", "--markdown"]) == 0
        assert "### Table 2" in capsys.readouterr().out

    def test_experiments_filter_runs_nothing_else(self, capsys, monkeypatch):
        """``--only`` selects before anything runs: no other experiment's
        ``run`` is called (it used to run them all and filter the output)."""
        from repro.experiments import report

        ran = []

        def spying(real=report.registry, **kwargs):
            def spy(exp_id, run):
                return lambda: (ran.append(exp_id), run())[1]

            return [(exp_id, spy(exp_id, run)) for exp_id, run in real(**kwargs)]

        monkeypatch.setattr(report, "registry", spying)
        assert main(["experiments", "--only", "Table 2"]) == 0
        assert ran == ["Table 2"]
        assert "Table 2" in capsys.readouterr().out

    def test_experiments_both_figure6_panels_selectable(self, capsys):
        assert main(["experiments", "--only", "figure 6b"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6b" in out and "Figure 6a" not in out
        assert main(["experiments", "--only", "Figure 6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out and "Figure 6b" in out

    def test_experiments_unknown_id_lists_the_known_ones(self, capsys):
        assert main(["experiments", "--only", "Table 99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Table 99" in captured.err
        for exp_id in ("Table 2", "Figure 6a", "Figure 10", "Cluster routing"):
            assert exp_id in captured.err

    def test_experiment_registry_ids_are_the_results_ids(self):
        """Every analytic entry reports the id it is registered under (the
        CLI raises on a mismatch; the numeric ones run in the CI
        ``experiments`` job) and ``--fast`` only ever removes entries."""
        from repro.experiments import report

        ids = [exp_id for exp_id, _ in report.registry()]
        assert len(set(ids)) == len(ids)
        fast = [exp_id for exp_id, _ in report.registry(fast=True)]
        assert [i for i in ids if i in fast] == fast and len(fast) < len(ids)
        analytic = report.registry()[: ids.index("Preemption modes")]
        for exp_id, run in analytic:
            if exp_id != "Figure 10":  # the scipy refit: slow, and an optional extra
                assert run().experiment_id == exp_id

    def test_serve_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "2", "--turns", "2", "--world", "2",
            "--capacity", "80", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "preemptions:" in out
        assert "verify vs sequential replay: identical" in out

    def test_serve_disaggregated_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "2", "--turns", "2", "--disaggregate", "2:1",
            "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "CP2 prefill -> CP1 decode" in out
        assert "KV transfers:" in out
        assert "pool utilization:" in out
        assert "verify vs sequential replay: identical" in out

    def test_serve_verify_exits_1_when_a_counter_is_written_around_the_stream(
        self, capsys, monkeypatch
    ):
        from repro.runtime.runtime import ContinuousBatchingRuntime

        args = ["serve", "--sessions", "2", "--turns", "1", "--world", "2", "--verify"]
        assert main(args) == 0
        assert "verify trace reconciliation: exact" in capsys.readouterr().out

        finish_turn = ContinuousBatchingRuntime._finish_turn

        def defective(self, rec, *, at):  # the defect: a counter written beside the stream
            finish_turn(self, rec, at=at)
            self.metrics._counters["completed_requests"] += 1

        monkeypatch.setattr(ContinuousBatchingRuntime, "_finish_turn", defective)
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "DRIFT completed_requests: trace-derived 2 != metrics 4" in out
        assert "verify trace reconciliation: 1 counter(s) drifted" in out

    @pytest.mark.parametrize(
        ("shape", "leak"),
        [([], "LEAK rank 0: seeded"), (["--replicas", "2"], "LEAK replica 0: rank 0: seeded")],
        ids=["runtime", "fleet"],
    )
    def test_serve_verify_exits_1_on_a_kv_leak(self, capsys, monkeypatch, shape, leak):
        from repro.runtime.runtime import ContinuousBatchingRuntime

        monkeypatch.setattr(ContinuousBatchingRuntime, "kv_leak_report", lambda self: ["rank 0: seeded"])
        assert main(["serve", "--sessions", "2", "--turns", "1", "--verify", *shape]) == 1
        out = capsys.readouterr().out
        assert "verify vs sequential replay: identical" in out
        assert leak in out.splitlines()

    def test_serve_sanitize_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "2", "--turns", "2", "--world", "2",
            "--capacity", "80", "--sanitize", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "verify vs sequential replay: identical" in out

    def test_serve_rejects_malformed_disaggregate(self, capsys):
        assert main(["serve", "--disaggregate", "2x1"]) == 2
        assert "P:D" in capsys.readouterr().err

    def test_serve_rejects_decode_capacity_without_disaggregate(self, capsys):
        assert main(["serve", "--decode-capacity", "64"]) == 2
        assert "decode-pool capacity needs a disaggregated" in capsys.readouterr().err

    def test_serve_rejects_world_with_disaggregate(self, capsys):
        assert main(["serve", "--world", "4", "--disaggregate", "1:1"]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_serve_preemption_swap_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "2", "--turns", "2", "--world", "2",
            "--capacity", "64", "--preemption", "swap", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "preemption: swap" in out
        assert "KV swaps:" in out
        assert "verify vs sequential replay: identical" in out

    def test_serve_preemption_trim_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "2", "--turns", "2", "--world", "2",
            "--capacity", "64", "--preemption", "trim", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "tail trims:" in out
        assert "verify vs sequential replay: identical" in out

    @pytest.mark.parametrize(
        "argv",
        [["--capacity", "0"], ["--disaggregate", "1:1", "--decode-capacity", "-4"]],
        ids=["capacity-0", "decode-capacity-negative"],
    )
    def test_serve_rejects_capacity_below_one_token(self, capsys, argv):
        """Bad KV capacity is a usage error before anything runs, not a
        traceback after simulated time has passed."""
        assert main(["serve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "capacity_tokens" in captured.err
        assert "served" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--capacity", "32", "--sessions", "6", "--turns", "3"],
            ["--capacity", "48", "--prefix-cache", "--traffic", "shared-prefix", "--sessions", "6", "--turns", "3"],
        ],
        ids=["plain", "shared-prefix"],
    )
    def test_serve_capacity_too_small_for_the_traffic_is_a_usage_error(self, capsys, argv):
        """A KV pool too small for a decode step wedges the runtime: an
        ``error:`` line and exit 2, with nothing on stdout."""
        assert main(["serve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: KV capacity exhausted")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["--turns", "0"], ["--first-prompt", "0"], ["--sessions", "-1", "--verify"]],
        ids=["turns-0", "first-prompt-0", "sessions-negative-verify"],
    )
    def test_serve_rejects_empty_workload(self, capsys, argv):
        """A workload with nothing to serve is a usage error: no traceback
        from the generator, and no verify that checked zero turns."""
        assert main(["serve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "served" not in captured.out

    def test_serve_rejects_swap_capacity_without_swap(self, capsys):
        assert main(["serve", "--swap-capacity", "128"]) == 2
        assert "swap capacity only applies to swap preemption" in capsys.readouterr().err

    def test_serve_rejects_a_repeated_fault_key(self, capsys):
        """``transfer=0.1,transfer=0.9`` is a usage error, not a 0.9 plan."""
        assert main(["serve", "--faults", "transfer=0.1,transfer=0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "'transfer' given twice" in captured.err
        assert captured.out == ""

    def test_serve_rejects_round_budget_below_chunk(self, capsys):
        assert main(["serve", "--round-budget", "8"]) == 2
        assert "token budget (8) must be >= the prefill chunk (16)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--tokens", "1"],
            ["demo", "--world", "0"],
            ["trace", "--decode-steps", "-1"],
            ["plan", "--context", "0"],
            *(["plan", "--context", "1000", "--sla", sla] for sla in ("0", "-1", "nan", "inf")),
            ["heuristic", "--new-tokens", "0", "--cached", "5"],
            ["heuristic", "--new-tokens", "5", "--cached", "5", "--ranks", "0"],
        ],
        ids=["demo-tokens-1", "demo-world-0", "trace-decode-steps-negative",
             "plan-context-0", "plan-sla-0", "plan-sla-negative", "plan-sla-nan", "plan-sla-inf",
             "heuristic-new-tokens-0", "heuristic-ranks-0"],
    )
    def test_bad_argv_is_a_usage_error(self, capsys, tmp_path, argv):
        """The owner's ValueError surfaces as exit 2 with an ``error:``
        line before anything is printed or written."""
        output = tmp_path / "trace.json"
        if argv[0] == "trace":
            argv = [*argv, "--output", str(output)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not output.exists()

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--trace"], ["serve", "--prom"], ["trace", "--output"]],
        ids=["serve-trace", "serve-prom", "trace-output"],
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv):
        """An output path that cannot be written is found before the run,
        not as a traceback after the whole report has been printed."""
        path = tmp_path / "missing" / "out.txt"
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.out == ""

    def test_trace_writes_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "--world", "2", "--tokens", "12", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        spans = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in spans} == {"sendrecv", "all2all"}
        # the one exporter: collective spans abut on their rail
        from repro.obs import validate_chrome

        assert validate_chrome(data) == []
        assert len({(e["pid"], e["tid"]) for e in spans}) == 1
        printed = capsys.readouterr().out
        assert f"wrote {len(spans)} traced events" in printed
        assert "sendrecv" in printed and "all2all" in printed


class TestServePrefixCache:
    def test_serve_prefix_cache_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "4", "--turns", "2",
            "--prefix-cache", "--traffic", "shared-prefix", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "prefix cache:" in out
        assert "hits" in out
        assert "verify vs sequential replay: identical" in out

    def test_serve_prefix_cache_disaggregated(self, capsys):
        assert main([
            "serve", "--sessions", "3", "--turns", "2", "--disaggregate", "2:1",
            "--prefix-cache", "--traffic", "shared-prefix", "--verify",
        ]) == 0
        assert "verify vs sequential replay: identical" in capsys.readouterr().out


class TestServeFleet:
    def test_serve_fleet_verifies_exactness(self, capsys):
        assert main([
            "serve", "--replicas", "3", "--routing", "prefix",
            "--prefix-cache", "--traffic", "shared-prefix",
            "--sessions", "6", "--turns", "2", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 x" in out and "(prefix routing)" in out
        assert "placements:" in out
        assert "post-drain KV audit: clean" in out
        assert "replicas: 3" in out
        assert "verify vs sequential replay: identical" in out

    def test_serve_fleet_round_robin_with_faults(self, capsys):
        assert main([
            "serve", "--replicas", "2", "--routing", "round-robin",
            "--sessions", "4", "--turns", "2",
            "--faults", "transfer=0.2", "--fault-seed", "3", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "(round-robin routing)" in out
        assert "verify vs sequential replay: identical" in out

    def test_serve_replicas_one_keeps_single_runtime_output(self, capsys):
        assert main(["serve", "--replicas", "1", "--sessions", "2"]) == 0
        out = capsys.readouterr().out
        assert "replicas:" not in out
        assert "placements:" not in out

    def test_serve_rejects_zero_replicas(self, capsys):
        assert main(["serve", "--replicas", "0"]) == 2
        assert "replica count must be >= 1" in capsys.readouterr().err

    def test_serve_rejects_routing_without_fleet(self, capsys):
        assert main(["serve", "--routing", "prefix"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_serve_rejects_unknown_routing_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--replicas", "2", "--routing", "random"])
        assert "invalid choice" in capsys.readouterr().err

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
        assert "Table 99" in captured.err
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
        analytic = report.registry()[: ids.index("Runtime under capacity pressure")]
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
        from repro.serving.metrics import ServingMetrics

        args = ["serve", "--sessions", "2", "--turns", "1", "--world", "2", "--verify"]
        assert main(args) == 0
        assert "verify trace reconciliation: exact" in capsys.readouterr().out

        ledger = ServingMetrics.record_turn

        def record_turn(self, turn):  # the defect: a counter written beside the ledger
            ledger(self, turn)
            self._counters["completed_requests"].inc()

        monkeypatch.setattr(ServingMetrics, "record_turn", record_turn)
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "DRIFT completed_requests: trace-derived 2 != metrics 4" in out
        assert "verify trace reconciliation: 1 counter(s) drifted" in out

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
        assert "--disaggregate" in capsys.readouterr().err

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

    def test_serve_rejects_swap_capacity_without_swap(self, capsys):
        assert main(["serve", "--swap-capacity", "128"]) == 2
        assert "--preemption swap" in capsys.readouterr().err

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

    def test_serve_srpf_policy_verifies_exactness(self, capsys):
        assert main([
            "serve", "--sessions", "3", "--turns", "2", "--world", "2",
            "--policy", "srpf", "--capacity", "80", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy: srpf" in out
        assert "verify vs sequential replay: identical" in out


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

    def test_serve_fleet_least_loaded(self, capsys):
        assert main([
            "serve", "--replicas", "2", "--routing", "least-loaded",
            "--sessions", "3", "--verify",
        ]) == 0
        assert "verify vs sequential replay: identical" in capsys.readouterr().out

    def test_serve_replicas_one_keeps_single_runtime_output(self, capsys):
        assert main(["serve", "--replicas", "1", "--sessions", "2"]) == 0
        out = capsys.readouterr().out
        assert "replicas:" not in out
        assert "placements:" not in out

    def test_serve_rejects_zero_replicas(self, capsys):
        assert main(["serve", "--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_serve_rejects_routing_without_fleet(self, capsys):
        assert main(["serve", "--routing", "prefix"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_serve_rejects_unknown_routing_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--replicas", "2", "--routing", "random"])
        assert "invalid choice" in capsys.readouterr().err

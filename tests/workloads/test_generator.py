"""Tests for workload generation."""

import numpy as np
import pytest

from repro.workloads.generator import WorkloadGenerator, poisson_arrivals


class TestWorkloadGenerator:
    def test_prompt_determinism(self):
        a = WorkloadGenerator(100, seed=1).prompt(20)
        b = WorkloadGenerator(100, seed=1).prompt(20)
        np.testing.assert_array_equal(a, b)

    def test_prompt_vocab_range(self):
        gen = WorkloadGenerator(50, seed=0)
        p = gen.prompt(1000)
        assert p.min() >= 0 and p.max() < 50

    def test_conversation_script(self):
        gen = WorkloadGenerator(100, seed=3)
        script = gen.conversation(0, turns=4, first_prompt=200, followup_range=(8, 16))
        assert script.turns == 4
        assert script.prompts[0].size == 200
        for p in script.prompts[1:]:
            assert 8 <= p.size <= 16
        assert len(script.response_budgets) == 4
        assert script.total_prompt_tokens == sum(p.size for p in script.prompts)

    def test_conversation_multi_turn_hit_rates_rise(self):
        """The generated workload has the paper's shape: later turns run at
        high cache-hit rates."""
        gen = WorkloadGenerator(100, seed=4)
        script = gen.conversation(0, turns=5, first_prompt=500)
        cached = 0
        rates = []
        for p in script.prompts:
            rates.append(p.size / (p.size + cached))
            cached += p.size + 8  # + response
        assert rates[0] == 1.0
        assert all(r < 0.15 for r in rates[1:])

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(1)
        gen = WorkloadGenerator(10)
        with pytest.raises(ValueError):
            gen.prompt(0)
        with pytest.raises(ValueError):
            gen.conversation(0, turns=0, first_prompt=10)


class TestSharedPrefixTraffic:
    def make(self, **kw):
        from repro.workloads.generator import WorkloadGenerator

        gen = WorkloadGenerator(128, seed=4)
        defaults = dict(
            n_system_prompts=2, n_fewshot_variants=2, conversations=8,
            system_tokens=24, fewshot_tokens=8, unique_range=(4, 6),
        )
        defaults.update(kw)
        return gen.shared_prefix_traffic(**defaults)

    def test_round_robin_template_assignment(self):
        scripts = self.make()
        assert len(scripts) == 8
        assert [s.seq_id for s in scripts] == list(range(8))
        # conversations i and i+2 share the same 24-token system prompt
        import numpy as np

        for i in range(6):
            a, b = scripts[i].prompts[0], scripts[i + 2].prompts[0]
            assert np.array_equal(a[:24], b[:24])
        # adjacent conversations use different system prompts
        assert not np.array_equal(scripts[0].prompts[0][:24], scripts[1].prompts[0][:24])

    def test_fewshot_variants_rotate_within_template(self):
        import numpy as np

        scripts = self.make(conversations=8)
        # i and i+4 share system AND few-shot (2 templates x 2 variants)
        a, b = scripts[0].prompts[0], scripts[4].prompts[0]
        assert np.array_equal(a[:32], b[:32])
        # i and i+2 share only the system prompt (different variant)
        a, b = scripts[0].prompts[0], scripts[2].prompts[0]
        assert not np.array_equal(a[24:32], b[24:32])

    def test_multi_turn_scripts(self):
        scripts = self.make(turns=3)
        assert all(s.turns == 3 for s in scripts)
        assert all(len(s.response_budgets) == 3 for s in scripts)

    def test_deterministic_for_seed(self):
        import numpy as np

        a = self.make()
        b = self.make()
        for s1, s2 in zip(a, b):
            for p1, p2 in zip(s1.prompts, s2.prompts):
                assert np.array_equal(p1, p2)

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            self.make(n_system_prompts=0)
        with pytest.raises(ValueError):
            self.make(conversations=0)
        with pytest.raises(ValueError):
            self.make(unique_range=(0, 4))
        with pytest.raises(ValueError):
            self.make(turns=0)


class TestPoissonArrivals:
    def test_deterministic(self):
        assert poisson_arrivals(0.5, 10, seed=3) == poisson_arrivals(0.5, 10, seed=3)

    def test_sorted_and_positive(self):
        times = poisson_arrivals(2.0, 50)
        assert times == sorted(times)
        assert times[0] > 0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 5)

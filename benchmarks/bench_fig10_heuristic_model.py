"""Figure 10 / Appendix D: refit the empirical decision boundary."""

import pytest

from repro.experiments import fig10_heuristic

pytest.importorskip("scipy")  # the refit is the one thing that needs the "fit" extra


def bench_fig10_heuristic_fit(benchmark, paper_table):
    result = benchmark(fig10_heuristic.run)
    paper_table(benchmark, result)
    values = {row[0]: row[1] for row in result.rows}
    # the linear boundary separates the sweep cleanly
    assert values["boundary agreement"] > 0.9
    # qualitative match to Appendix D: higher miss rate -> pass-KV
    assert values["fitted beta"] > 0
    # misclassifications (if any) cost little: the two variants differ by
    # under ~15% latency at every misclassified point (paper: <1% on its
    # denser production dataset)
    assert values["max latency gap among misclassified"] < 0.15


if __name__ == "__main__":
    print(fig10_heuristic.run().render())

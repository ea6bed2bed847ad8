"""Paper-vs-model deviation accounting.

Several regenerated tables embed the paper's published numbers as
``paper <column>`` columns. This module pairs them with the corresponding
model columns and produces deviation statistics — a global regression
guard: a test asserts the whole reproduction stays within its deviation
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.base import ExperimentResult


@dataclass(frozen=True)
class Deviation:
    """Model-vs-paper deviation summary for one column pair.

    Attributes:
        experiment_id: paper table/figure.
        column: model column name.
        n: number of compared rows.
        mean_rel: mean relative absolute deviation.
        max_rel: worst relative absolute deviation.
    """

    experiment_id: str
    column: str
    n: int
    mean_rel: float
    max_rel: float


def paired_columns(result: ExperimentResult) -> list[tuple[str, str]]:
    """``(model_column, paper_column)`` pairs found in a result.

    A pair exists when a header ``X`` has a counterpart ``paper X``
    (matching is case-sensitive on the suffix).
    """
    pairs = []
    for header in result.headers:
        if not isinstance(header, str) or header.startswith("paper "):
            continue
        partner = f"paper {header}"
        if partner in result.headers:
            pairs.append((header, partner))
    return pairs


def deviations(result: ExperimentResult) -> list[Deviation]:
    """Deviation stats for every paired column of one experiment."""
    out = []
    for model_col, paper_col in paired_columns(result):
        model = np.array(result.column(model_col), dtype=float)
        paper = np.array(result.column(paper_col), dtype=float)
        valid = paper != 0
        if not np.any(valid):
            continue
        rel = np.abs(model[valid] - paper[valid]) / np.abs(paper[valid])
        out.append(
            Deviation(
                experiment_id=result.experiment_id,
                column=model_col,
                n=int(valid.sum()),
                mean_rel=float(rel.mean()),
                max_rel=float(rel.max()),
            )
        )
    return out


def deviation_report(results: list[ExperimentResult]) -> ExperimentResult:
    """One summary table over every comparable experiment."""
    summary = ExperimentResult(
        experiment_id="Deviation summary",
        title="model vs paper, relative deviation per compared column",
        headers=["experiment", "column", "rows", "mean %", "max %"],
    )
    for result in results:
        for d in deviations(result):
            summary.add_row(
                d.experiment_id, d.column, d.n, 100 * d.mean_rel, 100 * d.max_rel
            )
    return summary

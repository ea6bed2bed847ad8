"""Common result container and rendering for experiment regenerators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One regenerated table/figure.

    Attributes:
        experiment_id: paper reference, e.g. ``"Table 4"`` / ``"Figure 6a"``.
        title: short description.
        headers: column names.
        rows: list of value tuples aligned with ``headers``.
        notes: free-form commentary (substitutions, deviations).

    A table the paper published carries its numbers as ``paper <column>``
    columns beside the model's (:mod:`repro.experiments.compare` pairs
    them); each published number lives once, as a ``PAPER_*`` constant of
    the module that regenerates its table or figure.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"{self.experiment_id}: row width {len(values)} != header width {len(self.headers)}"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Fixed-width text table (what ``python -m repro experiments`` prints)."""
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in self.rows)) if self.rows else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown table (``experiments --markdown``)."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3f}"
    return str(v)

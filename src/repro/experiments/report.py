"""Shared result formatting for the experiment harnesses.

Every experiment module returns a :class:`ExperimentResult` whose rows
print as an aligned text table shaped like the paper's table/figure, so
the runner's progress output can be compared to the paper side by side
and EXPERIMENTS.md can embed the same rendering.

Results are also *machine-readable*: rows are typed values (never
pre-rendered strings of numbers), every harness records its headline
numbers in :attr:`ExperimentResult.metrics`, and
:meth:`ExperimentResult.to_dict` / :meth:`ExperimentResult.from_dict`
round-trip through JSON exactly (Python's ``json`` emits ``repr``-exact
floats), which is what lets :mod:`repro.runner` ship results across
process boundaries and diff them byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def format_value(value: Any) -> str:
    """The one shared scalar formatter (text tables and EXPERIMENTS.md
    regeneration must agree on it, or the docs check would drift on
    formatting rather than on measured values)."""
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:,.0f}"
    return str(value)


@dataclass
class ExperimentResult:
    experiment: str                 # e.g. "Table II", "Figure 7"
    title: str
    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Headline numbers by name — the typed scalars a dashboard would
    #: read, independent of the table layout.
    metrics: dict[str, Any] = field(default_factory=dict)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment}: row has {len(values)} values for "
                f"{len(self.columns)} columns")
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def metric(self, name: str, value: Any) -> None:
        """Record a headline number (int/float/str/bool)."""
        self.metrics[name] = value

    def render(self) -> str:
        table = [tuple(self.columns)] + \
            [tuple(format_value(v) for v in row) for row in self.rows]
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(self.columns))]
        lines = [f"== {self.experiment}: {self.title} =="]
        header = " | ".join(c.ljust(w) for c, w in zip(table[0], widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in table[1:]:
            lines.append(" | ".join(c.ljust(w)
                                    for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def row_dict(self, key_column: str = None) -> dict:
        """Rows keyed by their first (or named) column, for assertions."""
        key_idx = 0 if key_column is None \
            else self.columns.index(key_column)
        return {row[key_idx]: dict(zip(self.columns, row))
                for row in self.rows}

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict; lossless for int/float/str/bool cells."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        return cls(experiment=data["experiment"],
                   title=data["title"],
                   columns=tuple(data["columns"]),
                   rows=[tuple(row) for row in data["rows"]],
                   notes=list(data.get("notes", ())),
                   metrics=dict(data.get("metrics", {})))

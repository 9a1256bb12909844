"""Result tables for the experiment suite.

Each benchmark regenerates one of the paper's figures/claims as a small text
table (the "same rows/series the paper reports"). :class:`ResultTable`
collects rows, renders them aligned for the console, and persists both a
text and a CSV artifact. An ordinary run writes them to the git-ignored
``benchmarks/results/latest/``, so running the suite never dirties the
checkout; with ``REPRO_WRITE_RESULTS=1`` in the environment they replace the
committed tables under ``benchmarks/results/`` that the README quotes.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = ["ResultTable", "results_dir"]

#: Environment switch: ``1`` sends default-located artifacts to the
#: committed ``benchmarks/results/`` tables instead of ``latest/``.
WRITE_RESULTS_ENV = "REPRO_WRITE_RESULTS"


def results_dir(base: Optional[Union[str, Path]] = None) -> Path:
    """The directory benchmark artifacts are written to (created on use).

    ``base`` wins when given. Otherwise it is ``benchmarks/results/latest/``
    (git-ignored), or the committed ``benchmarks/results/`` itself when
    :data:`WRITE_RESULTS_ENV` is ``1``.
    """
    if base:
        directory = Path(base)
    else:
        directory = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
        if os.environ.get(WRITE_RESULTS_ENV) != "1":
            directory = directory / "latest"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


class ResultTable:
    """An ordered collection of experiment result rows.

    Args:
        experiment: Experiment id, e.g. ``"E5"`` (used as file stem).
        title: One-line description printed above the table.
        columns: Column names in display order.
    """

    def __init__(self, experiment: str, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a result table needs at least one column")
        self.experiment = experiment
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        """Append one row; values must cover exactly the declared columns."""
        missing = set(self.columns) - set(values)
        extra = set(values) - set(self.columns)
        if missing or extra:
            raise ValueError(
                f"row mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        self.rows.append(dict(values))

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.3g}"
            return f"{value:.4g}"
        return str(value)

    def to_text(self) -> str:
        """The aligned console rendering."""
        cells = [self.columns] + [
            [self._format(row[column]) for column in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(line[index]) for line in cells)
            for index in range(len(self.columns))
        ]
        lines = [f"{self.experiment}: {self.title}"]
        header = "  ".join(
            name.ljust(widths[index]) for index, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row_cells in cells[1:]:
            lines.append(
                "  ".join(
                    cell.ljust(widths[index]) for index, cell in enumerate(row_cells)
                )
            )
        return "\n".join(lines)

    def save(self, directory: Optional[Union[str, Path]] = None) -> Path:
        """Write ``<experiment>.txt`` and ``<experiment>.csv``; returns the
        text path."""
        target = results_dir(directory)
        text_path = target / f"{self.experiment.lower()}.txt"
        text_path.write_text(self.to_text() + "\n")
        with open(target / f"{self.experiment.lower()}.csv", "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            writer.writerows(self.rows)
        return text_path

    def print_and_save(self, directory: Optional[Union[str, Path]] = None) -> None:
        """Convenience: print to stdout and persist the artifacts."""
        print()
        print(self.to_text())
        self.save(directory)

    def column(self, name: str) -> List[Any]:
        """All values of one column, row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self.rows]

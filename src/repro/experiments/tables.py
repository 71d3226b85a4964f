"""Plain-text rendering of experiment results.

Benchmarks print these tables next to the paper's numbers
(``experiments/paper_data.py``).
"""

from __future__ import annotations

import math
from typing import Sequence


def fmt(value: float, width: int = 8, digits: int = 2) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return " " * (width - 3) + "---"
    return f"{value:>{width}.{digits}f}"


def series_table(
    title: str,
    edges: Sequence[int],
    columns: dict[str, Sequence[float]],
    *,
    note: str = "",
) -> str:
    """A slowdown-vs-size table: one row per decile bucket."""
    lines = [f"== {title} =="]
    if note:
        lines.append(f"   ({note})")
    header = f"{'size bucket (B)':>22} |" + "".join(
        f"{name:>10}" for name in columns)
    lines.append(header)
    lines.append("-" * len(header))
    n_rows = len(edges) - 1
    for i in range(n_rows):
        label = f"{edges[i] + 1:>9}-{edges[i + 1]:<11}"
        row = f"{label} |"
        for values in columns.values():
            value = values[i] if i < len(values) else float("nan")
            row += fmt(value, 10)
        lines.append(row)
    return "\n".join(lines)


def kv_table(title: str, rows: Sequence[tuple[str, str]]) -> str:
    lines = [f"== {title} =="]
    width = max(len(k) for k, _ in rows) if rows else 0
    for key, value in rows:
        lines.append(f"  {key:<{width}} : {value}")
    return "\n".join(lines)


def comparison_line(label: str, paper_value, measured_value,
                    unit: str = "") -> str:
    """One paper-vs-measured row."""
    return (f"  {label:<38} paper: {paper_value!s:>10}{unit}   "
            f"measured: {measured_value!s:>10}{unit}")

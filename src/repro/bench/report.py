"""Plain-text reporting used by the benchmark harness.

Each benchmark regenerates the rows/series of one paper table or figure;
these helpers print them in a compact, aligned form so the output can be
compared side by side with the paper, and append ``(title, rows)`` to
:data:`RECORDED`.  ``benchmarks/conftest.py`` writes that list as one JSON
(``--json``) and diffs it row for row against the pinned
``benchmarks/FIGURE_EXPECTATIONS.json`` (``--expected``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: Every table and series printed by this process, in print order.
RECORDED: List[Tuple[str, List[Dict[str, object]]]] = []


def format_table(rows: Sequence[Dict[str, object]],
                 columns: Sequence[str] = ()) -> str:
    """Format dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    keys = list(columns) if columns else list(rows[0].keys())
    header = {key: key for key in keys}
    widths = {key: len(key) for key in keys}
    rendered: List[Dict[str, str]] = []
    for row in rows:
        text_row = {key: str(row.get(key, "")) for key in keys}
        rendered.append(text_row)
        for key in keys:
            widths[key] = max(widths[key], len(text_row[key]))
    lines = []
    for row in [header] + rendered:
        lines.append("  ".join(row[key].rjust(widths[key]) for key in keys))
    return "\n".join(lines)


def print_results(title: str, rows: Iterable[Dict[str, object]],
                  columns: Sequence[str] = ()) -> None:
    """Print one benchmark's result table and record its rows."""
    rows = list(rows)
    print(f"\n=== {title} ===\n" + format_table(rows, columns=columns))
    RECORDED.append((title, rows))


def print_series(title: str, points: Iterable[Dict[str, object]]) -> None:
    """Print a (x, y) series (e.g. a throughput timeline) and record it."""
    points = list(points)
    lines = [f"\n--- {title} ---"]
    for point in points:
        rendered = ", ".join(f"{key}={value}" for key, value in point.items())
        lines.append(f"  {rendered}")
    print("\n".join(lines))
    RECORDED.append((title, points))

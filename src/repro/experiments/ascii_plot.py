"""Minimal ASCII chart rendering for terminal figure output.

Used by the CLI so `python -m repro fig10` can show the hit-ratio curve
shape directly in the terminal, next to the data table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Point = Tuple[float, float]

#: Canvas size in characters.
WIDTH, HEIGHT = 60, 16


def render_series(
    series: Dict[str, Sequence[Point]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Scatter-plot one or more named (x, y) series on an ASCII canvas.

    Each series is drawn with its own marker (first letter of its name,
    falling back to symbols); axes are annotated with min/max values.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    canvas = [[" "] * WIDTH for _ in range(HEIGHT)]
    markers = "*+xo#@%&"
    legend: List[str] = []
    for idx, (name, pts) in enumerate(series.items()):
        marker = name[0] if name and name[0] not in " " else markers[idx % 8]
        if any(marker in line for line in legend):
            marker = markers[idx % 8]
        legend.append(f"  {marker} = {name}")
        for x, y in pts:
            col = int(round((x - x_min) / x_span * (WIDTH - 1)))
            row = int(round((y - y_min) / y_span * (HEIGHT - 1)))
            canvas[HEIGHT - 1 - row][col] = marker

    top = f"{y_max:g}".rjust(10)
    bottom = f"{y_min:g}".rjust(10)
    out = []
    for i, line in enumerate(canvas):
        prefix = top if i == 0 else (bottom if i == HEIGHT - 1
                                     else " " * 10)
        out.append(f"{prefix} |{''.join(line)}|")
    x_axis = f"{'':10} +{'-' * WIDTH}+"
    x_ticks = f"{'':10}  {f'{x_min:g}':<{WIDTH // 2}}{f'{x_max:g}':>{WIDTH // 2}}"
    out.append(x_axis)
    out.append(x_ticks)
    out.append(f"{'':10}  {x_label} vs {y_label}")
    out.extend(legend)
    return "\n".join(out)

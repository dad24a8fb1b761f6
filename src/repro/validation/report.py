"""ASCII figure art (terminal-friendly).

The harness regenerates the paper's figures as ASCII bar/line charts so a
bench run's output can be compared side by side with the published plots.
Tables are :class:`repro.obs.doc.Table` blocks; only these two charts,
which have no table to share, lay out columns themselves.
"""

from __future__ import annotations

from typing import Mapping, Sequence

BAR_WIDTH = 48


def ascii_bar(value: float, max_value: float, width: int = BAR_WIDTH) -> str:
    filled = 0 if max_value <= 0 else int(round(width * value / max_value))
    return "#" * max(0, min(width, filled))


def bar_chart(title: str, labels: Sequence[str], values: Sequence[float],
              reference: float = 1.0) -> str:
    """Horizontal bar chart with a reference tick (the 1.0 hardware line)."""
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    top = max(list(values) + [reference]) * 1.05
    ref_col = int(round(BAR_WIDTH * reference / top))
    lines = [title]
    for label, value in zip(labels, values):
        bar = ascii_bar(value, top)
        if len(bar) < ref_col:
            bar = bar + " " * (ref_col - len(bar) - 1) + "|"
        lines.append(f"  {label:26s} {value:6.2f} {bar}")
    lines.append(f"  {'':26s} {'':6s} " + " " * (ref_col - 1)
                 + f"^ reference = {reference:g}")
    return "\n".join(lines)


def line_chart(title: str, x_values: Sequence[int],
               series: Mapping[str, Mapping[int, float]],
               height: int = 16, ideal: bool = True) -> str:
    """ASCII line chart of speedup curves (one glyph per series)."""
    glyphs = "o*x+#@%&"
    max_y = max(max(curve.values()) for curve in series.values())
    if ideal:
        max_y = max(max_y, float(max(x_values)))
    max_y *= 1.05
    cols = {x: 4 + i * 6 for i, x in enumerate(x_values)}
    width = max(cols.values()) + 2
    grid = [[" "] * width for _ in range(height)]
    for i, (name, curve) in enumerate(series.items()):
        glyph = glyphs[i % len(glyphs)]
        for x, y in curve.items():
            if x not in cols:
                continue
            row = height - 1 - int((y / max_y) * (height - 1))
            grid[row][cols[x]] = glyph
    if ideal:
        for x in x_values:
            row = height - 1 - int((x / max_y) * (height - 1))
            if grid[row][cols[x]] == " ":
                grid[row][cols[x]] = "."
    lines = [title]
    for r, row in enumerate(grid):
        y_label = max_y * (height - 1 - r) / (height - 1)
        lines.append(f"{y_label:6.1f} |" + "".join(row))
    lines.append("       +" + "-" * width)
    axis = [" "] * width
    for x, col in cols.items():
        label = str(x)
        for k, ch in enumerate(label):
            if col + k < width:
                axis[col + k] = ch
    lines.append("        " + "".join(axis) + "  (processors)")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"  legend: {legend}" + ("   . ideal" if ideal else ""))
    return "\n".join(lines)


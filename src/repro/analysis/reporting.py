"""Plain-text rendering of tables and scatter charts.

The benchmark harness has no plotting stack, so figures are emitted as
aligned text tables plus compact ASCII scatter plots — enough to eyeball the
shapes the paper's charts show (who wins, by how much, where lines cross).
"""

from __future__ import annotations

import math

import numpy as np


def format_table(headers: list[str], rows: list[list], *,
                 float_fmt: str = "{:.4g}") -> str:
    """Render an aligned monospace table."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            if math.isnan(cell):
                return "-"
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows
        else len(headers[j])
        for j in range(len(headers))
    ]
    def line(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), "-+-".join("-" * w for w in widths)]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def ascii_scatter(points: dict[str, list[tuple[float, float]]], *,
                  width: int = 68, height: int = 18,
                  xlabel: str = "x", ylabel: str = "y",
                  logx: bool = False, logy: bool = False) -> str:
    """Scatter named series onto a character grid.

    Each series gets its own marker (see :func:`_series_markers`).  A
    point drawn over another series' marker hides it, so the legend is
    followed by the count of such overwritten cells.
    """
    xs = [p[0] for series in points.values() for p in series]
    ys = [p[1] for series in points.values() for p in series]
    if not xs:
        return "(no data)"

    def tx(v, log):
        return math.log10(max(v, 1e-18)) if log else v

    x_lo, x_hi = min(tx(x, logx) for x in xs), max(tx(x, logx) for x in xs)
    y_lo, y_hi = min(tx(y, logy) for y in ys), max(tx(y, logy) for y in ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = _series_markers(points)
    overwritten = 0
    for name, series in points.items():
        marker = markers[name]
        for x, y in series:
            cx = int((tx(x, logx) - x_lo) / x_span * (width - 1))
            cy = int((tx(y, logy) - y_lo) / y_span * (height - 1))
            row = grid[height - 1 - cy]
            overwritten += row[cx] not in (" ", marker)
            row[cx] = marker
    lines = ["." + "-" * width + "."]
    lines += ["|" + "".join(row) + "|" for row in grid]
    lines.append("'" + "-" * width + "'")
    lo_lab = f"{10**x_lo:.3g}" if logx else f"{x_lo:.3g}"
    hi_lab = f"{10**x_hi:.3g}" if logx else f"{x_hi:.3g}"
    lines.append(f"x: {xlabel} [{lo_lab} .. {hi_lab}]"
                 f"{' (log)' if logx else ''}")
    lo_lab = f"{10**y_lo:.3g}" if logy else f"{y_lo:.3g}"
    hi_lab = f"{10**y_hi:.3g}" if logy else f"{y_hi:.3g}"
    lines.append(f"y: {ylabel} [{lo_lab} .. {hi_lab}]"
                 f"{' (log)' if logy else ''}")
    legend = ", ".join(f"{markers[name]}={name}" for name in points)
    lines.append(f"legend: {legend}")
    lines.append(f"overwritten cells: {overwritten} "
                 f"(a later series drawn over an earlier one)")
    return "\n".join(lines)


#: markers for series whose name offers no free character
_SPARE_MARKERS = "*+#@%&=~^$abcdefghijklmnopqrstuvwxyz0123456789"


def _series_markers(names) -> dict:
    """One distinct marker per series, in order: the name's first letter
    when it is free, else the next capital or digit of the name (so
    AutoGluon, AutoSklearn1 and AutoSklearn2 plot as A, S and 2), else
    any other letter of it, else a spare symbol ("?" once all are
    taken)."""
    used: set[str] = set()
    markers = {}
    for name in names:
        text = str(name)
        options = (
            [text[:1].upper()]
            + [c for c in text[1:] if c.isupper() or c.isdigit()]
            + [c.upper() for c in text[1:] if c.isalpha()]
            + list(_SPARE_MARKERS)
        )
        marker = next((c for c in options if c.strip() and c not in used),
                      "?")
        used.add(marker)
        markers[name] = marker
    return markers


def bootstrap_mean(values, n_boot: int = 200, random_state=0) -> tuple[float, float]:
    """Mean and bootstrap std, mirroring the paper's 'repeatedly sampling one
    result out of 10 runs with replacement' uncertainty estimate."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return float("nan"), float("nan")
    rng = np.random.default_rng(random_state)
    means = [
        float(np.mean(rng.choice(values, size=values.size, replace=True)))
        for _ in range(n_boot)
    ]
    return float(np.mean(means)), float(np.std(means))

"""Static SVG reports: class maps, slice distributions, and ranking bars.

Charts are assembled as plain strings with fixed-precision coordinates so that
identical inputs always render identical bytes.
"""

from __future__ import annotations

import numpy as np

from .graphs import RouteGraph

CLASS_COLORS = {1: "#2c7bb6", 2: "#abd9e9", 3: "#ffffbf", 4: "#fdae61", 5: "#d7191c"}
CLASS_NAMES = {1: "V1 low", 2: "V2 mid-low", 3: "V3 uncertain",
               4: "V4 mid-high", 5: "V5 high"}
FONT = "font-family=\"Helvetica, Arial, sans-serif\""
TOP_K = 5  # cities per panel of the ranking chart


def _f(x: float) -> str:
    return f"{x:.2f}"


def _svg_open(width: int, height: int) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n')


def _title(text: str, x: float, y: float, size: int = 16) -> str:
    return (f'<text x="{_f(x)}" y="{_f(y)}" {FONT} font-size="{size}" '
            f'font-weight="bold" fill="#222222">{text}</text>\n')


def _legend(present: list[int], x: float, y: float) -> str:
    parts = []
    for row, j in enumerate(present):
        cy = y + 22 * row
        parts.append(f'<rect x="{_f(x)}" y="{_f(cy)}" width="14" height="14" '
                     f'fill="{CLASS_COLORS[j]}" stroke="#555555"/>\n')
        parts.append(f'<text x="{_f(x + 20)}" y="{_f(cy + 12)}" {FONT} '
                     f'font-size="12" fill="#222222">{CLASS_NAMES[j]}</text>\n')
    return "".join(parts)


def render_map(graph: RouteGraph, labels_week: np.ndarray, week: int,
               hidden_ids: set[int] | None = None) -> str:
    """Lat/lon scatter for one week, colored by class, radius scaled to population."""
    width, height = 820, 520
    pad = 45.0
    plot_w, plot_h = width - 2 * pad - 140, height - 2 * pad
    hidden_ids = hidden_ids or set()

    lons = np.array([rec.lon for rec in graph.nodes])
    lats = np.array([rec.lat for rec in graph.nodes])
    span_x = max(float(lons.max() - lons.min()), 1e-6)
    span_y = max(float(lats.max() - lats.min()), 1e-6)
    pops = graph.populations
    max_pop = float(pops.max()) if len(pops) else 1.0

    svg = [_svg_open(width, height), _title(f"Node classes, week {week}", pad, 28)]
    present = sorted({int(v) for i, v in enumerate(labels_week)
                      if graph.nodes[i].node_id not in hidden_ids})
    for i, rec in enumerate(graph.nodes):
        if rec.node_id in hidden_ids:
            continue
        x = pad + (rec.lon - lons.min()) / span_x * plot_w
        y = pad + (lats.max() - rec.lat) / span_y * plot_h
        r = max(12.0 * rec.population / max_pop, 0.6)
        color = CLASS_COLORS[int(labels_week[i])]
        svg.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" fill="{color}" '
                   f'fill-opacity="0.85" stroke="#444444" stroke-width="0.4">'
                   f'<title>{rec.name}</title></circle>\n')
    svg.append(_legend(present, width - 165, pad + 10))
    svg.append("</svg>\n")
    return "".join(svg)


def render_slices(sigma: np.ndarray, slice_classes: np.ndarray) -> str:
    """Stacked class-share bars per week with the slice class marked on top."""
    weeks = sigma.shape[0]
    width, height = max(640, 24 * weeks + 220), 420
    pad = 50.0
    plot_w, plot_h = width - 2 * pad - 140, height - 2 * pad - 20
    bar_w = plot_w / weeks

    svg = [_svg_open(width, height), _title("Slice class distribution", pad, 28)]
    base_y = pad + 20 + plot_h
    svg.append(f'<line x1="{_f(pad)}" y1="{_f(base_y)}" x2="{_f(pad + plot_w)}" '
               f'y2="{_f(base_y)}" stroke="#333333"/>\n')
    for t in range(weeks):
        x = pad + t * bar_w
        y = base_y
        for j in range(5):
            h = sigma[t, j] * plot_h
            if h <= 0:
                continue
            y -= h
            svg.append(f'<rect x="{_f(x + 1)}" y="{_f(y)}" width="{_f(bar_w - 2)}" '
                       f'height="{_f(h)}" fill="{CLASS_COLORS[j + 1]}"/>\n')
        marker = int(slice_classes[t])
        svg.append(f'<circle cx="{_f(x + bar_w / 2)}" cy="{_f(pad + 8)}" r="5" '
                   f'fill="{CLASS_COLORS[marker]}" stroke="#333333" stroke-width="0.6">'
                   f'<title>week {t + 1}: V{marker}</title></circle>\n')
        if weeks <= 30 or (t + 1) % 5 == 0 or t == 0:
            svg.append(f'<text x="{_f(x + bar_w / 2)}" y="{_f(base_y + 14)}" {FONT} '
                       f'font-size="9" text-anchor="middle" fill="#222222">{t + 1}</text>\n')
    svg.append(_legend([1, 2, 3, 4, 5], width - 155, pad + 20))
    svg.append("</svg>\n")
    return "".join(svg)


def render_ranking(graph: RouteGraph, a_bar: np.ndarray, least: np.ndarray,
                   most: np.ndarray) -> str:
    """Horizontal bars: top-k least successful (red) and most successful (blue)."""
    k = min(TOP_K, graph.n)
    width, height = 720, 120 + 26 * 2 * k
    pad = 50.0
    bar_max = width - 330.0
    top = float(a_bar.max()) if graph.n else 1.0
    scale = bar_max / max(top, 1e-12)

    svg = [_svg_open(width, height),
           _title(f"Average anomaly score: top {k} each way", pad, 28)]
    y = 56.0
    for ranks, title, title_color, bar_color in (
            (least, "Least successful", "#882222", "#d7191c"),
            (most, "Most successful", "#224488", "#2c7bb6")):
        svg.append(f'<text x="{_f(pad)}" y="{_f(y)}" {FONT} font-size="13" '
                   f'fill="{title_color}">{title}</text>\n')
        y += 10
        for i in np.argsort(ranks)[:k]:
            rec = graph.nodes[int(i)]
            svg.append(f'<rect x="{_f(pad + 180)}" y="{_f(y)}" '
                       f'width="{_f(max(a_bar[i] * scale, 0.5))}" height="16" '
                       f'fill="{bar_color}"/>\n')
            svg.append(f'<text x="{_f(pad + 172)}" y="{_f(y + 13)}" {FONT} font-size="12" '
                       f'text-anchor="end" fill="#222222">{rec.name}</text>\n')
            svg.append(f'<text x="{_f(pad + 186 + a_bar[i] * scale)}" y="{_f(y + 13)}" {FONT} '
                       f'font-size="11" fill="#222222">{a_bar[i]:.3f}</text>\n')
            y += 26
        y += 18
    svg.append("</svg>\n")
    return "".join(svg)

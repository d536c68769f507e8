"""Minimal self-contained SVG line charts.

String templating only, no plotting dependency, so the output bytes are a
pure function of the data (reproducibility requirement for the figure
subcommand).
"""

from __future__ import annotations

from collections.abc import Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 30, 55
N_TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (N_TICKS - 1)
    return [lo + i * step for i in range(N_TICKS)]


def _span(values: Sequence[float]) -> tuple[float, float]:
    """The least and greatest value; equal values span that value +- 0.5."""
    lo, hi = min(values), max(values)
    return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def _text(x, y, anchor: str, size: int, body: str, extra: str = "") -> str:
    # xml.sax.saxutils.escape's three replacements; importing it imports urllib.request.
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def line_chart(
    points: Sequence[tuple[float, float]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render (x, y) points as a single polyline with axes and tick labels.

    A polyline needs at least 2 points (ValueError otherwise): one point
    would draw no curve at all. An axis whose values are all equal spans
    that value +- 0.5.
    """
    if len(points) < 2:
        raise ValueError(f"line_chart needs at least 2 points, got {len(points)}")
    (x_lo, x_hi), (y_lo, y_hi) = map(_span, zip(*points))

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    axis_y = MARGIN_TOP + plot_h
    mid_y = f"{MARGIN_TOP + plot_h / 2:.1f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.1f}", 18, "middle", 14, title),
        _line(MARGIN_LEFT, axis_y, MARGIN_LEFT + plot_w, axis_y),
        _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, axis_y),
    ]
    for t in _ticks(x_lo, x_hi):
        x = f"{px(t):.2f}"
        parts += [_line(x, axis_y, x, axis_y + 5), _text(x, axis_y + 20, "middle", 11, _fmt(t))]
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts += [_line(MARGIN_LEFT - 5, f"{y:.2f}", MARGIN_LEFT, f"{y:.2f}"),
                  _text(MARGIN_LEFT - 8, f"{y + 4:.2f}", "end", 11, _fmt(t))]
    parts += [
        _text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 12, "middle", 13, x_label),
        _text(16, mid_y, "middle", 13, y_label, f' transform="rotate(-90 16 {mid_y})"'),
    ]
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

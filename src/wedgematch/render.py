"""Arc-diagram and lattice-path pictures, as plain text or SVG.

Output is deterministic for a given object, target, and format version.
ASCII pictures use only printable characters; SVG output is well-formed
SVG 1.1 with the format version embedded as a comment.
"""

from __future__ import annotations

from typing import Union

from .matching import Matching
from .paths import WedgePath

__all__ = ["SVG_FORMAT_VERSION", "render_ascii", "render_svg"]

SVG_FORMAT_VERSION = "wedgematch-svg/1"

Renderable = Union[Matching, WedgePath]


def render_ascii(obj: Renderable) -> str:
    if isinstance(obj, Matching):
        return _matching_ascii(obj)
    return _path_ascii(obj)


def render_svg(obj: Renderable) -> str:
    if isinstance(obj, Matching):
        return _matching_svg(obj)
    return _path_svg(obj)


# -- ASCII ---------------------------------------------------------------------


def _arc_levels(m: Matching) -> dict[tuple[int, int], int]:
    """Stack heights: narrow arcs low, anything with an overlapping span higher."""
    levels: dict[tuple[int, int], int] = {}
    for edge in sorted(m.edges, key=lambda e: (e.right - e.left, e.left)):
        clash = [
            lv
            for (a, b), lv in levels.items()
            if not (b < edge.left or edge.right < a)
        ]
        levels[edge] = max(clash, default=0) + 1
    return levels


def _matching_ascii(m: Matching) -> str:
    if m.n == 0:
        return "(empty matching)\n"
    size = 2 * m.n
    stride = len(str(size)) + 1
    col = lambda v: (v - 1) * stride
    levels = _arc_levels(m)
    height = max(levels.values())
    grid = [[" "] * (col(size) + len(str(size))) for _ in range(height)]

    def put(row: int, column: int, ch: str) -> None:
        cur = grid[row][column]
        if ch == "+" or cur == " ":
            grid[row][column] = ch
        elif {cur, ch} == {"-", "|"}:
            grid[row][column] = "+"

    for (a, b), level in levels.items():
        row = height - level
        put(row, col(a), "+")
        put(row, col(b), "+")
        for c in range(col(a) + 1, col(b)):
            put(row, c, "-")
        for r in range(row + 1, height):
            put(r, col(a), "|")
            put(r, col(b), "|")

    labels = [" "] * (col(size) + len(str(size)))
    for v in range(1, size + 1):
        for i, ch in enumerate(str(v)):
            labels[col(v) + i] = ch
    lines = ["".join(row).rstrip() for row in grid] + ["".join(labels).rstrip()]
    return "\n".join(lines) + "\n"


def _path_ascii(path: WedgePath) -> str:
    pts = path.points()
    n = path.n
    y_max = max(y for _, y in pts)
    y_min = -n
    rows = 2 * (y_max - y_min) + 1
    cols = 2 * n + 1
    grid = [[" "] * cols for _ in range(rows)]
    row = lambda y: 2 * (y_max - y)

    # wedge guides first so the path overwrites them
    for x in range(n + 1):
        if y_min <= x <= y_max:
            grid[row(x)][2 * x] = "/"
        if y_min <= -x <= y_max:
            grid[row(-x)][2 * x] = "\\"

    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 > x0:
            grid[row(y0)][2 * x0 + 1] = "-"
        else:
            grid[row(max(y0, y1)) + 1][2 * x0] = "|"
    for x, y in pts:
        grid[row(y)][2 * x] = "+"

    lines = ["".join(r).rstrip() for r in grid]
    return "\n".join(lines) + "\n"


# -- SVG -----------------------------------------------------------------------

_SVG_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    "<!-- {version} -->\n"
)

_UNIT = 30


def _matching_svg(m: Matching) -> str:
    size = 2 * m.n
    arcs = [(a, b) for a, b in enumerate(m.partner, start=1) if a < b]
    max_radius = max(((b - a) * _UNIT / 2 for a, b in arcs), default=_UNIT)
    width = (size + 1) * _UNIT
    base = max_radius + 1.5 * _UNIT
    height = base + 2 * _UNIT
    parts = [_SVG_HEADER.format(w=int(width), h=int(height), version=SVG_FORMAT_VERSION)]
    parts.append(
        f'<line x1="{_UNIT / 2}" y1="{base}" x2="{width - _UNIT / 2}" y2="{base}" '
        'stroke="#999" stroke-width="1"/>\n'
    )
    for a, b in arcs:
        x1, x2 = a * _UNIT, b * _UNIT
        radius = (x2 - x1) / 2
        parts.append(
            f'<path d="M {x1} {base} A {radius} {radius} 0 0 1 {x2} {base}" '
            'fill="none" stroke="#1f4e9c" stroke-width="2"/>\n'
        )
    for v in range(1, size + 1):
        x = v * _UNIT
        parts.append(f'<circle cx="{x}" cy="{base}" r="3" fill="#000"/>\n')
        parts.append(
            f'<text x="{x}" y="{base + _UNIT * 0.8}" font-size="12" '
            f'text-anchor="middle">{v}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _path_svg(path: WedgePath) -> str:
    pts = path.points()
    n = path.n
    y_max = max(max(y for _, y in pts), 0)
    margin = _UNIT
    width = n * _UNIT + 2 * margin
    height = (y_max + n) * _UNIT + 2 * margin
    sx = lambda x: x * _UNIT + margin
    sy = lambda y: (y_max - y) * _UNIT + margin
    parts = [_SVG_HEADER.format(w=int(width), h=int(height), version=SVG_FORMAT_VERSION)]
    for slope in (1, -1):
        parts.append(
            f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(n)}" y2="{sy(slope * n)}" '
            'stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>\n'
        )
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        parts.append(
            f'<line x1="{sx(x0)}" y1="{sy(y0)}" x2="{sx(x1)}" y2="{sy(y1)}" '
            'stroke="#1f4e9c" stroke-width="2" class="step"/>\n'
        )
    parts.append(f'<circle cx="{sx(0)}" cy="{sy(0)}" r="3" fill="#000"/>\n')
    parts.append(
        f'<circle cx="{sx(n)}" cy="{sy(-n)}" r="3" fill="#b22"/>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)

"""SVG rendering of an episode trace on its grid.

Cells are drawn with their E/O/A glyphs, applied movements become arrows
between cell centers, and every TAKE adds a star at the cell where it was
issued. Output bytes are a pure function of (trace, grid).
"""

from __future__ import annotations

from .env import MOVE_DELTAS, Action, Effect, destination, replay
from .generate import GRID_SIZE, Grid

CELL = 40
MARGIN = 24

_STAR = "12,2 14.8,8.2 21.5,9 16.5,13.5 18,20 12,16.5 6,20 7.5,13.5 2.5,9 9.2,8.2"


def export_trace_svg(trace: dict, grid: Grid) -> str:
    """Render one persisted trace record to an SVG document string.

    Raises ValueError when the trace does not replay on the given grid.
    """
    result = replay(trace, grid)

    side = GRID_SIZE * CELL + 2 * MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        "<defs>",
        '<marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#1f6fd6"/></marker>',
        f'<polygon id="take-star" points="{_STAR}" fill="#f5b700" stroke="#b38600" '
        'stroke-width="0.7"/>',
        "</defs>",
        f'<rect width="{side}" height="{side}" fill="white"/>',
    ]
    for i in range(GRID_SIZE):
        for j in range(GRID_SIZE):
            x = MARGIN + j * CELL
            y = MARGIN + i * CELL
            fill = "#d9d9d9" if grid.obstacles[i][j] else "white"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#888"/>'
            )
            symbol = grid.symbol(i, j)
            if symbol != " ":
                parts.append(
                    f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + 5}" '
                    f'font-family="monospace" font-size="16" '
                    f'text-anchor="middle">{symbol}</text>'
                )
    # Walk the agent's cell through the trace: an arrow per applied move,
    # and the cell of every TAKE for the stars drawn over them.
    (r0, c0), takes = grid.start, []
    for action, effect in result.trace:
        if action is Action.TAKE:
            takes.append((r0, c0))
        if action not in MOVE_DELTAS or effect is not Effect.APPLIED:
            continue
        r1, c1 = destination(grid, (r0, c0), action)
        x0 = MARGIN + c0 * CELL + CELL // 2
        y0 = MARGIN + r0 * CELL + CELL // 2
        x1 = MARGIN + c1 * CELL + CELL // 2
        y1 = MARGIN + r1 * CELL + CELL // 2
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#1f6fd6" '
            'stroke-width="2" marker-end="url(#arrow)"/>'
        )
        r0, c0 = r1, c1
    for idx, (row, col) in enumerate(takes):
        x = MARGIN + col * CELL + CELL - 20
        y = MARGIN + row * CELL - 2 + (idx % 3)
        parts.append(f'<use href="#take-star" x="{x}" y="{y}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

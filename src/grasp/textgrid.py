"""Text form of a grid: coordinate header, dashed separators, one-char cells.

The layout is fixed at 24 lines of 47 characters each:

    header            "    0   1   2  ...  9   10 "  (trailing space kept)
    11 x (separator + row)
    final separator

Cells render " c |" with c one of " ", "E", "O", "A"; the start cell always
shows "A" and a cell holding more than one unit still shows "E".
"""

from __future__ import annotations

from .generate import GRID_SIZE, Grid

SEPARATOR = "  +" + "---+" * GRID_SIZE
HEADER = "  " + "".join(f"  {j} " for j in range(10)) + "  10 "


def render(grid: Grid) -> str:
    """Render a grid to its canonical text, newline-terminated."""
    lines = [HEADER]
    for i in range(GRID_SIZE):
        lines.append(SEPARATOR)
        cells = "".join(f" {grid.symbol(i, j)} |" for j in range(GRID_SIZE))
        lines.append(f"{i:>2}|{cells}")
    lines.append(SEPARATOR)
    return "\n".join(lines) + "\n"

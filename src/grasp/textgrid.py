"""Text form of a grid: coordinate header, dashed separators, one-char cells.

The layout is fixed at 24 lines of 47 characters each:

    header            "    0   1   2  ...  9   10 "  (trailing space kept)
    11 x (separator + row)
    final separator

Cells render " c |" with c one of " ", "E", "O", "A"; the start cell always
shows "A" and a cell holding more than one unit still shows "E". ``parse`` is
the exact inverse on cell content and reports errors with 1-based line
numbers.
"""

from __future__ import annotations

from .generate import GRID_SIZE, Grid

SEPARATOR = "  +" + "---+" * GRID_SIZE
HEADER = "  " + "".join(f"  {j} " for j in range(10)) + "  10 "
CELL_SYMBOLS = (" ", "E", "O", "A")


class GridParseError(ValueError):
    """Malformed grid text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def render(grid: Grid) -> str:
    """Render a grid to its canonical text, newline-terminated."""
    lines = [HEADER]
    for i in range(GRID_SIZE):
        lines.append(SEPARATOR)
        cells = "".join(f" {grid.symbol(i, j)} |" for j in range(GRID_SIZE))
        lines.append(f"{i:>2}|{cells}")
    lines.append(SEPARATOR)
    return "\n".join(lines) + "\n"


def parse(text: str) -> Grid:
    """Parse canonical grid text back into cells and the start position.

    Generation metadata is not recoverable; the returned grid has no spec.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) != 2 + 2 * GRID_SIZE:
        raise GridParseError(len(lines), f"expected {2 + 2 * GRID_SIZE} lines, got {len(lines)}")
    if lines[0] != HEADER:
        raise GridParseError(1, "malformed header")

    energy = [[0] * GRID_SIZE for _ in range(GRID_SIZE)]
    obstacles = [[False] * GRID_SIZE for _ in range(GRID_SIZE)]
    start = None
    for i in range(GRID_SIZE):
        sep_no = 2 + 2 * i
        row_no = sep_no + 1
        if lines[sep_no - 1] != SEPARATOR:
            raise GridParseError(sep_no, "malformed separator")
        row = lines[row_no - 1]
        prefix = f"{i:>2}|"
        if not row.startswith(prefix):
            raise GridParseError(row_no, f"row must begin with {prefix!r}")
        body = row[len(prefix):]
        if len(body) != 4 * GRID_SIZE or any(
            body[4 * j] != " " or body[4 * j + 2] != " " or body[4 * j + 3] != "|"
            for j in range(GRID_SIZE)
        ):
            raise GridParseError(row_no, f"row must hold {GRID_SIZE} cells shaped ' c |'")
        for j in range(GRID_SIZE):
            symbol = body[4 * j + 1]
            if symbol not in CELL_SYMBOLS:
                raise GridParseError(row_no, f"unknown cell symbol {symbol!r}")
            if symbol == "E":
                energy[i][j] = 1
            elif symbol == "O":
                obstacles[i][j] = True
            elif symbol == "A":
                if start is not None:
                    raise GridParseError(row_no, "more than one start cell")
                start = (i, j)
    if lines[-1] != SEPARATOR:
        raise GridParseError(len(lines), "malformed final separator")
    if start is None:
        raise GridParseError(len(lines), "no start cell")
    return Grid(energy=energy, obstacles=obstacles, start=start, spec=None)

"""Shared helpers: fixture loading, hand-built grids, independent oracles."""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

from grasp.env import MAX_STEPS, MOVE_DELTAS, Action
from grasp.generate import GRID_SIZE, Grid

FIXTURES = Path(__file__).parent / "fixtures"


# perfbench's reference, which shares no code with grasp, loaded by path:
# putting perfbench/ on sys.path would let its modules shadow others.
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).parent.parent / "perfbench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def fixture_text(*parts: str) -> str:
    return FIXTURES.joinpath(*parts).read_text(encoding="utf-8")


def make_grid(
    start=(5, 5),
    energy=(),
    obstacles=(),
) -> Grid:
    """Small hand-specified grid; energy may be (r, c) or (r, c, units)."""
    e = [[0] * GRID_SIZE for _ in range(GRID_SIZE)]
    o = [[False] * GRID_SIZE for _ in range(GRID_SIZE)]
    for item in energy:
        if len(item) == 3:
            r, c, units = item
        else:
            (r, c), units = item, 1
        e[r][c] = units
    for r, c in obstacles:
        o[r][c] = True
    return Grid(energy=e, obstacles=o, start=tuple(start), spec=None)


def grid_from_text(text: str) -> Grid:
    """A grid read from its text form by the oracle's parser."""
    ref = oracle.parse_grid_text(text)
    return make_grid(start=ref.start, energy=ref.energy, obstacles=ref.obstacles)


def shortest_distances(grid: Grid, start, moves) -> list[list[float]]:
    """Brute-force shortest path lengths by iterative relaxation.

    Deliberately not a queue-based search so it can stand as an independent
    oracle for the agents' BFS.
    """
    dist = [[math.inf] * GRID_SIZE for _ in range(GRID_SIZE)]
    dist[start[0]][start[1]] = 0.0
    changed = True
    while changed:
        changed = False
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                here = dist[r][c]
                if here == math.inf:
                    continue
                for move in moves:
                    dr, dc = MOVE_DELTAS[move]
                    nr, nc = r + dr, c + dc
                    if (
                        0 <= nr < GRID_SIZE
                        and 0 <= nc < GRID_SIZE
                        and not grid.obstacles[nr][nc]
                        and here + 1 < dist[nr][nc]
                    ):
                        dist[nr][nc] = here + 1
                        changed = True
    return dist


def nearest_energy_distance(grid: Grid, belief, start, moves) -> float:
    dist = shortest_distances(grid, start, moves)
    best = math.inf
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            if belief[r][c] >= 1:
                best = min(best, dist[r][c])
    return best


def reference_greedy_plan(grid: Grid, moves, rng: random.Random) -> list[Action]:
    """Brute-force reference for the documented greedy agent.

    Fetch the nearest believed energy (ties drawn with ``rng``) while its
    path, the TAKE, the retrace of every movement so far plus the path and
    the final DROP fit the step budget; then retrace and DROP. Built only on
    ``shortest_distances`` and ``MOVE_DELTAS``: each path is walked back from
    its target over the distance field, and the retrace negates each move's
    delta. The plan ignores the carry limit and the step cost, so one plan
    serves all four constraint arms of a (grid, action set).
    """
    by_delta = {MOVE_DELTAS[m]: m for m in moves}
    belief = grid.copy_energy()
    pos = grid.start
    past: list[Action] = []
    plan: list[Action] = []
    while True:
        dist = shortest_distances(grid, pos, moves)
        reachable = [
            (r, c)
            for r in range(GRID_SIZE)
            for c in range(GRID_SIZE)
            if belief[r][c] >= 1 and dist[r][c] < math.inf
        ]
        best = min((dist[r][c] for r, c in reachable), default=math.inf)
        if best == math.inf or 2 * best + len(past) + 2 > MAX_STEPS - len(plan):
            break
        target = rng.choice([(r, c) for r, c in reachable if dist[r][c] == best])
        path: list[Action] = []
        node = target
        while node != pos:
            steps = []
            for move in moves:
                dr, dc = MOVE_DELTAS[move]
                r, c = node[0] - dr, node[1] - dc
                if (
                    0 <= r < GRID_SIZE
                    and 0 <= c < GRID_SIZE
                    and dist[r][c] == dist[node[0]][node[1]] - 1
                ):
                    steps.append((move, (r, c)))
            move, node = rng.choice(steps)
            path.append(move)
        path.reverse()
        plan += path + [Action.TAKE]
        past += path
        pos = target
        belief[pos[0]][pos[1]] -= 1
    for move in reversed(past):
        dr, dc = MOVE_DELTAS[move]
        plan.append(by_delta[(-dr, -dc)])
    plan.append(Action.DROP)
    return plan


class StubClient:
    """Test double returning canned text, optionally per-request."""

    def __init__(self, response="[]", responder=None):
        self.response = response
        self.responder = responder
        self.calls = []

    def complete(self, bundle) -> str:
        self.calls.append(bundle)
        if self.responder is not None:
            return self.responder(bundle)
        return self.response


# Response strings for the plan parser and the plans they must produce.
# Notes are checked separately where a vector expects them.
A = Action
PARSER_VECTORS = [
    ("[UP, TAKE, DOWN, DROP]", [A.UP, A.TAKE, A.DOWN, A.DROP]),
    ("Sure! Here is my plan: [right, take] hope that helps", [A.RIGHT, A.TAKE]),
    ("[UP, FLY, DOWN]", [A.UP, A.INVALID_TOKEN, A.DOWN]),
    ("I cannot help with that.", []),
    ("", []),
    ("[]", []),
    ("[   ]", []),
    ('["UP", "DOWN"]', [A.UP, A.DOWN]),
    ("['up', 'take']", [A.UP, A.TAKE]),
    ("[UP,\n DOWN,\n TAKE]", [A.UP, A.DOWN, A.TAKE]),
    ("First try [UP] no wait: [DOWN, DOWN]", [A.DOWN, A.DOWN]),
    ("[STEP, STEP, ...]", [A.INVALID_TOKEN] * 3),
    ("[Up, dOwN, LeFt, RiGhT]", [A.UP, A.DOWN, A.LEFT, A.RIGHT]),
    ("[UP, DOWN,]", [A.UP, A.DOWN, A.INVALID_TOKEN]),
    ("[UPLEFT, DOWNRIGHT, TAKE, DROP]", [A.UPLEFT, A.DOWNRIGHT, A.TAKE, A.DROP]),
    ("[MOVE UP, TAKE]", [A.INVALID_TOKEN, A.TAKE]),
    ("[[UP, DOWN]", [A.UP, A.DOWN]),
    ("  [ UP ,  TAKE ]  ", [A.UP, A.TAKE]),
    ("[up take]", [A.INVALID_TOKEN]),
    ("[->, UP]", [A.INVALID_TOKEN, A.UP]),
    ("UP, DOWN without any brackets", []),
    (
        "Reasoning: go right, grab it, come back.\nFinal: [RIGHT, TAKE, LEFT, DROP]",
        [A.RIGHT, A.TAKE, A.LEFT, A.DROP],
    ),
]

"""The episode loop: actions, constraints, scoring.

Every submitted action consumes one step and incurs the step cost, whether
or not it changes anything; an action that cannot change the environment
(blocked move, TAKE on an empty cell or at the carry limit, DROP with empty
hands, unresolvable token) is a no-op. The score is the energy sitting in
the start cell when the episode ends, minus the cost of all executed steps;
energy still carried counts for nothing. Cost bookkeeping is done in integer
tenths of a unit so the score decomposition is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .generate import GRID_SIZE, Grid

MAX_STEPS = 20


class Action(str, Enum):
    UP = "UP"
    DOWN = "DOWN"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    UPLEFT = "UPLEFT"
    UPRIGHT = "UPRIGHT"
    DOWNLEFT = "DOWNLEFT"
    DOWNRIGHT = "DOWNRIGHT"
    TAKE = "TAKE"
    DROP = "DROP"
    INVALID_TOKEN = "INVALID_TOKEN"


MOVE_DELTAS = {
    Action.UP: (-1, 0),
    Action.DOWN: (1, 0),
    Action.LEFT: (0, -1),
    Action.RIGHT: (0, 1),
    Action.UPLEFT: (-1, -1),
    Action.UPRIGHT: (-1, 1),
    Action.DOWNLEFT: (1, -1),
    Action.DOWNRIGHT: (1, 1),
}

# The rest of the move geometry follows from the deltas: a move's complement
# has the negated delta, and mu1 is the moves along one axis. The action
# sets keep this order, which the baselines index into.
_MOVE_AT = {delta: move for move, delta in MOVE_DELTAS.items()}
COMPLEMENTS = {move: _MOVE_AT[(-dr, -dc)] for move, (dr, dc) in MOVE_DELTAS.items()}
MU1 = tuple(move for move, (dr, dc) in MOVE_DELTAS.items() if not (dr and dc))
MU2 = tuple(MOVE_DELTAS)


def destination(grid: Grid, pos: tuple[int, int], move: Action) -> tuple[int, int] | None:
    """The cell a move leads to from ``pos``, or None when that cell is off
    the grid or an obstacle: the one rule for whether a move applies."""
    dr, dc = MOVE_DELTAS[move]
    row, col = pos[0] + dr, pos[1] + dc
    if 0 <= row < GRID_SIZE and 0 <= col < GRID_SIZE and not grid.obstacles[row][col]:
        return (row, col)
    return None


class ActionSet(str, Enum):
    MU1 = "mu1"
    MU2 = "mu2"

    @property
    def moves(self) -> tuple[Action, ...]:
        return MU1 if self is ActionSet.MU1 else MU2

    @property
    def number(self) -> int:
        """The paper's mu, 1 or 2: the digit of the value, as instance ids
        and record seeds write it (``ActionSet(f"mu{n}")`` reads it back)."""
        return int(self.value[2:])


class Effect(str, Enum):
    APPLIED = "applied"
    NOOP = "noop"


@dataclass(frozen=True)
class ConstraintSet:
    """Agent-side half of a benchmark instance."""

    action_set: ActionSet = ActionSet.MU1
    carry_limit: int | None = None  # None or 2
    step_cost: float = 0.0  # 0.0 or 0.3

    @property
    def cost_tenths(self) -> int:
        return round(self.step_cost * 10)

    def to_dict(self) -> dict:
        return {
            "action_set": self.action_set.value,
            "carry_limit": self.carry_limit,
            "step_cost": self.step_cost,
            "max_steps": MAX_STEPS,  # fixed; traces state it for their readers
        }


@dataclass
class EpisodeResult:
    length: int
    score_tenths: int
    energy_at_start: int
    final_pos: tuple[int, int]
    trace: list[tuple[Action, Effect]]
    energy: list[list[int]]  # the energy field as the episode left it
    carried: int  # units still carried, which score nothing

    @property
    def score(self) -> float:
        return self.score_tenths / 10


def run_episode(grid: Grid, constraints: ConstraintSet, plan: list[Action]) -> EpisodeResult:
    """Execute a plan, truncated to the step budget, and score it: the one
    implementation of the rules. The grid is never modified; the state after
    step k is ``run_episode(grid, constraints, plan[:k])``."""
    energy = grid.copy_energy()
    pos = grid.start
    carried = 0
    moves = constraints.action_set.moves
    limit = constraints.carry_limit
    trace: list[tuple[Action, Effect]] = []
    for action in plan[:MAX_STEPS]:
        effect = Effect.NOOP
        if action in moves and (target := destination(grid, pos, action)):
            pos, effect = target, Effect.APPLIED
        elif action is Action.TAKE:
            row, col = pos
            if energy[row][col] >= 1 and (limit is None or carried < limit):
                energy[row][col] -= 1
                carried += 1
                effect = Effect.APPLIED
        elif action is Action.DROP and carried:
            energy[pos[0]][pos[1]] += carried
            carried = 0
            effect = Effect.APPLIED
        trace.append((action, effect))
    row, col = grid.start
    return EpisodeResult(
        length=len(trace),
        score_tenths=10 * energy[row][col] - constraints.cost_tenths * len(trace),
        energy_at_start=energy[row][col],
        final_pos=pos,
        trace=trace,
        energy=energy,
        carried=carried,
    )


def replay(trace: dict, grid: Grid) -> EpisodeResult:
    """Re-run a persisted trace on a grid.

    Raises ValueError when any action's effect differs from the recorded one.
    """
    data = trace["constraints"]
    constraints = ConstraintSet(ActionSet(data["action_set"]), data["carry_limit"],
                                float(data["step_cost"]))
    result = run_episode(grid, constraints, [Action(action) for action in trace["actions"]])
    if [effect.value for _, effect in result.trace] != trace["effects"]:
        raise ValueError("trace does not replay on this grid")
    return result

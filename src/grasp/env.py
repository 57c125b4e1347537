"""Episode state machine: actions, constraints, scoring.

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


def complement(action: Action) -> Action:
    """The movement that exactly reverses the given one."""
    return COMPLEMENTS[action]


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


class BudgetExhausted(RuntimeError):
    """Raised when an action is submitted after the step budget is spent."""


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

    @classmethod
    def from_dict(cls, data: dict) -> "ConstraintSet":
        return cls(
            action_set=ActionSet(data["action_set"]),
            carry_limit=data["carry_limit"],
            step_cost=float(data["step_cost"]),
        )


@dataclass
class EpisodeResult:
    length: int
    score_tenths: int
    energy_at_start: int
    final_pos: tuple[int, int]
    trace: list[tuple[Action, Effect]]

    @property
    def score(self) -> float:
        return self.score_tenths / 10


class EpisodeState:
    """Mutable simulation state for one agent on one grid.

    Owns a private copy of the energy field; the grid itself is never
    modified. Drive it with ``step`` and read the outcome with ``result``.
    """

    def __init__(self, grid: Grid, constraints: ConstraintSet):
        self.grid = grid
        self.constraints = constraints
        self.energy = grid.copy_energy()
        self.agent_pos = grid.start
        self.carried = 0
        self.steps_executed = 0
        self.trace: list[tuple[Action, Effect]] = []

    @property
    def remaining(self) -> int:
        return MAX_STEPS - self.steps_executed

    def total_energy(self) -> int:
        """Cell energy plus carried units; conserved across every action."""
        return sum(sum(row) for row in self.energy) + self.carried

    def step(self, action: Action) -> Effect:
        """Execute one action, returning whether it changed the environment."""
        if self.remaining <= 0:
            raise BudgetExhausted(f"step budget of {MAX_STEPS} already spent")
        effect = self._apply(action)
        self.steps_executed += 1
        self.trace.append((action, effect))
        return effect

    def _apply(self, action: Action) -> Effect:
        if action in MOVE_DELTAS:
            if action not in self.constraints.action_set.moves:
                return Effect.NOOP
            target = destination(self.grid, self.agent_pos, action)
            if target is None:
                return Effect.NOOP
            self.agent_pos = target
            return Effect.APPLIED
        if action is Action.TAKE:
            row, col = self.agent_pos
            limit = self.constraints.carry_limit
            if self.energy[row][col] < 1 or (limit is not None and self.carried >= limit):
                return Effect.NOOP
            self.energy[row][col] -= 1
            self.carried += 1
            return Effect.APPLIED
        if action is Action.DROP:
            if self.carried == 0:
                return Effect.NOOP
            row, col = self.agent_pos
            self.energy[row][col] += self.carried
            self.carried = 0
            return Effect.APPLIED
        return Effect.NOOP  # INVALID_TOKEN

    def result(self) -> EpisodeResult:
        row, col = self.grid.start
        energy_at_start = self.energy[row][col]
        score_tenths = (
            10 * energy_at_start
            - self.constraints.cost_tenths * self.steps_executed
        )
        return EpisodeResult(
            length=self.steps_executed,
            score_tenths=score_tenths,
            energy_at_start=energy_at_start,
            final_pos=self.agent_pos,
            trace=list(self.trace),
        )


def run_episode(grid: Grid, constraints: ConstraintSet, plan: list[Action]) -> EpisodeResult:
    """Execute a plan, truncated to the step budget, and score it."""
    state = EpisodeState(grid, constraints)
    for action in plan[:MAX_STEPS]:
        state.step(action)
    return state.result()


def replay(trace: dict, grid: Grid) -> EpisodeResult:
    """Re-run a persisted trace on a grid.

    Raises ValueError when any action's effect differs from the recorded one.
    """
    constraints = ConstraintSet.from_dict(trace["constraints"])
    result = run_episode(grid, constraints, [Action(action) for action in trace["actions"]])
    if [effect.value for _, effect in result.trace] != trace["effects"]:
        raise ValueError("trace does not replay on this grid")
    return result

"""The agents a run can name: the knowledge-free random walk and the
greedy searcher, listed in ``BASELINES``, and chat models as ``llm:<model>``.

Both agents decide without looking at the carry limit or the step cost,
so a given (grid, action set, seed) yields the same action sequence under
every constraint combination; the simulator applies the real rules when the
actions execute. The greedy agent additionally assumes each of its TAKEs
succeeded, planning over its own view of the remaining energy.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from .env import COMPLEMENTS, MAX_STEPS, Action, ActionSet, destination
from .generate import Grid
from .rng import Generator

WALK_TRIPS = 6  # move-and-take repetitions; 6*2 + 6 + 1 = 19 actions total


def random_walk_plan(
    action_set: ActionSet,
    rng: Generator,
    grid: Grid | None = None,
    resample_invalid: bool = False,
) -> list[Action]:
    """Fixed-shape 19-action plan: 6 moves each followed by TAKE, then the
    reversed complements, then DROP.

    With ``resample_invalid`` the moves are drawn only among those that would
    actually apply (in bounds, no obstacle) from the simulated position, which
    needs the grid; the default draws blindly, so boundary or obstacle no-ops
    can leave the return leg off target.
    """
    moves: list[Action] = []
    pos = None
    if resample_invalid:
        if grid is None:
            raise ValueError("resample_invalid needs the grid")
        pos = grid.start
    for _ in range(WALK_TRIPS):
        options = action_set.moves
        if resample_invalid:
            options = [m for m in options if destination(grid, pos, m)] or options
        move = options[int(rng.integers(0, len(options)))]
        if resample_invalid:
            pos = destination(grid, pos, move) or pos
        moves.append(move)
    plan: list[Action] = []
    for move in moves:
        plan.append(move)
        plan.append(Action.TAKE)
    plan.extend(COMPLEMENTS[move] for move in reversed(moves))
    plan.append(Action.DROP)
    return plan


def greedy_plan_step(
    grid: Grid,
    belief_energy: list[list[int]],
    agent_pos: tuple[int, int],
    remaining: int,
    action_set: ActionSet,
    rng: Generator,
    past_actions: list[Action],
) -> list[Action] | None:
    """One greedy decision: a move path to the nearest believed energy cell,
    or None to retreat.

    Breadth-first search from the agent's position over in-bounds,
    obstacle-free cells, expanding neighbors in an order freshly randomized
    per node. A found target is only worth visiting if its path, the TAKE,
    the retrace of all movements so far plus the path, and the final DROP all
    fit in the remaining budget; otherwise, or when no energy is reachable,
    the decision is to retreat.
    """
    queue = deque([agent_pos])
    visited = {agent_pos}
    parents: dict[tuple[int, int], tuple[tuple[int, int], Action]] = {}
    target = None
    while queue:
        current = queue.popleft()
        if belief_energy[current[0]][current[1]] >= 1:
            target = current
            break
        moves = action_set.moves
        for idx in rng.permutation(len(moves)):
            action = moves[int(idx)]
            neighbor = destination(grid, current, action)
            if neighbor is None or neighbor in visited:
                continue
            visited.add(neighbor)
            parents[neighbor] = (current, action)
            queue.append(neighbor)
    if target is None:
        return None
    path: list[Action] = []
    node = target
    while node != agent_pos:
        node, action = parents[node]
        path.append(action)
    path.reverse()
    needed = len(path) + 1 + (len(past_actions) + len(path)) + 1
    if needed > remaining:
        return None
    return path


def greedy_plan(grid: Grid, action_set: ActionSet, rng: Generator) -> list[Action]:
    """The greedy agent's whole plan: fetch trips while the step budget
    allows, then retrace every movement and DROP at the start cell.

    Planned paths only cross free in-bounds cells, so every move applies and
    the agent's position and remaining budget follow from the plan alone."""
    belief = grid.copy_energy()
    pos = grid.start
    plan: list[Action] = []
    past: list[Action] = []
    while True:
        path = greedy_plan_step(
            grid, belief, pos, MAX_STEPS - len(plan), action_set, rng, past
        )
        if path is None:
            plan.extend(COMPLEMENTS[action] for action in reversed(past))
            plan.append(Action.DROP)
            return plan
        for action in path:
            pos = destination(grid, pos, action)
        plan.extend(path)
        plan.append(Action.TAKE)
        past.extend(path)
        belief[pos[0]][pos[1]] -= 1


class Baseline(NamedTuple):
    """A baseline agent: ``plan(grid, action_set, rng, resample_invalid)`` is
    its whole plan, which every carry limit and step cost shares."""

    plan: Callable[[Grid, ActionSet, Generator, bool], list[Action]]
    reads_resample_invalid: bool


BASELINES = {
    "random-walk": Baseline(
        lambda grid, moves, rng, resample: random_walk_plan(moves, rng, grid, resample), True
    ),
    "greedy": Baseline(lambda grid, moves, rng, _: greedy_plan(grid, moves, rng), False),
}
AGENT_SPECS = " | ".join([*BASELINES, "llm:<model>"])


def parse_agent(spec: str) -> str | None:
    """The model of an ``llm:<model>`` agent spec, or None for a name in
    ``BASELINES``; any other spec is refused."""
    if spec in BASELINES:
        return None
    if spec.startswith("llm:") and len(spec) > 4:
        return spec[4:]
    raise ValueError(f"unknown agent spec: {spec!r} (use {AGENT_SPECS})")

import math

import pytest

from conftest import make_grid, nearest_energy_distance
from grasp.agents import (
    greedy_plan,
    greedy_plan_step,
    greedy_run,
    random_walk_plan,
    run_baseline,
)
from grasp.env import (
    Action,
    ActionSet,
    ConstraintSet,
    Effect,
    EpisodeState,
    MOVE_DELTAS,
    complement,
    run_episode,
)
from grasp.generate import DistributionKind, StartMode, generate_grid
from grasp.rng import generator

FREE = ConstraintSet()


class ScriptedRng:
    """Stand-in generator returning scripted choice indexes."""

    def __init__(self, indexes):
        self.indexes = list(indexes)

    def integers(self, lo, hi):
        assert lo == 0
        value = self.indexes.pop(0)
        assert value < hi
        return value


@pytest.mark.parametrize("action_set", [ActionSet.MU1, ActionSet.MU2])
def test_random_walk_shape(action_set):
    for seed in range(30):
        plan = random_walk_plan(action_set, generator(seed))
        assert len(plan) == 19
        assert plan[-1] is Action.DROP
        takes = [i for i, a in enumerate(plan) if a is Action.TAKE]
        assert takes == [1, 3, 5, 7, 9, 11]
        moves = [plan[i] for i in (0, 2, 4, 6, 8, 10)]
        assert all(m in action_set.moves for m in moves)
        returns = plan[12:18]
        assert all(m in action_set.moves for m in returns)


def test_random_walk_complement_suffix():
    # forced moves UP,UP,LEFT,DOWN,RIGHT,RIGHT return LEFT,LEFT,UP,RIGHT,DOWN,DOWN
    rng = ScriptedRng([0, 0, 2, 1, 3, 3])
    plan = random_walk_plan(ActionSet.MU1, rng)
    assert plan[12:18] == [
        Action.LEFT, Action.LEFT, Action.UP, Action.RIGHT, Action.DOWN, Action.DOWN
    ]


def test_random_walk_returns_home_when_no_noops():
    grid = make_grid(start=(5, 5))
    home = not_home = 0
    for seed in range(100):
        plan = random_walk_plan(ActionSet.MU1, generator(seed))
        result = run_episode(grid, FREE, plan)
        move_noops = any(
            effect is Effect.NOOP
            for action, effect in result.trace
            if action in MOVE_DELTAS
        )
        if not move_noops:
            home += 1
            assert result.final_pos == grid.start
        else:
            not_home += 1
    assert home > 0  # the property must actually be exercised


def test_random_walk_resample_always_returns_home():
    grid = make_grid(start=(0, 0), obstacles=[(1, 1), (0, 3)])
    for seed in range(60):
        plan = random_walk_plan(
            ActionSet.MU2, generator(seed), grid=grid, resample_invalid=True
        )
        result = run_episode(grid, ConstraintSet(action_set=ActionSet.MU2), plan)
        assert result.final_pos == grid.start
        move_effects = [e for a, e in result.trace if a in MOVE_DELTAS]
        assert all(e is Effect.APPLIED for e in move_effects)


def test_random_walk_resample_needs_grid():
    with pytest.raises(ValueError):
        random_walk_plan(ActionSet.MU1, generator(0), resample_invalid=True)


def test_random_walk_is_grid_independent_by_default():
    plans = {
        seed: random_walk_plan(ActionSet.MU1, generator(seed)) for seed in range(5)
    }
    again = {
        seed: random_walk_plan(ActionSet.MU1, generator(seed)) for seed in range(5)
    }
    assert plans == again


def test_greedy_takes_energy_in_current_cell():
    grid = make_grid(start=(5, 5))
    belief = grid.copy_energy()
    belief[5][5] = 1
    path = greedy_plan_step(grid, belief, (5, 5), 20, ActionSet.MU1, generator(0), [])
    assert path == []


def test_greedy_unique_shortest_path():
    grid = make_grid(start=(5, 5), energy=[(5, 7)])
    path = greedy_plan_step(
        grid, grid.copy_energy(), (5, 5), 20, ActionSet.MU1, generator(0), []
    )
    assert path == [Action.RIGHT, Action.RIGHT]


def test_greedy_budget_forces_retreat():
    # 2 to get there + 1 take + 6 retrace + 1 drop = 10 > 3 remaining
    grid = make_grid(start=(5, 5), energy=[(5, 7)])
    past = [Action.UP, Action.UP, Action.LEFT, Action.LEFT]
    path = greedy_plan_step(
        grid, grid.copy_energy(), (5, 5), 3, ActionSet.MU1, generator(0), past
    )
    assert path is None


def test_greedy_retreats_when_no_energy():
    grid = make_grid(start=(5, 5))
    path = greedy_plan_step(
        grid, grid.copy_energy(), (5, 5), 20, ActionSet.MU1, generator(0), []
    )
    assert path is None


def test_greedy_unreachable_energy_is_retreat():
    walls = [(4, 4), (4, 5), (4, 6), (5, 4), (5, 6), (6, 4), (6, 5), (6, 6)]
    grid = make_grid(start=(5, 5), energy=[(0, 0)], obstacles=walls)
    path = greedy_plan_step(
        grid, grid.copy_energy(), (5, 5), 20, ActionSet.MU1, generator(0), []
    )
    assert path is None


def test_greedy_empty_grid_plans_single_drop():
    grid = make_grid(start=(5, 5))
    result = greedy_run(grid, FREE, generator(0))
    assert [a for a, _ in result.trace] == [Action.DROP]
    assert result.length == 1
    assert result.score == 0.0
    costly = greedy_run(grid, ConstraintSet(step_cost=0.3), generator(0))
    assert costly.score == pytest.approx(-0.3)


def test_greedy_path_length_matches_oracle():
    for seed in range(100):
        kind = list(DistributionKind)[seed % 5]
        grid = generate_grid(kind, seed % 2 == 0, StartMode.OUTER, 0, seed)
        for action_set in (ActionSet.MU1, ActionSet.MU2):
            belief = grid.copy_energy()
            path = greedy_plan_step(
                grid, belief, grid.start, 20, action_set, generator(seed), []
            )
            best = nearest_energy_distance(grid, belief, grid.start, action_set.moves)
            if path is None:
                assert math.isinf(best) or 2 * best + 2 > 20
            else:
                assert len(path) == best
                # the path must be walkable and end on believed energy
                pos = grid.start
                for action in path:
                    dr, dc = MOVE_DELTAS[action]
                    pos = (pos[0] + dr, pos[1] + dc)
                    assert grid.in_bounds(*pos)
                    assert not grid.obstacles[pos[0]][pos[1]]
                assert belief[pos[0]][pos[1]] >= 1


def test_greedy_episode_invariants():
    for seed in range(120):
        kind = list(DistributionKind)[seed % 5]
        grid = generate_grid(kind, seed % 3 == 0, StartMode.INNER, 0, seed)
        constraints = ConstraintSet(
            action_set=ActionSet.MU2 if seed % 2 else ActionSet.MU1,
            carry_limit=2 if seed % 4 == 0 else None,
            step_cost=0.3 if seed % 4 == 1 else 0.0,
        )
        result = greedy_run(grid, constraints, generator(seed))
        assert result.length <= 20
        assert result.final_pos == grid.start
        assert result.trace[-1][0] is Action.DROP
        move_effects = [e for a, e in result.trace if a in MOVE_DELTAS]
        assert all(e is Effect.APPLIED for e in move_effects)
        if constraints.carry_limit is None:
            take_effects = [e for a, e in result.trace if a is Action.TAKE]
            assert all(e is Effect.APPLIED for e in take_effects)


def test_greedy_plan_independent_of_limit_and_cost():
    grid = generate_grid(DistributionKind.RANDOM, True, StartMode.INNER, 0, 50)
    baseline = greedy_run(grid, FREE, generator(11))
    for constraints in (
        ConstraintSet(carry_limit=2),
        ConstraintSet(step_cost=0.3),
        ConstraintSet(carry_limit=2, step_cost=0.3),
    ):
        other = greedy_run(grid, constraints, generator(11))
        assert [a for a, _ in other.trace] == [a for a, _ in baseline.trace]


def _live_greedy(grid, constraints, rng):
    """The greedy agent stepped live: each decision reads the position and
    remaining budget of the running episode, under the real constraints."""
    state = EpisodeState(grid, constraints)
    belief = grid.copy_energy()
    past = []
    while True:
        path = greedy_plan_step(
            grid, belief, state.agent_pos, state.remaining,
            constraints.action_set, rng, past,
        )
        if path is None:
            for action in reversed(past):
                state.step(complement(action))
            state.step(Action.DROP)
            return state.result()
        for action in path:
            state.step(action)
            past.append(action)
        state.step(Action.TAKE)
        row, col = state.agent_pos
        belief[row][col] -= 1


def test_greedy_plan_matches_live_stepping_under_every_arm():
    arms = [(limit, cost) for limit in (None, 2) for cost in (0.0, 0.3)]
    for seed in range(80):
        kind = list(DistributionKind)[seed % 5]
        start = StartMode.INNER if seed % 3 else StartMode.OUTER
        grid = generate_grid(kind, seed % 2 == 0, start, 0, seed)
        for action_set in (ActionSet.MU1, ActionSet.MU2):
            plan = greedy_plan(grid, action_set, generator(seed))
            for limit, cost in arms:
                constraints = ConstraintSet(action_set, carry_limit=limit, step_cost=cost)
                live = _live_greedy(grid, constraints, generator(seed))
                assert [action for action, _ in live.trace] == plan
                assert live == run_episode(grid, constraints, plan)


def test_run_baseline_deterministic():
    grid = generate_grid(DistributionKind.SPIRAL, True, StartMode.OUTER, 0, 8)
    for agent in ("random-walk", "greedy"):
        first = run_baseline(agent, grid, FREE, 123)
        second = run_baseline(agent, grid, FREE, 123)
        assert first.trace == second.trace
        assert first.score_tenths == second.score_tenths


def test_run_baseline_cost_delta_is_5_7():
    grid = generate_grid(DistributionKind.RANDOM, False, StartMode.INNER, 0, 21)
    free = run_baseline("random-walk", grid, FREE, 5)
    costly = run_baseline("random-walk", grid, ConstraintSet(step_cost=0.3), 5)
    assert free.score - costly.score == pytest.approx(5.7)


def test_run_baseline_unknown_agent():
    with pytest.raises(ValueError):
        run_baseline("astar", make_grid(), FREE, 0)

import random

import pytest

from conftest import held_energy, make_grid, oracle
from grasp.env import (
    COMPLEMENTS,
    MAX_STEPS,
    MOVE_DELTAS,
    MU1,
    MU2,
    Action,
    ActionSet,
    ConstraintSet,
    Effect,
    replay,
    run_episode,
)
from grasp.generate import build_benchmark
from grasp.textgrid import render

FREE = ConstraintSet()
COSTLY = ConstraintSet(step_cost=0.3)
LIMITED = ConstraintSet(carry_limit=2)

ALL_ACTIONS = list(Action)


def test_move_deltas():
    assert MOVE_DELTAS[Action.UP] == (-1, 0)
    assert MOVE_DELTAS[Action.DOWN] == (1, 0)
    assert MOVE_DELTAS[Action.LEFT] == (0, -1)
    assert MOVE_DELTAS[Action.RIGHT] == (0, 1)
    assert MOVE_DELTAS[Action.UPLEFT] == (-1, -1)
    assert MOVE_DELTAS[Action.DOWNRIGHT] == (1, 1)


def test_complement_involution():
    for action in MU2:
        assert COMPLEMENTS[COMPLEMENTS[action]] is action
    assert COMPLEMENTS[Action.UP] is Action.DOWN
    assert COMPLEMENTS[Action.LEFT] is Action.RIGHT
    assert COMPLEMENTS[Action.UPLEFT] is Action.DOWNRIGHT
    assert COMPLEMENTS[Action.UPRIGHT] is Action.DOWNLEFT


def test_action_sets():
    assert ActionSet.MU1.moves == MU1
    assert ActionSet.MU2.moves == MU2
    assert len(MU1) == 4 and len(MU2) == 8


def _last_effect(result):
    return result.trace[-1][1]


def test_up_from_7_4():
    result = run_episode(make_grid(start=(7, 4)), FREE, [Action.UP])
    assert _last_effect(result) is Effect.APPLIED
    assert result.final_pos == (6, 4)


def test_diagonal_noop_under_mu1():
    result = run_episode(make_grid(), ConstraintSet(action_set=ActionSet.MU1), [Action.UPLEFT])
    assert _last_effect(result) is Effect.NOOP
    assert result.final_pos == (5, 5)
    result = run_episode(make_grid(), ConstraintSet(action_set=ActionSet.MU2), [Action.UPLEFT])
    assert _last_effect(result) is Effect.APPLIED
    assert result.final_pos == (4, 4)


def test_boundary_blocks_and_counts():
    result = run_episode(make_grid(start=(0, 0)), FREE, [Action.UP])
    assert _last_effect(result) is Effect.NOOP
    assert result.final_pos == (0, 0)
    assert result.length == 1


def test_obstacle_blocks():
    mu2 = ConstraintSet(action_set=ActionSet.MU2)
    cases = [
        ([(5, 6)], FREE, Action.RIGHT, Effect.NOOP, (5, 5)),
        # only the target cell counts: a diagonal between two orthogonal
        # obstacles still applies
        ([(4, 5), (5, 4)], mu2, Action.UPLEFT, Effect.APPLIED, (4, 4)),
    ]
    for obstacles, constraints, action, effect, pos in cases:
        result = run_episode(make_grid(start=(5, 5), obstacles=obstacles), constraints, [action])
        assert _last_effect(result) is effect
        assert result.final_pos == pos


def test_take_drop_round_trip():
    # RIGHT, TAKE, LEFT, DROP with energy next door: one unit home in 4 steps
    grid = make_grid(start=(4, 4), energy=[(4, 5)])
    result = run_episode(grid, FREE, [Action.RIGHT, Action.TAKE, Action.LEFT, Action.DROP])
    assert result.length == 4
    assert result.score == 1.0
    assert result.energy_at_start == 1
    assert result.final_pos == (4, 4)
    assert [e for _, e in result.trace] == [Effect.APPLIED] * 4


def test_take_empty_cell_noop():
    result = run_episode(make_grid(), FREE, [Action.TAKE])
    assert _last_effect(result) is Effect.NOOP
    assert result.carried == 0


def test_take_at_carry_limit_noop():
    grid = make_grid(start=(5, 5), energy=[(5, 5, 3)])
    # the start cell normally holds nothing at generation; hand-built here
    plan = [Action.TAKE] * 3
    two = run_episode(grid, LIMITED, plan[:2])
    assert [effect for _, effect in two.trace] == [Effect.APPLIED] * 2
    assert two.carried == 2
    three = run_episode(grid, LIMITED, plan)
    assert _last_effect(three) is Effect.NOOP
    assert three.carried == 2
    assert three.energy[5][5] == 1


def test_drop_empty_hands_noop():
    assert _last_effect(run_episode(make_grid(), FREE, [Action.DROP])) is Effect.NOOP


def test_drop_accumulates_and_retake():
    grid = make_grid(start=(5, 5), energy=[(5, 6), (5, 4)])
    plan = [Action.RIGHT, Action.TAKE, Action.LEFT, Action.LEFT,
            Action.TAKE, Action.RIGHT, Action.DROP]
    dropped = run_episode(grid, FREE, plan)
    assert dropped.energy[5][5] == 2
    assert dropped.carried == 0
    retaken = run_episode(grid, FREE, plan + [Action.TAKE])
    assert _last_effect(retaken) is Effect.APPLIED
    assert retaken.energy[5][5] == 1


def test_invalid_token_noop_consumes_step():
    result = run_episode(make_grid(), COSTLY, [Action.INVALID_TOKEN])
    assert _last_effect(result) is Effect.NOOP
    assert result.length == 1
    assert result.score_tenths == -3


def test_cost_applies_to_every_action():
    # 19 actions at 0.3 each: score is energy at start minus 5.7 exactly
    grid = make_grid(start=(5, 5), energy=[(5, 6)])
    plan = [Action.RIGHT, Action.TAKE, Action.LEFT, Action.DROP] + [Action.UP] * 15
    result = run_episode(grid, COSTLY, plan)
    assert result.length == 19
    assert result.score_tenths == 10 * result.energy_at_start - 57
    assert result.score == pytest.approx(1 - 5.7)


def test_truncation_at_twenty():
    grid = make_grid(start=(5, 5), energy=[(5, 6)])
    plan = [Action.RIGHT, Action.LEFT] * 15
    full = run_episode(grid, FREE, plan)
    trimmed = run_episode(grid, FREE, plan[:20])
    assert full.length == 20
    assert full.trace == trimmed.trace
    assert full.score_tenths == trimmed.score_tenths


def test_empty_plan():
    result = run_episode(make_grid(), FREE, [])
    assert result.length == 0
    assert result.score == 0.0


def _random_setup(rng):
    cells = [(r, c) for r in range(11) for c in range(11)]
    start = rng.choice(cells)
    energy = [(r, c, rng.randint(1, 2)) for r, c in rng.sample(cells, rng.randint(0, 30))
              if (r, c) != start]
    obstacles = [p for p in rng.sample(cells, rng.randint(0, 12))
                 if p != start and all(p != (e[0], e[1]) for e in energy)]
    grid = make_grid(start=start, energy=energy, obstacles=obstacles)
    constraints = ConstraintSet(
        action_set=rng.choice([ActionSet.MU1, ActionSet.MU2]),
        carry_limit=rng.choice([None, 2]),
        step_cost=rng.choice([0.0, 0.3]),
    )
    plan = [rng.choice(ALL_ACTIONS) for _ in range(rng.randint(0, 28))]
    return grid, constraints, plan


def test_conservation_on_random_episodes():
    rng = random.Random(1234)
    for _ in range(300):
        grid, constraints, plan = _random_setup(rng)
        initial = held_energy(run_episode(grid, constraints, []))
        for k in range(1, min(len(plan), MAX_STEPS) + 1):
            assert held_energy(run_episode(grid, constraints, plan[:k])) == initial


def test_score_decomposition_exact_in_tenths():
    rng = random.Random(99)
    for _ in range(300):
        grid, constraints, plan = _random_setup(rng)
        result = run_episode(grid, constraints, plan)
        assert (
            result.score_tenths + constraints.cost_tenths * result.length
            == 10 * result.energy_at_start
        )


def test_applied_move_then_complement_restores():
    rng = random.Random(777)
    for _ in range(200):
        grid, constraints, _ = _random_setup(rng)
        move = rng.choice(list(constraints.action_set.moves))
        if _last_effect(run_episode(grid, constraints, [move])) is Effect.APPLIED:
            back = run_episode(grid, constraints, [move, COMPLEMENTS[move]])
            assert _last_effect(back) is Effect.APPLIED
            assert back.final_pos == grid.start


def test_conservation_includes_step_cost_as_bookkeeping():
    # cost reduces the score, not the physical energy in play
    grid = make_grid(start=(5, 5), energy=[(5, 6)])
    plan = [Action.RIGHT, Action.TAKE, Action.LEFT, Action.DROP]
    result = run_episode(grid, COSTLY, plan)
    assert held_energy(result) == held_energy(run_episode(grid, COSTLY, []))
    assert result.score_tenths == 10 - 12


def _trace(constraints, result):
    return {
        "constraints": constraints.to_dict(),
        "actions": [action.value for action, _ in result.trace],
        "effects": [effect.value for _, effect in result.trace],
    }


def test_replay_matches_the_episode():
    grid = make_grid(start=(5, 5), energy=[(5, 6)], obstacles=[(4, 5)])
    plan = [Action.UP, Action.RIGHT, Action.TAKE, Action.LEFT, Action.DROP]
    result = run_episode(grid, COSTLY, plan)
    assert replay(_trace(COSTLY, result), grid) == result


def test_replay_rejects_a_trace_from_another_grid():
    grid = make_grid(start=(5, 5), energy=[(5, 6)])
    trace = _trace(FREE, run_episode(grid, FREE, [Action.RIGHT, Action.TAKE]))
    with pytest.raises(ValueError, match="does not replay"):
        replay(trace, make_grid(start=(5, 5), obstacles=[(5, 6)]))
    trace["actions"] = trace["actions"] * 11  # longer than the step budget
    with pytest.raises(ValueError, match="does not replay"):
        replay(trace, grid)


def test_run_episode_agrees_with_the_oracle():
    """The simulator against perfbench's reference scorer, which shares no
    code with it: random plans, unknown tokens included, on generated grids
    under random action sets, carry limits and step costs."""
    by_name = {action.value: action for action in Action}
    tokens = [*oracle.MOVES, "TAKE", "DROP", "JUMP", "", "take"]
    grids = [(grid, oracle.parse_grid_text(render(grid))) for grid in build_benchmark(0, 5)]
    rng = random.Random(2024)
    for _ in range(10_000):
        grid, ref_grid = rng.choice(grids)
        mu, lim, cost = rng.choice("12"), rng.choice(["0", "2"]), rng.choice(["0", "0.3"])
        instance = oracle.Instance(f"{grid.spec.grid_id}/mu={mu}/lim={lim}/cost={cost}")
        constraints = ConstraintSet(ActionSet(f"mu{mu}"), 2 if lim == "2" else None, float(cost))
        plan = [rng.choice(tokens) for _ in range(rng.randint(0, 25))]
        got = run_episode(
            grid, constraints, [by_name.get(token, Action.INVALID_TOKEN) for token in plan]
        )
        want = oracle.play(ref_grid, instance, plan)
        assert (got.length, got.score_tenths, got.energy_at_start, got.final_pos) == (
            want.length, want.score_tenths, want.energy_at_start, want.final_pos
        ), (instance.text, plan)
        assert [effect.value for _, effect in got.trace] == want.effects, (instance.text, plan)

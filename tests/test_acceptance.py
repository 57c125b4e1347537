"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Statistical targets use the fixed tolerances stated with each
criterion; structural targets are exact.

The greedy energy checks for the 8-move action set (4d) and overall (4b) are
held to the brute-force reference greedy in ``conftest.py``, not to the
paper's figures (-1.07 and -0.14), which the documented agent cannot reach:
every greedy episode ends on its start cell, and each cost-arm score is the
free-arm score minus 0.3 x length. The paper's figures stay in the report
lines as not reproduced.
"""

import hashlib
import math
import random
from collections import defaultdict
from dataclasses import replace

import pytest

from conftest import (
    PARSER_VECTORS,
    fixture_text,
    grid_from_text,
    make_grid,
    nearest_energy_distance,
    reference_greedy_plan,
)
from grasp.agents import baseline_plan, greedy_plan_step
from grasp.env import (
    Action,
    ActionSet,
    ConstraintSet,
    EpisodeState,
    complement,
    run_episode,
)
from grasp.generate import (
    DistributionKind,
    StartMode,
    build_benchmark,
    generate_grid,
)
from grasp.llm import CassetteClient, build_prompt, parse_plan, write_cassette
from grasp.rng import generator
from grasp.runner import (
    Benchmark,
    enumerate_instances,
    load_records,
    record_seed,
    run_suite,
)
from grasp.textgrid import render

MASTER_SEED = 0
SUITE_SEED = 0
# The sha256 over the rendered text of all 2,000 seed-0 grids, in build order:
# the manifest hash of the full `gen`, and perfbench's seed-0 gen_content_hash.
FULL_SET_CONTENT_HASH = "6c184e29ad9a278944cc81cefa5d533eac038b4012eed03f20d896b13999cfcf"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def full_build():
    return build_benchmark(MASTER_SEED, per_combo=100)


@pytest.fixture(scope="module")
def subset_instances():
    return enumerate_instances(0, 9)


@pytest.fixture(scope="module")
def bench():
    return Benchmark.from_seed(MASTER_SEED)


@pytest.fixture(scope="module")
def random_walk_records(bench, subset_instances):
    records = []
    for instance in subset_instances:
        grid = bench.grid(instance)
        constraints = instance.constraints()
        for rep in range(5):
            seed = record_seed(SUITE_SEED, instance, rep)
            plan = baseline_plan("random-walk", grid, constraints.action_set, seed)
            result = run_episode(grid, constraints, plan)
            records.append((instance, rep, result))
    return records


@pytest.fixture(scope="module")
def greedy_records(bench, subset_instances):
    records = []
    for instance in subset_instances:
        grid = bench.grid(instance)
        seed = record_seed(SUITE_SEED, instance, 0)
        plan = baseline_plan("greedy", grid, instance.action_set, seed)
        result = run_episode(grid, instance.constraints(), plan)
        records.append((instance, result))
    return records


@pytest.fixture(scope="module")
def reference_greedy_records(bench, subset_instances):
    """(instance, score) of the conftest reference greedy on the subset: one
    plan per (grid, action set), scored under each constraint arm."""
    plans = {}
    records = []
    for instance in subset_instances:
        grid = bench.grid(instance)
        key = f"{grid.spec.grid_id}/{instance.action_set.value}"
        if key not in plans:
            plans[key] = reference_greedy_plan(
                grid, instance.action_set.moves, random.Random(key)
            )
        result = run_episode(grid, instance.constraints(), plans[key])
        records.append((instance, result.score))
    return records


def _mean(values):
    values = list(values)
    return math.fsum(values) / len(values)


# -- criterion 1: construction counts --------------------------------------

def test_criterion_1_construction_counts(full_build, subset_instances):
    builds = len(full_build)
    ids = len(enumerate_instances(0, 99))
    subset = len(subset_instances)
    ok = builds == 2000 and ids == 16000 and subset == 1600
    _report(
        "1 construction counts",
        ok,
        f"grids={builds} instances={ids} subset={subset}",
    )


# -- criterion 2: renderer golden tests -------------------------------------

def test_criterion_2_renderer_goldens(full_build):
    golden_ok = True
    for name in ("figure_path", "random_p052"):
        text = fixture_text("grids", f"{name}.txt")
        golden_ok = golden_ok and render(grid_from_text(text)) == text
    round_trips = 0
    hasher = hashlib.sha256()
    for grid in full_build:
        text = render(grid)
        hasher.update(text.encode("utf-8"))
        back = grid_from_text(text)
        if (
            back.energy == grid.energy
            and back.obstacles == grid.obstacles
            and back.start == grid.start
        ):
            round_trips += 1
    content_hash = hasher.hexdigest()
    ok = (
        golden_ok
        and round_trips == len(full_build)
        and content_hash == FULL_SET_CONTENT_HASH
    )
    _report(
        "2 renderer goldens",
        ok,
        f"goldens_byte_exact={golden_ok} round_trips={round_trips}/{len(full_build)} "
        f"content_hash={content_hash[:12]}",
    )


# -- criterion 3: random walk reproduction -----------------------------------

def test_criterion_3_random_walk(random_walk_records):
    lengths = [result.length for _, _, result in random_walk_records]
    mean_length = _mean(lengths)
    free = [r.score for inst, _, r in random_walk_records if inst.step_cost == 0.0]
    costly = [r.score for inst, _, r in random_walk_records if inst.step_cost == 0.3]
    mean_free = _mean(free)
    mean_costly = _mean(costly)
    paired = defaultdict(dict)
    for instance, rep, result in random_walk_records:
        key = (replace(instance, step_cost=0.0), rep)
        paired[key][instance.step_cost] = result.score
    diffs = [arms[0.0] - arms[0.3] for arms in paired.values() if len(arms) == 2]
    mean_diff = _mean(diffs)
    ok = (
        mean_length == 19.0
        and abs(mean_free - 1.30) <= 0.35
        and abs(mean_costly - -4.38) <= 0.35
        and abs(mean_diff - 5.70) <= 0.05
    )
    _report(
        "3 random walk",
        ok,
        f"n={len(lengths)} length={mean_length:.2f} free={mean_free:.3f} "
        f"costly={mean_costly:.3f} paired_diff={mean_diff:.4f}",
    )


# -- criterion 4: greedy reproduction ---------------------------------------

def test_criterion_4a_greedy_length(greedy_records):
    mean_length = _mean(result.length for _, result in greedy_records)
    _report(
        "4a greedy mean length (18.71 +/- 0.4)",
        abs(mean_length - 18.71) <= 0.4,
        f"length={mean_length:.3f}",
    )


def _check_greedy_energy(criterion, paper, bench, records, reference):
    """Hold the agent's mean energy to the reference greedy's, and check
    exactly that every episode ends on its start cell and that each cost-arm
    score is the free-arm score minus 0.3 x length."""
    measured = _mean(result.score for _, result in records)
    expected = _mean(score for _, score in reference)
    on_start = sum(
        result.final_pos == bench.grid(instance).start for instance, result in records
    )
    paired = defaultdict(dict)
    for instance, result in records:
        paired[replace(instance, step_cost=0.0)][instance.step_cost] = result
    exact = sum(
        len(arms) == 2
        and arms[0.0].length == arms[0.3].length
        and arms[0.0].score_tenths - arms[0.3].score_tenths == 3 * arms[0.0].length
        for arms in paired.values()
    )
    _report(
        f"{criterion} (reference greedy +/- 0.4)",
        abs(measured - expected) <= 0.4
        and on_start == len(records)
        and 2 * exact == len(records),
        f"energy={measured:.3f} reference={expected:.3f} "
        f"paper={paper:.2f} (not reproduced) ends_on_start={on_start}/{len(records)} "
        f"cost_identity={exact}/{len(records) // 2}",
    )


def test_criterion_4b_greedy_overall_energy(
    bench, greedy_records, reference_greedy_records
):
    _check_greedy_energy(
        "4b greedy overall energy",
        -0.14,
        bench,
        greedy_records,
        reference_greedy_records,
    )


def test_criterion_4c_greedy_mu1_energy(greedy_records):
    mu1 = [
        result.score
        for instance, result in greedy_records
        if instance.action_set is ActionSet.MU1
    ]
    mean_mu1 = _mean(mu1)
    _report(
        "4c greedy mu1 energy (0.80 +/- 0.4)",
        abs(mean_mu1 - 0.80) <= 0.4,
        f"mu1={mean_mu1:.3f}",
    )


def test_criterion_4d_greedy_mu2_energy(
    bench, greedy_records, reference_greedy_records
):
    _check_greedy_energy(
        "4d greedy mu2 energy",
        -1.07,
        bench,
        [(i, r) for i, r in greedy_records if i.action_set is ActionSet.MU2],
        [(i, s) for i, s in reference_greedy_records if i.action_set is ActionSet.MU2],
    )


@pytest.mark.parametrize(
    "start, energy, plan, scores",
    [
        # diagonal fetch of 3 units two cells away; lim2 leaves one behind
        (
            (5, 5),
            [(3, 7, 3)],
            [Action.UPRIGHT] * 2 + [Action.TAKE] * 3 + [Action.DOWNLEFT] * 2
            + [Action.DROP],
            {(None, 0.0): 3.0, (None, 0.3): 0.6, (2, 0.0): 2.0, (2, 0.3): -0.4},
        ),
        # (9, 9) fits exactly: 9 + 1 + 9 + 1 = 20; (10, 10) would need
        # 1 + 1 + 10 + 1 = 13 > 10 steps left, so the budget forces a retreat
        (
            (0, 0),
            [(9, 9), (10, 10)],
            [Action.DOWNRIGHT] * 9 + [Action.TAKE] + [Action.UPLEFT] * 9
            + [Action.DROP],
            {(None, 0.0): 1.0, (None, 0.3): -5.0, (2, 0.0): 1.0, (2, 0.3): -5.0},
        ),
    ],
    ids=["diagonal_fetch", "budget_retreat"],
)
def test_reference_greedy_hand_cases(start, energy, plan, scores):
    grid = make_grid(start=start, energy=energy)
    got = reference_greedy_plan(grid, ActionSet.MU2.moves, random.Random(0))
    assert got == plan
    for (limit, cost), score in scores.items():
        constraints = ConstraintSet(
            action_set=ActionSet.MU2, carry_limit=limit, step_cost=cost
        )
        assert run_episode(grid, constraints, got).score == score


# -- criterion 5: greedy correctness oracle ----------------------------------

def _checked_greedy_episode(grid, constraints, rng):
    """Greedy episode driven through the public planner, with every BFS
    decision checked against the brute-force shortest-path oracle."""
    state = EpisodeState(grid, constraints)
    belief = grid.copy_energy()
    past = []
    while True:
        path = greedy_plan_step(
            grid, belief, state.agent_pos, state.remaining,
            constraints.action_set, rng, past,
        )
        best = nearest_energy_distance(
            grid, belief, state.agent_pos, constraints.action_set.moves
        )
        if path is None:
            needed_for_best = (
                math.inf
                if math.isinf(best)
                else 2 * best + len(past) + 2
            )
            assert math.isinf(best) or needed_for_best > state.remaining, (
                "planner retreated although a reachable target fit the budget"
            )
            for action in reversed(past):
                assert state.step(complement(action)).value == "applied"
            state.step(Action.DROP)
            return state.result()
        assert len(path) == best, (
            f"path length {len(path)} differs from oracle distance {best}"
        )
        for action in path:
            state.step(action)
            past.append(action)
        state.step(Action.TAKE)
        row, col = state.agent_pos
        belief[row][col] -= 1


def test_criterion_5_greedy_oracle():
    rng_setup = random.Random(20240)
    kinds = list(DistributionKind)
    episodes = 0
    for i in range(1000):
        grid = generate_grid(
            kinds[i % 5],
            i % 2 == 0,
            StartMode.INNER if i % 3 == 0 else StartMode.OUTER,
            0,
            100000 + i,
        )
        constraints = ConstraintSet(
            action_set=ActionSet.MU2 if i % 2 else ActionSet.MU1,
            carry_limit=2 if rng_setup.random() < 0.5 else None,
            step_cost=0.3 if rng_setup.random() < 0.5 else 0.0,
        )
        result = _checked_greedy_episode(grid, constraints, generator(i))
        assert result.length <= 20
        assert result.final_pos == grid.start
        assert result.trace[-1][0] is Action.DROP
        episodes += 1
    _report("5 greedy oracle", episodes == 1000, f"episodes={episodes}")


# -- criterion 6: simulator invariants ---------------------------------------

def _random_instance(rng):
    cells = [(r, c) for r in range(11) for c in range(11)]
    start = rng.choice(cells)
    energy = []
    obstacles = []
    for cell in rng.sample(cells, rng.randint(0, 40)):
        if cell == start:
            continue
        if rng.random() < 0.2:
            obstacles.append(cell)
        else:
            energy.append((cell[0], cell[1], rng.randint(1, 2)))
    grid = make_grid(start=start, energy=energy, obstacles=obstacles)
    constraints = ConstraintSet(
        action_set=rng.choice([ActionSet.MU1, ActionSet.MU2]),
        carry_limit=rng.choice([None, 2]),
        step_cost=rng.choice([0.0, 0.3]),
    )
    plan = [rng.choice(list(Action)) for _ in range(rng.randint(0, 30))]
    return grid, constraints, plan


def test_criterion_6_simulator_invariants():
    rng = random.Random(60)
    episodes = 0
    for _ in range(10000):
        grid, constraints, plan = _random_instance(rng)
        state = EpisodeState(grid, constraints)
        initial = state.total_energy()
        for action in plan[:20]:
            state.step(action)
            assert state.total_energy() == initial, "conservation broken"
        result = state.result()
        assert (
            result.score_tenths + constraints.cost_tenths * result.length
            == 10 * result.energy_at_start
        ), "score decomposition broken"
        batch = run_episode(grid, constraints, plan)
        assert batch.trace == result.trace, "batch/stepwise diverged"
        assert batch.score_tenths == result.score_tenths
        if len(plan) > 20:
            truncated = run_episode(grid, constraints, plan[:20])
            assert batch.trace == truncated.trace, "truncation broken"
            assert batch.score_tenths == truncated.score_tenths
        episodes += 1
    _report("6 simulator invariants", episodes == 10000, f"episodes={episodes}")


# -- criterion 7: prompt golden suite ----------------------------------------

def test_criterion_7_prompt_goldens():
    checked = 0
    for obs in (0, 1):
        grid = generate_grid(
            DistributionKind.RANDOM, bool(obs), StartMode.INNER, 0, 1234 + obs
        )
        for mu in (1, 2):
            for lim in (0, 2):
                for cost in (0.0, 0.3):
                    bundle = build_prompt(
                        grid,
                        ConstraintSet(
                            action_set=ActionSet.MU1 if mu == 1 else ActionSet.MU2,
                            carry_limit=lim or None,
                            step_cost=cost,
                        ),
                    )
                    name = f"system_obs{obs}_mu{mu}_lim{lim}_cost{'0.3' if cost else '0'}.txt"
                    assert bundle.system == fixture_text("prompts", name)
                    checked += 1
    example_grid = grid_from_text(fixture_text("grids", "prompt_example.txt"))
    bundle = build_prompt(
        example_grid,
        ConstraintSet(action_set=ActionSet.MU1, carry_limit=2, step_cost=0.3),
    )
    worked_ok = (
        bundle.system == fixture_text("prompts", "example_system.txt")
        and bundle.user == fixture_text("prompts", "example_user.txt")
    )
    vectors_ok = 0
    for raw, expected in PARSER_VECTORS:
        if parse_plan(raw).actions == expected:
            vectors_ok += 1
    ok = checked == 16 and worked_ok and vectors_ok == len(PARSER_VECTORS) >= 20
    _report(
        "7 prompt goldens",
        ok,
        f"system_prompts={checked}/16 worked_example={worked_ok} "
        f"parser_vectors={vectors_ok}/{len(PARSER_VECTORS)}",
    )


# -- criterion 8: cassette replay end to end ---------------------------------

RESPONSES = [
    "[RIGHT, TAKE, LEFT, DROP]",
    "Sure thing! [up, up, take, down, down, drop]",
    "[UP, FLY, DOWN, TAKE, DROP]",
    "I would rather not give a list.",
    "[LEFT, LEFT, TAKE, RIGHT, RIGHT, DROP]",
    "plan: [DOWN, TAKE, UPLEFT, TAKE, UP, DROP]",
    "[TAKE, TAKE, TAKE]",
    "[RIGHT, RIGHT, RIGHT, TAKE, LEFT, LEFT, LEFT, DROP]",
    "final answer:\n[DOWN, DOWN, TAKE, UP, UP, DROP]",
    "[UP, TAKE, DOWN, DROP, STAY]",
]


def test_criterion_8_cassette_replay(tmp_path, bench):
    instances = enumerate_instances(0, 0)[:10]
    entries = []
    expected_scores = {}
    for instance, response in zip(instances, RESPONSES):
        grid = bench.grid(instance)
        constraints = instance.constraints()
        bundle = build_prompt(grid, constraints, model="replay-model")
        entries.append((bundle.request_body(), response))
        plan = parse_plan(response)
        expected_scores[instance.to_str()] = run_episode(
            grid, constraints, plan.actions
        ).score
    cassette = str(tmp_path / "cassette.json")
    write_cassette(cassette, entries)

    def run(path):
        run_suite(
            bench,
            "llm:replay-model",
            str(path),
            index_lo=0,
            index_hi=0,
            suite_seed=SUITE_SEED,
            client=CassetteClient(cassette),
            write_traces=False,
        )
        return {
            r.instance_id: r.score
            for r in load_records(str(path))
            if r.status == "scored"
        }

    first = run(tmp_path / "first.jsonl")
    second = run(tmp_path / "second.jsonl")
    deterministic = first == second
    matches = all(first.get(k) == v for k, v in expected_scores.items())
    ok = deterministic and matches and len(first) == 10
    _report(
        "8 cassette replay",
        ok,
        f"scored={len(first)} deterministic={deterministic} "
        f"matches_independent_scoring={matches}",
    )

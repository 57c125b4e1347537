import json
import os

import pytest

from conftest import make_grid
from grasp.env import Action, ConstraintSet, run_episode
from grasp.generate import DistributionKind, StartMode, generate_grid
from grasp.runner import Benchmark, InstanceId, enumerate_instances, load_records, run_suite
from grasp.svg import export_trace_svg


def _trace_for(tmp_path, agent):
    out = str(tmp_path / f"{agent}.jsonl")
    bench = Benchmark.from_seed(4)
    run_suite(bench, agent, out, index_lo=0, index_hi=0, suite_seed=4)
    record = load_records(out)[3]
    trace = json.load(open(os.path.join(str(tmp_path), record.trace_path)))
    grid = bench.grid(InstanceId.from_str(record.instance_id))
    return trace, grid


def test_random_walk_trace_has_six_stars(tmp_path):
    trace, grid = _trace_for(tmp_path, "random-walk")
    svg = export_trace_svg(trace, grid)
    assert svg.count('href="#take-star"') == 6


def test_greedy_trace_loops_back_to_start(tmp_path):
    trace, grid = _trace_for(tmp_path, "greedy")
    svg = export_trace_svg(trace, grid)
    assert trace["final_pos"] == list(grid.start)
    assert svg.count("<line") >= 2
    # the drawing is deterministic
    assert export_trace_svg(trace, grid) == svg


def test_empty_plan_draws_grid_only():
    grid = generate_grid(DistributionKind.RANDOM, True, StartMode.INNER, 0, 0)
    instance = enumerate_instances(0, 0)[0]
    trace = {
        "instance_id": instance.to_str(),
        "constraints": instance.constraints().to_dict(),
        "agent": "llm:x",
        "actions": [],
        "effects": [],
        "length": 0,
        "score": 0.0,
        "energy_at_start": 0,
        "final_pos": list(grid.start),
    }
    svg = export_trace_svg(trace, grid)
    assert "<line" not in svg
    assert 'href="#take-star"' not in svg
    assert svg.count("<rect") == 1 + 121  # backdrop plus every cell


def test_trace_grid_mismatch_raises(tmp_path):
    trace, _ = _trace_for(tmp_path, "greedy")
    wrong = generate_grid(DistributionKind.RANDOM, False, StartMode.OUTER, 1, 999)
    with pytest.raises(ValueError, match="does not replay"):
        export_trace_svg(trace, wrong)


def test_arrows_follow_the_applied_moves():
    # The blocked UP draws nothing; RIGHT and LEFT join the centers of
    # (5, 5) and (5, 6), and the TAKE's star sits on (5, 6).
    grid = make_grid(start=(5, 5), energy=[(5, 6)], obstacles=[(4, 5)])
    plan = [Action.UP, Action.RIGHT, Action.TAKE, Action.LEFT, Action.DROP]
    result = run_episode(grid, ConstraintSet(), plan)
    trace = {
        "constraints": ConstraintSet().to_dict(),
        "actions": [action.value for action, _ in result.trace],
        "effects": [effect.value for _, effect in result.trace],
    }
    svg = export_trace_svg(trace, grid)
    lines = [line for line in svg.splitlines() if line.startswith("<line")]
    assert [line.split(" stroke=")[0] for line in lines] == [
        '<line x1="244" y1="244" x2="284" y2="244"',
        '<line x1="284" y1="244" x2="244" y2="244"',
    ]
    assert '<use href="#take-star" x="284" y="222"/>' in svg

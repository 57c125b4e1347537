"""The llm-cassette inputs: one scripted response per request, from a seeded mix.

``response_for`` is a pure function of (seed, instance id): the checks call it
again to learn which action list a record should have executed, without
reading anything the program wrote. ``build`` records the cassette through
grasp's own prompt builder, the way a user records one against a live model.
"""

from __future__ import annotations

import json
import os
import random

from oracle import MU1_MOVES, MU2_MOVES, REVERSE, Instance

MODEL = "bench-model"
AGENT = f"llm:{MODEL}"
CONCURRENCY = 2
SHAPES = ("bare", "prose", "lower", "unresolved", "overlong", "no-list")
BOGUS = ("JUMP", "WAIT", "NORTH", "STAY", "PICKUP")


def _out_and_back(rng: random.Random, inst: Instance, trips: int) -> list[str]:
    """Moves each followed by TAKE, the reversed moves home, then DROP.

    One move in four is drawn from all eight directions, so a 4-move
    instance also sees diagonal moves, which the rules make no-ops.
    """
    moves = []
    for _ in range(trips):
        pool = MU2_MOVES if inst.mu == 2 or rng.random() < 0.25 else MU1_MOVES
        moves.append(rng.choice(pool))
    plan = []
    for move in moves:
        plan += [move, "TAKE"]
    plan += [REVERSE[move] for move in reversed(moves)]
    plan.append("DROP")
    return plan


def response_for(seed: int, instance_id: str) -> tuple[str, list[str], int]:
    """(response text, the actions it encodes, parse notes it should raise).

    Unresolved tokens encode as INVALID_TOKEN; a reply without a list encodes
    no actions and one note.
    """
    rng = random.Random(f"{seed}:{instance_id}")
    inst = Instance(instance_id)
    shape = rng.choice(SHAPES)
    if shape == "no-list":
        return ("I cannot see a safe route, so I will not move.", [], 1)
    plan = _out_and_back(rng, inst, rng.randint(1, 6))
    if shape == "overlong":
        while len(plan) <= 20:
            plan = plan[:-1] + _out_and_back(rng, inst, rng.randint(2, 4))
        return ("[" + ", ".join(plan) + "]", plan, 0)
    if shape == "unresolved":
        actions = list(plan)
        for _ in range(rng.randint(1, 3)):
            actions.insert(rng.randint(0, len(actions)), rng.choice(BOGUS))
        expected = ["INVALID_TOKEN" if a in BOGUS else a for a in actions]
        return ("[" + ", ".join(actions) + "]", expected, len(actions) - len(plan))
    if shape == "lower":
        tokens = [rng.choice(("{}", "'{}'", '"{}"')).format(a.lower()) for a in plan]
        return ("[" + ", ".join(tokens) + "]", plan, 0)
    body = "[" + ", ".join(plan) + "]"
    if shape == "prose":
        return ("Let me think [draft] about the nearest energy first.\n"
                f"My final plan is: {body}\nThis keeps the route short.", plan, 0)
    return (body, plan, 0)


def build(seed: int, out_dir: str, index_lo: int = 0, index_hi: int = 99) -> None:
    """Write the cassette of grid indexes index_lo..index_hi, its request
    index and the client config to out_dir.

    The index maps each instance id to the request key its prompt hashes to,
    so the checks can find the prompt, and the grid in it, for every record.
    """
    from grasp import llm, runner

    # The eight prompts of one grid show the same grid text, so this input
    # builder renders each grid once; the run stage itself is left as it is.
    rendered, render = {}, llm.render

    def render_once(grid):
        if id(grid) not in rendered:
            rendered[id(grid)] = render(grid)
        return rendered[id(grid)]

    llm.render = render_once
    try:
        bench = runner.Benchmark.from_seed(seed)
        entries, index = [], {}
        for instance in runner.enumerate_instances(index_lo, index_hi):
            bundle = llm.build_prompt(bench.grid(instance), instance.constraints(), model=MODEL)
            body = bundle.request_body()
            instance_id = instance.to_str()
            entries.append((body, response_for(seed, instance_id)[0]))
            index[instance_id] = llm.request_key(body)
    finally:
        llm.render = render
    os.makedirs(out_dir, exist_ok=True)
    llm.write_cassette(os.path.join(out_dir, "cassette.json"), entries)
    with open(os.path.join(out_dir, "index.json"), "w", encoding="utf-8") as handle:
        json.dump(index, handle)
    with open(os.path.join(out_dir, "client.json"), "w", encoding="utf-8") as handle:
        json.dump({"concurrency": CONCURRENCY}, handle)

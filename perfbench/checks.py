"""Output checks, made apart from the program.

Each check raises ``CheckFailed`` with the check's name. They read only the
files the stages wrote and the inputs the benchmark made, and compare them
with the reference in ``oracle.py``; none of them imports grasp.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import defaultdict
from functools import lru_cache

import oracle

# Records repeat each instance id once per replicate; parse each id once.
Instance = lru_cache(maxsize=None)(oracle.Instance)

TIMESTAMPS = ("started_at", "finished_at")


class CheckFailed(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def _require(ok: bool, check: str, message) -> None:
    """Fail ``check`` unless ok; a callable message is formatted only on failure."""
    if not ok:
        raise CheckFailed(check, message() if callable(message) else message)


def _tenths(score: float) -> int:
    return round(score * 10)


def load_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    return json.loads("[" + ",".join(lines) + "]")


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def records_hash(records: list[dict]) -> str:
    """sha256 of the records sorted by key, with their timestamps removed."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = []
    for record in records:
        kept = {k: v for k, v in record.items() if k not in TIMESTAMPS}
        key = (record["instance_id"], record["agent"], record["replicate"])
        lines.append((key, encode(kept)))
    lines.sort()
    return hashlib.sha256("\n".join(line for _, line in lines).encode("utf-8")).hexdigest()


def check_grid_flags(grid_id: str, grid: oracle.RefGrid, check: str) -> None:
    """A grid obeys its generation flags: start region, obstacles, empty start."""
    inst = Instance(grid_id + "/mu=1/lim=0/cost=0")
    row, col = grid.start
    inner = row in oracle.INNER and col in oracle.INNER
    _require(inner == (inst.start == "inner"), check,
             lambda: f"{grid_id}: start {grid.start} outside its {inst.start} region")
    _require(inst.obs or not grid.obstacles, check,
             lambda: f"{grid_id}: {len(grid.obstacles)} obstacles with obstacles off")
    _require(grid.start not in grid.energy and grid.start not in grid.obstacles, check,
             lambda: f"{grid_id}: start cell is not empty")


def check_manifest(gen_dir: str, master_seed: int, index_hi: int = 99):
    """The gen manifest: hash re-computed from the .txt files, ids, seeds, flags.

    Returns (content hash, {grid id: RefGrid}).
    """
    name = "manifest"
    with open(os.path.join(gen_dir, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    ids = oracle.grid_ids(0, index_hi)
    entries = manifest["grids"]
    _require([e["id"] for e in entries] == ids, name, "grid ids or their order differ")
    _require(manifest["count"] == len(ids) and manifest["per_combo"] == index_hi + 1
             and manifest["master_seed"] == master_seed, name, "count, per_combo or seed")
    hasher = hashlib.sha256()
    grids = {}
    for entry in entries:
        grid_id = entry["id"]
        seed = oracle.grid_seed(master_seed, grid_id)
        _require(entry["seed"] == seed, name, lambda: f"{grid_id}: seed {entry['seed']} != {seed}")
        base = os.path.join(gen_dir, entry["path"])
        with open(base + ".txt", "rb") as handle:
            raw = handle.read()
        hasher.update(raw)
        grid = oracle.parse_grid_text(raw.decode("utf-8"))
        check_grid_flags(grid_id, grid, name)
        with open(base + ".json", encoding="utf-8") as handle:
            data = json.load(handle)
        inst = Instance(grid_id + "/mu=1/lim=0/cost=0")
        _require(
            (data["id"], data["distribution"], data["has_obstacles"], data["start_mode"],
             data["grid_index"], data["seed"], tuple(data["start"]))
            == (grid_id, inst.dist, inst.obs, inst.start, inst.index, seed, grid.start),
            name, lambda: f"{grid_id}: JSON fields disagree with the id, seed or text")
        text_cells = [
            ["A" if (i, j) == grid.start else "O" if (i, j) in grid.obstacles
             else "E" if (i, j) in grid.energy else " " for j in range(oracle.SIZE)]
            for i in range(oracle.SIZE)
        ]
        _require(data["cells"] == text_cells, name,
                 lambda: f"{grid_id}: JSON cells differ from text")
        grids[grid_id] = grid
    content_hash = hasher.hexdigest()
    _require(manifest["content_hash"] == content_hash, name,
             lambda: f"content hash {manifest['content_hash'][:12]} "
                     f"!= recomputed {content_hash[:12]}")
    return content_hash, grids


def check_records(records: list[dict], agent: str, replicates: int, suite_seed: int,
                  index_hi: int = 99) -> None:
    """One scored record per (instance, replicate), each with its own seed."""
    name = "records"
    expected = {(i, r) for i in oracle.instance_ids(0, index_hi) for r in range(replicates)}
    seen = set()
    seeds = {}  # the four constraint arms of one (grid, action set) share a seed
    for record in records:
        key = (record["instance_id"], record["replicate"])
        _require(key in expected and key not in seen and record["agent"] == agent, name,
                 lambda: f"unexpected or repeated record {key}")
        seen.add(key)
        _require(record["status"] == "scored", name, lambda: f"{key} is {record['status']}")
        inst = Instance(record["instance_id"])
        arm = (inst.arm, record["replicate"])
        if arm not in seeds:
            seeds[arm] = oracle.record_seed(suite_seed, inst, record["replicate"])
        _require(record["seed"] == seeds[arm], name,
                 lambda: f"{key}: seed {record['seed']} != {seeds[arm]}")
        _require(0 <= record["length"] <= oracle.MAX_STEPS, name, lambda: f"{key}: length")
    _require(seen == expected, name, lambda: f"{len(expected - seen)} records missing")


def check_joined(joined: list[dict], parts: list[list[dict]]) -> None:
    """The joined results file holds each part's records, parts in order."""
    _require(joined == [record for part in parts for record in part], "joined",
             lambda: f"{len(joined)} joined records, {sum(map(len, parts))} in the parts")


def check_quartets(records: list[dict]) -> None:
    """Baselines ignore limit and cost, so the four arms of one (grid, action
    set, replicate) share a plan: equal lengths and seeds, cost-arm score =
    free-arm score - 0.3 x length, limit-2 energy = min(2, unlimited energy)."""
    name = "quartets"
    groups = defaultdict(dict)
    for record in records:
        inst = Instance(record["instance_id"])
        groups[(inst.arm, record["replicate"])][(inst.limit, inst.cost_tenths)] = record
    for key, arms in groups.items():
        _require(len(arms) == 4, name, lambda: f"{key}: {len(arms)} arms")
        length = arms[(None, 0)]["length"]
        _require(all(r["length"] == length for r in arms.values()), name, lambda: f"{key}: lengths")
        _require(len({r["seed"] for r in arms.values()}) == 1, name, lambda: f"{key}: seeds")
        for limit in (None, 2):
            free, cost = _tenths(arms[(limit, 0)]["score"]), _tenths(arms[(limit, 3)]["score"])
            _require(cost == free - 3 * length, name, lambda: f"{key}: cost arm {cost} vs {free}")
        for cost in (0, 3):
            unlimited = arms[(None, cost)]["energy_at_start"]
            _require(arms[(2, cost)]["energy_at_start"] == min(2, unlimited), name,
                     lambda: f"{key}: limit-2 energy")


def check_greedy(records: list[dict], grids: dict) -> None:
    """Every greedy episode retraces its moves and ends on its start cell."""
    for record in records:
        grid = grids[Instance(record["instance_id"]).grid_id]
        _require(tuple(record["final_pos"]) == grid.start, "greedy-home",
                 lambda: f"{record['instance_id']} ends at {record['final_pos']}, "
                         f"start {grid.start}")


def _check_episode(record: dict, episode: oracle.Episode, check: str) -> None:
    got = (record["length"], _tenths(record["score"]), record["score"],
           record["energy_at_start"], tuple(record["final_pos"]))
    want = (episode.length, episode.score_tenths, episode.score_tenths / 10,
            episode.energy_at_start, episode.final_pos)
    _require(got == want, check, lambda: f"{record['instance_id']}: {got} != reference {want}")


def check_traces(run_dir: str, records: list[dict], grids: dict,
                 expected: dict | None = None) -> None:
    """Re-score every trace with the reference and hold it to its record.

    Each trace_path must be unique and name a trace of the record's own
    instance, agent and seed. With ``expected`` (llm runs: instance id ->
    (response, actions, notes)) the trace must also hold the response the
    cassette gave and the actions it encodes.
    """
    name = "traces"
    paths = set()
    for record in records:
        path = record["trace_path"]
        _require(path is not None and path not in paths, name,
                 lambda: f"{record['instance_id']}: missing or shared trace path {path}")
        paths.add(path)
        with open(os.path.join(run_dir, path), encoding="utf-8") as handle:
            trace = json.load(handle)
        inst = Instance(record["instance_id"])
        _require((trace["instance_id"], trace["agent"], trace["seed"])
                 == (record["instance_id"], record["agent"], record["seed"]), name,
                 lambda: f"{path} holds {trace['instance_id']} seed {trace['seed']}")
        _require(trace["constraints"]["action_set"] == f"mu{inst.mu}"
                 and trace["constraints"]["carry_limit"] == inst.limit
                 and _tenths(trace["constraints"]["step_cost"]) == inst.cost_tenths,
                 name, lambda: f"{path}: constraints")
        episode = oracle.play(grids[inst.grid_id], inst, trace["actions"])
        _require(trace["effects"] == episode.effects, name,
                 lambda: f"{path}: effects do not replay")
        _check_episode(trace, episode, name)
        _check_episode(record, episode, name)
        if expected is not None:
            response, actions, notes = expected[record["instance_id"]]
            _require(trace["raw_response"] == response
                     and trace["actions"] == actions[:oracle.MAX_STEPS]
                     and len(trace["parse_notes"]) == notes, name,
                     lambda: f"{path}: response, actions or parse notes")


def check_llm(records: list[dict], grids: dict, expected: dict) -> None:
    """Each record scores exactly the action list its cassette response encodes."""
    for record in records:
        inst = Instance(record["instance_id"])
        episode = oracle.play(grids[inst.grid_id], inst, expected[record["instance_id"]][1])
        _check_episode(record, episode, "llm-plan")


def check_prompt_grids(cassette: dict, index: dict, index_hi: int = 99) -> dict:
    """The grids the run saw, read from the prompts; returns {grid id: RefGrid}.

    Every prompt of one grid shows the same grid, and every grid obeys its
    generation flags.
    """
    name = "prompt-grids"
    grids, texts = {}, {}
    for instance_id, key in index.items():
        user = cassette[key]["request"]["messages"][1]["content"]
        grid_id = Instance(instance_id).grid_id
        if grid_id in texts:
            _require(texts[grid_id] == user.split(":\n", 1)[1], name,
                     lambda: f"{grid_id}: prompts differ")
            continue
        texts[grid_id] = user.split(":\n", 1)[1]
        grids[grid_id] = oracle.grid_from_prompt(user)
        check_grid_flags(grid_id, grids[grid_id], name)
    _require(sorted(grids) == sorted(oracle.grid_ids(0, index_hi)), name, "grid set")
    return grids


def check_resume(summary: dict, requested: int, before: str, after: str) -> None:
    """A resume with nothing to do writes no record and leaves the bytes alone."""
    _require(summary["scored"] == 0 and summary["unscored"] == 0
             and summary["skipped_existing"] == requested, "resume",
             lambda: f"resume pass wrote records: {summary}")
    _require(before == after, "resume", "results bytes changed")


CONTROLS = (
    ("distribution", {"random": "Random", "vertical-skew": "Vertically-skewed",
                      "horizontal-skew": "Horizontally-skewed", "cluster": "Cluster",
                      "spiral": "Spiral"}, lambda i: i.dist),
    ("obstacle", {True: "Yes", False: "No"}, lambda i: i.obs),
    ("start", {"inner": "Inner Position", "outer": "Outer Position"}, lambda i: i.start),
    ("action-set", {1: "mu1", 2: "mu2"}, lambda i: i.mu),
    ("carry-limit", {None: "No Limit", 2: "2 Units"}, lambda i: i.limit),
    ("step-cost", {0: "0 Unit", 3: "0.3 Unit"}, lambda i: i.cost_tenths),
    ("average", {None: "Average"}, lambda i: None),
)
CSV_HEADER = ["control", "value", "agent", "n", "unscored", "mean_length",
              "mean_energy", "stderr_energy", "is_max_energy", "is_min_energy"]


def refold(records: list[dict]) -> list[tuple]:
    """The aggregate rows re-computed with math.fsum: (control, value, agent,
    n, unscored, mean length, mean energy, stderr, is max, is min)."""
    agents = sorted({r["agent"] for r in records})
    groups = defaultdict(list)
    for record in records:
        inst = Instance(record["instance_id"])
        for control, _, field in CONTROLS:
            groups[(control, field(inst), record["agent"])].append(record)
    rows = []
    for control, labels, _ in CONTROLS:
        for value, label in labels.items():
            cells = {}
            for agent in agents:
                group = groups[(control, value, agent)]
                scored = [r for r in group if r["status"] == "scored"]
                if not scored:
                    continue
                n = len(scored)
                energies = [r["score"] for r in scored]
                mean = math.fsum(energies) / n
                var = math.fsum((e - mean) ** 2 for e in energies) / (n - 1) if n > 1 else 0.0
                cells[agent] = (n, len(group) - n,
                                math.fsum(r["length"] for r in scored) / n, mean, (var / n) ** 0.5)
            means = [c[3] for c in cells.values()]
            ranked = len(cells) > 1
            for agent, cell in cells.items():
                rows.append((control, label, agent) + cell
                            + (ranked and cell[3] == max(means), ranked and cell[3] == min(means)))
    return rows


def check_csv(csv_path: str, rows: list[tuple]) -> None:
    """Every CSV cell equals the re-fold, formatted as the CSV formats it."""
    with open(csv_path, encoding="utf-8", newline="") as handle:
        got = list(csv.reader(handle))
    want = [CSV_HEADER] + [
        [c, v, a, str(n), str(u), f"{length:.4f}", f"{mean:.4f}", f"{se:.4f}",
         str(int(top)), str(int(bottom))]
        for c, v, a, n, u, length, mean, se, top, bottom in rows
    ]
    _require(len(got) == len(want), "csv", lambda: f"{len(got)} rows, re-fold has {len(want)}")
    for g, w in zip(got, want):
        _require(g == w, "csv", lambda: f"row {g} != re-fold {w}")


def check_table(table: str, rows: list[tuple]) -> None:
    """A single-agent table shows each row's mean length and energy to 2 places."""
    lines = table.rstrip("\n").split("\n")
    _require(len(lines) == 2 + len(rows), "table",
             lambda: f"{len(lines)} lines for {len(rows)} rows")
    for line, row in zip(lines[2:], rows):
        want = [f"{row[5]:.2f}", f"{row[6]:.2f}"]
        _require(line.split()[-2:] == want, "table", lambda: f"{line!r} != {want}")

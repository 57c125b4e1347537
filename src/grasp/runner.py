"""Benchmark enumeration, suite execution, result persistence, aggregation.

Results are JSONL, one record per (instance, agent, replicate), appended as
runs finish so an interrupted suite can resume by skipping ids already on
disk. Replay seeds are derived from everything the agents can actually see
(grid identity, action set, replicate) and deliberately not from the carry
limit or step cost, so runs are paired across those control arms.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

from .agents import BASELINES, parse_agent
from .env import ActionSet, ConstraintSet, run_episode
from .generate import (
    GRID_FIELDS,
    PARAM_FIELDS,
    DistributionKind,
    Grid,
    GridKey,
    StartMode,
    build_benchmark,
    generate_grid,
    grid_from_dict,
    grid_id,
    grid_keys,
    grid_parts,
    grid_seed,
    grid_to_dict,
)
from .llm import ActionPlan, LlmClientError, build_prompt, parse_plan
from .rng import derive_seed, generator
from .textgrid import render

_AGENT_DOMAIN = 3

PER_COMBO = 100  # grids per control combination, indexes 0..99
CARRY_LIMITS = (None, 2)
STEP_COSTS = (0.0, 0.3)


@dataclass(frozen=True)
class InstanceId:
    """One benchmark instance: a grid identity plus a constraint combo."""

    distribution: DistributionKind
    has_obstacles: bool
    start_mode: StartMode
    grid_index: int
    action_set: ActionSet
    carry_limit: int | None
    step_cost: float

    @property
    def grid_key(self) -> GridKey:
        """The grid half of the instance."""
        return (self.distribution, self.has_obstacles, self.start_mode, self.grid_index)

    def to_str(self) -> str:
        return (
            grid_id(self.grid_key)
            + f"/mu={self.action_set.number}"
            f"/lim={self.carry_limit or 0}"
            f"/cost={'0.3' if self.step_cost else '0'}"
        )

    @classmethod
    def from_str(cls, text: str) -> "InstanceId":
        fields = dict(part.split("=", 1) for part in text.split("/"))
        return cls(
            distribution=DistributionKind(fields["dist"]),
            has_obstacles=fields["obs"] == "1",
            start_mode=StartMode.INNER if fields["start"] == "in" else StartMode.OUTER,
            grid_index=int(fields["g"]),
            action_set=ActionSet(f"mu{fields['mu']}"),
            carry_limit=None if fields["lim"] == "0" else int(fields["lim"]),
            step_cost=float(fields["cost"]),
        )

    def constraints(self) -> ConstraintSet:
        return ConstraintSet(
            action_set=self.action_set,
            carry_limit=self.carry_limit,
            step_cost=self.step_cost,
        )


def enumerate_instances(index_lo: int = 0, index_hi: int = 99) -> list[InstanceId]:
    """All instances whose grid index lies in [index_lo, index_hi]."""
    if not (0 <= index_lo <= index_hi < PER_COMBO):
        raise ValueError(f"invalid grid index range {index_lo}..{index_hi}")
    return [
        InstanceId(*key, action_set, limit, cost)
        for key in grid_keys(range(index_lo, index_hi + 1))
        for action_set in ActionSet
        for limit in CARRY_LIMITS
        for cost in STEP_COSTS
    ]


class Benchmark:
    """Grid provider, either generated on demand from a master seed or
    loaded lazily from a directory written by ``write_benchmark``, whose
    manifest then supplies ``master_seed`` and ``per_combo``."""

    def __init__(self, master_seed: int | None = None, root: str | None = None):
        if (master_seed is None) == (root is None):
            raise ValueError("pass exactly one of master_seed or root")
        self.root = root
        self.per_combo = None
        self._cache: dict[tuple[int, int, int, int], Grid] = {}
        if root is not None:
            manifest = read_json_object(os.path.join(root, "manifest.json"),
                                        ("master_seed", "per_combo"))
            master_seed, self.per_combo = manifest["master_seed"], manifest["per_combo"]
        self.master_seed = master_seed

    @classmethod
    def from_seed(cls, master_seed: int) -> "Benchmark":
        return cls(master_seed=master_seed)

    @classmethod
    def from_dir(cls, root: str) -> "Benchmark":
        return cls(root=root)

    def check_index(self, index: int) -> None:
        """Refuse a grid index past the grids a benchmark directory holds."""
        if self.per_combo is not None and index >= self.per_combo:
            raise ValueError(
                f"benchmark at {self.root!r} holds {self.per_combo} "
                f"grids per combination, index {index} not built"
            )

    def grid(self, instance: InstanceId) -> Grid:
        identity = instance.grid_key
        key = grid_parts(identity)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.root is None:
            grid = generate_grid(*identity, grid_seed(self.master_seed, *identity))
        else:
            self.check_index(instance.grid_index)
            path = os.path.join(self.root, grid_rel_path(*identity) + ".json")
            grid = read_grid(path)
        self._cache[key] = grid
        return grid


def check_object(data, fields: tuple[str, ...], where: str) -> dict:
    """``data``, refused with a ValueError naming ``where`` when it is no
    JSON object or lacks one of ``fields``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} holds no JSON object")
    for name in fields:
        if name not in data:
            raise ValueError(f"{where} has no field {name!r}")
    return data


def read_json_object(path: str, fields: tuple[str, ...]) -> dict:
    """A file's JSON object, checked by ``check_object`` under the file's name."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path} does not parse: {exc}") from None
    return check_object(data, fields, path)


def read_grid(path: str) -> Grid:
    """A grid file, with its top-level fields and its ``params`` keys checked."""
    data = read_json_object(path, GRID_FIELDS)
    where = f"{path} field 'params'"
    unknown = sorted(check_object(data["params"], (), where).keys() - PARAM_FIELDS)
    if unknown:
        raise ValueError(f"{where} has unknown field {unknown[0]!r}")
    return grid_from_dict(data)


def grid_rel_path(
    kind: DistributionKind,
    has_obstacles: bool,
    start_mode: StartMode,
    index: int,
) -> str:
    return os.path.join(
        "grids",
        kind.value,
        f"obs{1 if has_obstacles else 0}",
        start_mode.value,
        f"{index:03d}",
    )


def write_benchmark(
    out_dir: str, master_seed: int, per_combo: int = 100, force: bool = False
) -> dict:
    """Write every grid as a JSON + text pair plus a manifest; returns the
    manifest. Fails on a non-empty target unless forced."""
    if not 1 <= per_combo <= PER_COMBO:
        raise ValueError(f"per_combo must be from 1 to {PER_COMBO}, got {per_combo}")
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise FileExistsError(f"output directory {out_dir!r} is not empty (use force)")
    grids = build_benchmark(master_seed, per_combo=per_combo)
    entries = []
    hasher = hashlib.sha256()
    for grid in grids:
        spec = grid.spec
        rel = grid_rel_path(
            spec.distribution, spec.has_obstacles, spec.start_mode, spec.grid_index
        )
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(grid_to_dict(grid), handle, indent=1, sort_keys=True)
        text = render(grid)
        with open(path + ".txt", "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        hasher.update(text.encode("utf-8"))
        entries.append({"id": spec.grid_id, "seed": spec.seed, "path": rel})
    manifest = {
        "master_seed": master_seed,
        "per_combo": per_combo,
        "count": len(grids),
        "content_hash": hasher.hexdigest(),
        "grids": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


@dataclass
class RunRecord:
    """One scored (or failed) episode, as persisted to results JSONL."""

    instance_id: str
    agent: str
    seed: int
    replicate: int
    status: str  # "scored" | "unscored"
    length: int | None = None
    score: float | None = None
    energy_at_start: int | None = None
    final_pos: tuple[int, int] | None = None
    trace_path: str | None = None
    started_at: str | None = None
    finished_at: str | None = None
    error: str | None = None  # last, and only persisted when set

    def key(self) -> tuple[str, str, int]:
        return (self.instance_id, self.agent, self.replicate)

    def to_dict(self) -> dict:
        out = dict(vars(self))
        if self.error is None:
            del out["error"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        record = cls(**data)
        if record.final_pos is not None:
            record.final_pos = tuple(record.final_pos)
        return record


def record_seed(suite_seed: int, instance: InstanceId, replicate: int) -> int:
    """Replay seed for one record; carry limit and step cost are left out so
    the same plan is evaluated across those arms."""
    return derive_seed(
        _AGENT_DOMAIN,
        suite_seed,
        *grid_parts(instance.grid_key),
        instance.action_set.number,
        replicate,
    )


def _trace_filename(record: RunRecord) -> str:
    flat = record.instance_id.replace("/", "_")
    agent = record.agent.replace("/", "_").replace(":", "-")
    return f"{agent}__{flat}__r{record.replicate}.json"


# json.dumps(payload, indent=1), with the encoder made once for every trace.
_TRACE_ENCODER = json.JSONEncoder(indent=1)


def trace_text(
    record: RunRecord, instance: InstanceId, result, plan: ActionPlan | None = None
) -> str:
    """One scored episode's trace file content."""
    payload = {
        "instance_id": record.instance_id,
        "constraints": instance.constraints().to_dict(),
        "agent": record.agent,
        "seed": record.seed,
        "actions": [action.value for action, _ in result.trace],
        "effects": [effect.value for _, effect in result.trace],
        "length": result.length,
        "score": result.score,
        "energy_at_start": result.energy_at_start,
        "final_pos": list(result.final_pos),
    }
    if plan is not None:
        payload["raw_response"] = plan.raw_response
        payload["parse_notes"] = [list(note) for note in plan.parse_notes]
    return _TRACE_ENCODER.encode(payload)


def write_trace(traces_dir: str, record: RunRecord, text: str) -> str:
    """Write a record's trace into an existing directory; returns its file name."""
    name = _trace_filename(record)
    with open(os.path.join(traces_dir, name), "w", encoding="utf-8") as handle:
        handle.write(text)
    return name


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@dataclass(frozen=True)
class _GridJob:
    """Plays one agent over one grid's pending items. A process pool
    pickles the bound ``play`` into each chunk it sends a worker; a
    baseline job holds no client, so that is a few small fields."""

    benchmark: Benchmark
    agent: str
    model: str | None  # None for a baseline
    suite_seed: int
    resample_invalid: bool
    write_traces: bool
    client: object

    def play(self, items: list[tuple[InstanceId, int]]) -> list[tuple[RunRecord, str | None]]:
        """(record, trace text or None) for each (instance, replicate) of
        one grid, in order. LLM transport failures come back as unscored
        records, without a trace."""
        grid = self.benchmark.grid(items[0][0])
        text = render(grid) if self.model else None
        # A baseline plan per record seed, which leaves out the carry limit
        # and step cost: the four arms of an action set share it.
        plans: dict[int, list] = {}
        pairs = []
        for instance, replicate in items:
            seed = record_seed(self.suite_seed, instance, replicate)
            constraints = instance.constraints()
            head = dict(instance_id=instance.to_str(), agent=self.agent, seed=seed,
                        replicate=replicate, started_at=_now())
            plan = None
            if self.model:
                bundle = build_prompt(grid, constraints, model=self.model, text=text)
                try:
                    raw = self.client.complete(bundle)
                except LlmClientError as exc:
                    error = f"{head['instance_id']}: {exc}"
                    record = RunRecord(**head, status="unscored", error=error, finished_at=_now())
                    pairs.append((record, None))
                    continue
                plan = parse_plan(raw)
                actions = plan.actions
            else:
                if seed not in plans:
                    plans[seed] = BASELINES[self.agent].plan(
                        grid, instance.action_set, generator(seed), self.resample_invalid
                    )
                actions = plans[seed]
            result = run_episode(grid, constraints, actions)
            record = RunRecord(
                **head,
                status="scored",
                length=result.length,
                score=result.score,
                energy_at_start=result.energy_at_start,
                final_pos=result.final_pos,
                finished_at=_now(),
            )
            trace = trace_text(record, instance, result, plan) if self.write_traces else None
            pairs.append((record, trace))
        return pairs


def load_records(path: str, truncate_torn: bool = False) -> list[RunRecord]:
    """Read a results file.

    A last line that does not parse, as a crash mid-write leaves it, is
    dropped with a warning on stderr; ``truncate_torn`` also cuts it from
    the file, so that appended records start on a line of their own, and
    ends a last record that parsed but lost its line end. A bad line
    anywhere else raises ValueError.
    """
    records = []
    if not os.path.exists(path):
        return records
    torn = None  # (line number, error) of the last line that did not parse
    line = "\n"
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            if torn is not None:
                raise ValueError(f"{path} line {torn[0]}: {torn[1]}")
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except (TypeError, ValueError) as exc:
                torn = (number, exc)
    if torn is not None:
        print(
            f"warning: {path} line {torn[0]}: {torn[1]}; dropped this torn last line",
            file=sys.stderr,
        )
        if truncate_torn:
            with open(path, "rb") as handle:
                end = sum(len(line) for _, line in zip(range(torn[0] - 1), handle))
            os.truncate(path, end)
    elif truncate_torn and not line.endswith("\n"):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
    return records


_GRIDS_PER_FORKED_CHUNK = 12


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suite(
    benchmark: Benchmark,
    agent_spec: str,
    out_path: str,
    index_lo: int = 0,
    index_hi: int = 99,
    replicates: int = 1,
    suite_seed: int = 0,
    concurrency: int = 1,
    resample_invalid: bool = False,
    client=None,
    write_traces: bool = True,
    config_echo: dict | None = None,
) -> dict:
    """Run an agent over every instance in the subset, appending one record
    per (instance, replicate) and skipping records already present.

    ``concurrency`` is the number of requests in flight to the LLM client,
    one grid's instances per thread. Baselines are CPU work: with more than
    one grid pending they run on forked worker processes, one per usable
    CPU, where fork exists. Either way the workers only play and encode;
    this process writes each trace and then its record, in the serial
    order. A results file is resumed only under the suite seed, grid
    master seed and ``resample_invalid`` its meta file names; one that
    holds records but has no meta file is refused. ``resample_invalid`` is
    refused for an agent that does not read it.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    model = parse_agent(agent_spec)
    if model is None and concurrency > 1:
        raise ValueError(
            f"concurrency is for LLM clients; {agent_spec} runs serially "
            "or on one worker process per CPU"
        )
    if model is not None and client is None:
        raise ValueError("an LLM agent needs a client (endpoint or cassette)")
    if resample_invalid and not (model is None and BASELINES[agent_spec].reads_resample_invalid):
        raise ValueError(f"{agent_spec} does not read resample_invalid")
    benchmark.check_index(index_hi)
    instances = enumerate_instances(index_lo, index_hi)
    meta_path = out_path + ".meta.json"
    identity = {
        "suite_seed": suite_seed,
        "master_seed": benchmark.master_seed,
        "resample_invalid": resample_invalid,
    }
    if os.path.exists(out_path) and os.path.exists(meta_path):
        previous = read_json_object(meta_path, ())
        clashes = [
            f"{key.replace('_', ' ')} {previous[key]}, not {value}"
            for key, value in identity.items()
            if previous.get(key, value) != value
        ]
        if clashes:
            raise ValueError(f"{out_path} holds records of {'; '.join(clashes)}")
    elif os.path.exists(out_path) and os.path.getsize(out_path):
        raise ValueError(f"{out_path} holds records but its meta file {meta_path} is missing")
    kept = load_records(out_path, truncate_torn=True)
    for record in kept:  # each record's seed proves the suite seed it ran under
        instance = InstanceId.from_str(record.instance_id)
        if record.seed != record_seed(suite_seed, instance, record.replicate):
            raise ValueError(f"{out_path} holds a record of {record.instance_id} whose seed "
                             f"is not suite seed {suite_seed}'s")
    existing = {record.key() for record in kept}
    pending = [
        (instance, replicate)
        for instance in instances
        for replicate in range(replicates)
        if (instance.to_str(), agent_spec, replicate) not in existing
    ]
    if pending:  # a grid source that cannot give its first grid fails before any write
        benchmark.grid(pending[0][0])
    # Each results file has a traces directory of its own, named after it,
    # so two results files in one directory never share a trace file.
    out_dir = os.path.dirname(out_path) or "."
    traces_name = os.path.splitext(os.path.basename(out_path))[0] + ".traces"
    traces_dir = os.path.join(out_dir, traces_name)
    os.makedirs(out_dir, exist_ok=True)
    if write_traces:
        os.makedirs(traces_dir, exist_ok=True)

    meta = {
        **identity,
        "agent": agent_spec,
        "subset": [index_lo, index_hi],
        "replicates": replicates,
        "concurrency": concurrency,
        "write_traces": write_traces,
    }
    if config_echo:
        meta.update(config_echo)
    # Written aside and renamed into place, so a crash never leaves a torn one.
    with open(meta_path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
    os.replace(meta_path + ".tmp", meta_path)

    # pending is grid-major: one job per grid fetches the grid once, and the
    # jobs' outcomes, in order, keep the serial order. A process pool sends
    # its workers a few grids per chunk, to pay the pickling round trip less
    # often.
    grids = [
        list(items) for _, items in itertools.groupby(pending, lambda item: item[0].grid_key)
    ]
    play = _GridJob(benchmark, agent_spec, model, suite_seed, resample_invalid,
                    write_traces, client).play
    workers = 1 if model else min(_usable_cpus(), len(grids))
    pool, chunksize = None, 1
    if concurrency > 1:
        from concurrent.futures import ThreadPoolExecutor  # only pooled runs load it

        pool = ThreadPoolExecutor(concurrency)
    elif workers > 1:
        import multiprocessing  # only pooled runs load it

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            chunksize = min(_GRIDS_PER_FORKED_CHUNK, math.ceil(len(grids) / workers))
    scored = unscored = 0
    # Line-buffered: each record reaches the file as it is written, so a
    # crash loses at most the line being written. Each trace is written
    # before its record, so every record on disk names a trace on disk.
    with (open(out_path, "a", encoding="utf-8", buffering=1) as out,
          pool or contextlib.nullcontext()):
        outcomes = pool.map(play, grids, chunksize=chunksize) if pool else map(play, grids)
        for record, text in itertools.chain.from_iterable(outcomes):
            if record.status == "scored":
                scored += 1
            else:
                unscored += 1
            if text is not None:
                record.trace_path = os.path.join(traces_name, write_trace(traces_dir, record, text))
            out.write(json.dumps(record.to_dict()) + "\n")
    return {
        "instances": len(instances),
        "requested": len(instances) * replicates,
        "skipped_existing": len(instances) * replicates - len(pending),
        "scored": scored,
        "unscored": unscored,
        "out_path": out_path,
        "meta_path": meta_path,
    }


# --- aggregation ---------------------------------------------------------

class Control(NamedTuple):
    """One report control: its table title, the ``InstanceId`` field it
    reads (None files every record in its one row) and the row label of
    each field value, in row order."""

    title: str
    field: str | None
    labels: dict


CONTROLS: dict[str, Control] = {
    "distribution": Control("Energy Distribution", "distribution", {
        DistributionKind.RANDOM: "Random",
        DistributionKind.VERTICAL_SKEW: "Vertically-skewed",
        DistributionKind.HORIZONTAL_SKEW: "Horizontally-skewed",
        DistributionKind.CLUSTER: "Cluster",
        DistributionKind.SPIRAL: "Spiral",
    }),
    "obstacle": Control("Obstacle", "has_obstacles", {True: "Yes", False: "No"}),
    "start": Control("Starting Position", "start_mode", {
        StartMode.INNER: "Inner Position",
        StartMode.OUTER: "Outer Position",
    }),
    "action-set": Control("Movement-related Action Set", "action_set", {
        ActionSet.MU1: "mu1",
        ActionSet.MU2: "mu2",
    }),
    "carry-limit": Control("Energy Carrying Limit", "carry_limit", {
        None: "No Limit",
        2: "2 Units",
    }),
    "step-cost": Control("Energy Cost Per Step", "step_cost", {
        0.0: "0 Unit",
        0.3: "0.3 Unit",
    }),
    "average": Control("", None, {None: "Average"}),
}


def control_value(control: str, instance: InstanceId) -> str | None:
    """The row label an instance falls under for one control, or None."""
    _, field, labels = CONTROLS[control]
    return labels.get(None if field is None else getattr(instance, field))


@dataclass
class AgentStats:
    n: int
    mean_length: float
    mean_energy: float
    stderr_energy: float
    is_max_energy: bool = False
    is_min_energy: bool = False


@dataclass
class AggregateRow:
    control: str
    value: str
    agents: dict[str, AgentStats]
    unscored: dict[str, int]


def _stats(records: list[RunRecord]) -> AgentStats | None:
    if not records:
        return None
    n = len(records)
    lengths = [record.length for record in records]
    energies = [record.score for record in records]
    # fsum keeps every cell independent of record order
    mean_energy = math.fsum(energies) / n
    if n > 1:
        var = math.fsum((e - mean_energy) ** 2 for e in energies) / (n - 1)
        stderr = (var / n) ** 0.5
    else:
        stderr = 0.0
    return AgentStats(
        n=n,
        mean_length=math.fsum(lengths) / n,
        mean_energy=mean_energy,
        stderr_energy=stderr,
    )


def aggregate(records: list[RunRecord], controls: list[str] | None = None) -> list[AggregateRow]:
    """Group scored records by control values and average length and energy.

    A pure fold over the records: shuffling their order never changes a cell.
    Unscored records are excluded from the means and counted per agent.
    """
    if controls is None:
        controls = list(CONTROLS)
    distinct = list(dict.fromkeys(controls))
    for control in distinct:
        if control not in CONTROLS:
            raise ValueError(f"unknown control: {control!r}")
    filed: dict[tuple[str, str, str], list[RunRecord]] = {}
    for record in records:
        instance = InstanceId.from_str(record.instance_id)
        for control in distinct:
            label = control_value(control, instance)
            if label is not None:
                filed.setdefault((control, label, record.agent), []).append(record)
    names = sorted({record.agent for record in records})
    rows = []
    for control in controls:
        for value in CONTROLS[control].labels.values():
            agents = {}
            unscored = {}
            for agent in names:
                matching = filed.get((control, value, agent), [])
                scored = [r for r in matching if r.status == "scored"]
                unscored[agent] = len(matching) - len(scored)
                stats = _stats(scored)
                if stats is not None:
                    agents[agent] = stats
            energies = {a: s.mean_energy for a, s in agents.items()}
            if len(energies) > 1:
                top = max(energies.values())
                bottom = min(energies.values())
                for agent, stats in agents.items():
                    stats.is_max_energy = stats.mean_energy == top
                    stats.is_min_energy = stats.mean_energy == bottom
            rows.append(
                AggregateRow(control=control, value=value, agents=agents, unscored=unscored)
            )
    return rows


def format_table(rows: list[AggregateRow]) -> str:
    """Aligned text table: one line per control value, Length and Energy per
    agent; in multi-agent tables the row's best energy is marked with ``*``
    and the worst with ``!``."""
    agents = sorted({agent for row in rows for agent in row.agents})
    headers = ["Control", "Value"]
    for agent in agents:
        headers.append(f"{agent} Length")
        headers.append(f"{agent} Energy")
    table = [headers]
    for row in rows:
        line = [CONTROLS[row.control].title, row.value]
        for agent in agents:
            stats = row.agents.get(agent)
            if stats is None:
                line.extend(["-", "-"])
                continue
            mark = ""
            if stats.is_max_energy:
                mark = "*"
            elif stats.is_min_energy:
                mark = "!"
            line.append(f"{stats.mean_length:.2f}")
            line.append(f"{stats.mean_energy:.2f}{mark}")
        table.append(line)
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def write_aggregates_csv(rows: list[AggregateRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "control",
                "value",
                "agent",
                "n",
                "unscored",
                "mean_length",
                "mean_energy",
                "stderr_energy",
                "is_max_energy",
                "is_min_energy",
            ]
        )
        for row in rows:
            for agent in sorted(row.agents):
                stats = row.agents[agent]
                writer.writerow(
                    [
                        row.control,
                        row.value,
                        agent,
                        stats.n,
                        row.unscored.get(agent, 0),
                        f"{stats.mean_length:.4f}",
                        f"{stats.mean_energy:.4f}",
                        f"{stats.stderr_energy:.4f}",
                        int(stats.is_max_energy),
                        int(stats.is_min_energy),
                    ]
                )


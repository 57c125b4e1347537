import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from grasp.agents import greedy_plan
from grasp.env import ActionSet, replay
from grasp.generate import DistributionKind, StartMode, generate_grid
from grasp.llm import build_prompt, write_cassette
from grasp.runner import (
    Benchmark,
    InstanceId,
    RunRecord,
    aggregate,
    control_value,
    enumerate_instances,
    format_table,
    load_records,
    record_seed,
    run_suite,
    write_aggregates_csv,
    write_benchmark,
)
from grasp.rng import derive_seed
from grasp.textgrid import render


def test_enumerate_counts():
    assert len(enumerate_instances(0, 99)) == 16000
    assert len(enumerate_instances(0, 9)) == 1600
    assert len(enumerate_instances(0, 0)) == 160


def test_enumerate_unique_and_deterministic():
    ids = [i.to_str() for i in enumerate_instances(0, 1)]
    assert len(ids) == len(set(ids)) == 320
    assert ids == [i.to_str() for i in enumerate_instances(0, 1)]


@pytest.mark.parametrize("lo, hi", [(5, 4), (-1, 3), (0, 100)])
def test_enumerate_invalid_range(lo, hi):
    with pytest.raises(ValueError):
        enumerate_instances(lo, hi)


def test_instance_id_string_round_trip():
    for instance in enumerate_instances(0, 0):
        text = instance.to_str()
        assert InstanceId.from_str(text) == instance
    sample = enumerate_instances(3, 3)[0]
    assert sample.to_str() == "dist=random/obs=0/start=in/g=3/mu=1/lim=0/cost=0"


def test_record_seed_shared_across_limit_and_cost_arms():
    base = InstanceId(
        distribution=DistributionKind.CLUSTER,
        has_obstacles=True,
        start_mode=StartMode.INNER,
        grid_index=7,
        action_set=ActionSet.MU2,
        carry_limit=None,
        step_cost=0.0,
    )
    from dataclasses import replace

    seed = record_seed(42, base, 0)
    assert seed == derive_seed(3, 42, 3, 1, 0, 7, 2, 0)
    assert record_seed(42, replace(base, step_cost=0.3), 0) == seed
    assert record_seed(42, replace(base, carry_limit=2), 0) == seed
    assert record_seed(42, replace(base, action_set=ActionSet.MU1), 0) != seed
    assert record_seed(42, replace(base, grid_index=8), 0) != seed
    assert record_seed(42, base, 1) != seed
    assert record_seed(43, base, 0) != seed


def test_benchmark_dir_matches_generated(tmp_path):
    out = tmp_path / "bench"
    manifest = write_benchmark(str(out), master_seed=11, per_combo=1)
    assert manifest["count"] == 20
    from_dir = Benchmark.from_dir(str(out))
    from_seed = Benchmark.from_seed(11)
    for instance in enumerate_instances(0, 0):
        assert render(from_dir.grid(instance)) == render(from_seed.grid(instance))


def test_write_benchmark_hash_stable(tmp_path):
    first = write_benchmark(str(tmp_path / "a"), master_seed=3, per_combo=1)
    second = write_benchmark(str(tmp_path / "b"), master_seed=3, per_combo=1)
    different = write_benchmark(str(tmp_path / "c"), master_seed=4, per_combo=1)
    assert first["content_hash"] == second["content_hash"]
    assert first["content_hash"] != different["content_hash"]


def test_write_benchmark_refuses_nonempty(tmp_path):
    out = tmp_path / "bench"
    write_benchmark(str(out), master_seed=1, per_combo=1)
    with pytest.raises(FileExistsError):
        write_benchmark(str(out), master_seed=1, per_combo=1)
    write_benchmark(str(out), master_seed=1, per_combo=1, force=True)


@pytest.mark.parametrize("per_combo", [0, -3, 101])
def test_write_benchmark_refuses_a_per_combo_out_of_range(tmp_path, per_combo):
    # run --subset reaches grid indexes 0..99 only, so 100 per combination is the most
    out = tmp_path / "bench"
    with pytest.raises(ValueError, match="per_combo"):
        write_benchmark(str(out), master_seed=1, per_combo=per_combo)
    assert not out.exists()


def test_benchmark_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError):
        Benchmark()
    with pytest.raises(ValueError):
        Benchmark(master_seed=1, root=str(tmp_path))


def test_benchmark_dir_rejects_unbuilt_index(tmp_path, monkeypatch):
    from grasp import runner

    out = tmp_path / "bench"
    write_benchmark(str(out), master_seed=1, per_combo=1)
    bench = Benchmark.from_dir(str(out))
    beyond = enumerate_instances(5, 5)[0]
    with pytest.raises(ValueError, match="not built"):
        bench.grid(beyond)
    # a run whose subset passes the built grids is refused before it writes
    # anything, on the serial path every LLM run takes
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    results = tmp_path / "run" / "results.jsonl"
    with pytest.raises(ValueError, match="not built"):
        run_suite(bench, "greedy", str(results), index_lo=0, index_hi=1)
    assert not results.exists()
    assert not (tmp_path / "run" / "results.jsonl.meta.json").exists()
    assert not (tmp_path / "run" / "results.traces").exists()


def test_run_suite_random_walk(tmp_path):
    out = str(tmp_path / "results.jsonl")
    summary = run_suite(
        Benchmark.from_seed(0), "random-walk", out, index_lo=0, index_hi=0,
        replicates=2, suite_seed=9,
    )
    assert summary["scored"] == 320
    assert summary["unscored"] == 0
    records = load_records(out)
    assert len(records) == 320
    assert all(r.length == 19 for r in records)
    assert all(r.status == "scored" for r in records)
    meta = json.loads(Path(out + ".meta.json").read_text())
    assert meta["agent"] == "random-walk"
    assert meta["replicates"] == 2


def test_run_suite_rejects_replicates_below_one(tmp_path):
    out = str(tmp_path / "results.jsonl")
    for bad in (0, -2):
        with pytest.raises(ValueError, match="replicates must be at least 1"):
            run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0,
                      replicates=bad)
    assert os.listdir(str(tmp_path)) == []


def test_run_suite_resumes(tmp_path):
    out = str(tmp_path / "results.jsonl")
    bench = Benchmark.from_seed(0)
    run_suite(bench, "greedy", out, index_lo=0, index_hi=0, suite_seed=1)
    before = Path(out).read_text()
    summary = run_suite(bench, "greedy", out, index_lo=0, index_hi=0, suite_seed=1)
    assert summary["skipped_existing"] == 160
    assert summary["scored"] == 0
    assert Path(out).read_text() == before


def test_run_suite_traces_rescore(tmp_path):
    out = str(tmp_path / "results.jsonl")
    bench = Benchmark.from_seed(5)
    run_suite(bench, "greedy", out, index_lo=0, index_hi=0, suite_seed=5)
    records = load_records(out)
    checked = 0
    for record in records[::13]:
        trace_path = os.path.join(str(tmp_path), record.trace_path)
        trace = json.loads(Path(trace_path).read_text())
        grid = bench.grid(InstanceId.from_str(record.instance_id))
        assert replay(trace, grid).score == record.score
        checked += 1
    assert checked > 5


def test_results_files_in_one_directory_keep_their_own_traces(tmp_path):
    for seed in (0, 7):
        run_suite(Benchmark.from_seed(seed), "greedy", str(tmp_path / f"s{seed}.jsonl"),
                  index_lo=0, index_hi=0, suite_seed=seed)
    for seed in (0, 7):
        records = load_records(str(tmp_path / f"s{seed}.jsonl"))
        for record in records:
            trace = json.loads((tmp_path / record.trace_path).read_text())
            assert (trace["instance_id"], trace["seed"]) == (record.instance_id, record.seed)
        assert len({record.trace_path for record in records}) == len(records) == 160
    assert sorted(os.listdir(tmp_path)) == [
        "s0.jsonl", "s0.jsonl.meta.json", "s0.traces",
        "s7.jsonl", "s7.jsonl.meta.json", "s7.traces",
    ]


def test_rescore_trace_rejects_another_grid(tmp_path):
    out = str(tmp_path / "results.jsonl")
    bench = Benchmark.from_seed(5)
    run_suite(bench, "greedy", out, index_lo=0, index_hi=0, suite_seed=5)
    record = next(r for r in load_records(out) if r.score > 0)
    trace = json.loads((tmp_path / record.trace_path).read_text())
    grid = bench.grid(InstanceId.from_str(record.instance_id))
    empty = type(grid)(
        energy=[[0] * 11 for _ in range(11)], obstacles=grid.obstacles, start=grid.start
    )
    with pytest.raises(ValueError, match="does not replay"):
        replay(trace, empty)


def test_record_dict_round_trip_and_field_order():
    instance = enumerate_instances(0, 0)[0]
    record = _record(instance)
    data = record.to_dict()
    assert list(data) == [
        "instance_id", "agent", "seed", "replicate", "status", "length", "score",
        "energy_at_start", "final_pos", "trace_path", "started_at", "finished_at",
    ]
    assert RunRecord.from_dict(json.loads(json.dumps(data))) == record
    failed = RunRecord(instance_id="x", agent="a", seed=1, replicate=0,
                       status="unscored", error="boom")
    data = failed.to_dict()
    assert list(data)[-1] == "error"
    assert RunRecord.from_dict(json.loads(json.dumps(data))) == failed


def test_load_records_torn_last_line(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    lines = [json.dumps(_record(i).to_dict()) + "\n" for i in enumerate_instances(0, 0)[:3]]
    path.write_text("".join(lines) + lines[0][:50])
    assert len(load_records(str(path))) == 3
    assert "line 4" in capsys.readouterr().err
    assert path.read_text().endswith(lines[0][:50])
    assert len(load_records(str(path), truncate_torn=True)) == 3
    assert path.read_text() == "".join(lines)
    path.write_text(lines[0] + lines[1][:50] + "\n" + lines[2])
    with pytest.raises(ValueError, match="line 2"):
        load_records(str(path))


def _cassette_for(tmp_path, index_hi=0, drop_every=None):
    """A cassette answering the instances of grids 0..index_hi at seed 0:
    every one, or all but each ``drop_every``-th."""
    bench = Benchmark.from_seed(0)
    replies = ["[RIGHT, TAKE, LEFT, DROP]", "[TAKE, DROP]", "no list", "[UP, FLY, DOWN]"]
    entries = [
        (build_prompt(bench.grid(instance), instance.constraints(), model="m").request_body(),
         replies[number % len(replies)])
        for number, instance in enumerate(enumerate_instances(0, index_hi))
        if drop_every is None or number % drop_every != drop_every - 1
    ]
    path = str(tmp_path / "cassette.json")
    write_cassette(path, entries)
    return path


def test_run_suite_concurrency_same_bytes(tmp_path):
    from grasp.llm import CassetteClient

    # Every seventh request has no reply, so its record comes back unscored.
    cassette = _cassette_for(tmp_path, index_hi=1, drop_every=7)
    outputs = []
    for concurrency in (1, 4):
        out_dir = tmp_path / f"c{concurrency}"
        out = str(out_dir / "llm.jsonl")
        run_suite(Benchmark.from_seed(0), "llm:m", out, index_lo=0, index_hi=1,
                  concurrency=concurrency, client=CassetteClient(cassette))
        records = []
        for line in Path(out).read_text().splitlines():
            record = json.loads(line)
            del record["started_at"], record["finished_at"]
            records.append(record)
        traces = {name: (out_dir / "llm.traces" / name).read_bytes()
                  for name in sorted(os.listdir(out_dir / "llm.traces"))}
        outputs.append((records, traces))
    records, traces = outputs[0]
    unscored = [record for record in records if record["status"] == "unscored"]
    assert len(records) == 320
    assert len(unscored) == 45
    assert all(record["error"] and record["trace_path"] is None for record in unscored)
    assert len(traces) == 320 - 45
    assert outputs[0] == outputs[1]


def test_run_suite_baseline_refuses_concurrency(tmp_path):
    out = tmp_path / "rw.jsonl"
    with pytest.raises(ValueError, match="serially"):
        run_suite(Benchmark.from_seed(0), "random-walk", str(out), index_lo=0, index_hi=0,
                  concurrency=2)
    assert list(tmp_path.iterdir()) == []


def test_run_suite_pool_generates_each_grid_once(tmp_path, monkeypatch):
    from grasp import runner
    from grasp.llm import CassetteClient

    cassette = _cassette_for(tmp_path)
    calls = []

    def counted(*args):
        calls.append(args[:4])
        return generate_grid(*args)

    monkeypatch.setattr(runner, "generate_grid", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so an unlocked fill would race
    try:
        run_suite(Benchmark.from_seed(0), "llm:m", str(tmp_path / "llm.jsonl"),
                  index_lo=0, index_hi=0, concurrency=4, client=CassetteClient(cassette))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 20
    assert len(set(calls)) == 20


def test_greedy_plans_once_per_grid_and_action_set(tmp_path, monkeypatch, forked_pools):
    from grasp import agents, runner

    # The plans are made in forked workers, which inherit the patch; each
    # appends its plans, with its process id, to one file.
    log = tmp_path / "plans.txt"

    def counted(grid, action_set, rng):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {grid.spec.grid_id} {action_set.value}\n")
        return greedy_plan(grid, action_set, rng)

    monkeypatch.setattr(agents, "greedy_plan", counted)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    summary = run_suite(Benchmark.from_seed(0), "greedy", str(tmp_path / "g.jsonl"),
                        index_lo=0, index_hi=0, write_traces=False)
    assert summary["scored"] == 160
    assert forked_pools == [2]
    pids, plans = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
    assert str(os.getpid()) not in pids
    assert len(plans) == 40
    assert len(set(plans)) == 40


@pytest.fixture
def forked_pools(monkeypatch):
    """The worker count of each process pool started while the test runs."""
    import concurrent.futures

    started = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counted(real):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


def _lines_without_timestamps(path):
    return [re.sub(r'"(started|finished)_at": "[^"]*"', "", line)
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True)]


@pytest.mark.parametrize("agent, from_dir", [
    pytest.param("greedy", False, id="greedy"),
    pytest.param("random-walk", False, id="random-walk"),
    pytest.param("greedy", True, id="greedy-from-dir"),
])
def test_forked_workers_write_the_serial_bytes(
    tmp_path, monkeypatch, forked_pools, agent, from_dir
):
    from grasp import runner

    walk = agent == "random-walk"
    if from_dir:
        write_benchmark(str(tmp_path / "bench"), master_seed=0, per_combo=2)
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(runner, "_usable_cpus", lambda n=cpus: n)
        out_dir = tmp_path / f"cpus{cpus}"
        bench = Benchmark.from_dir(str(tmp_path / "bench")) if from_dir else Benchmark.from_seed(0)
        run_suite(bench, agent, str(out_dir / "r.jsonl"),
                  index_lo=0, index_hi=1, replicates=2 if walk else 1,
                  resample_invalid=walk)
        traces = {name: (out_dir / "r.traces" / name).read_bytes()
                  for name in sorted(os.listdir(out_dir / "r.traces"))}
        outputs.append((_lines_without_timestamps(out_dir / "r.jsonl"), traces))
    assert forked_pools == [2]
    assert len(outputs[0][0]) == len(outputs[0][1]) == (640 if walk else 320)
    assert outputs[0] == outputs[1]


# (complete lines kept, bytes of the next line kept, traces past the cut kept,
# usable CPUs): each combination of a cut on or inside a line, kept or dropped
# traces and a serial or forked resume, at cuts spread over the file. A cut
# of -1 bytes takes only the line end: that record stands.
_CRASHES = [
    (0, 0, True, 1), (37, 0, False, 2), (160, 0, True, 2), (319, 0, False, 1),
    (5, 1, True, 2), (120, 90, False, 1), (200, -1, True, 1), (300, 40, False, 2),
]


def test_resume_after_a_crash_writes_the_uninterrupted_bytes(tmp_path, monkeypatch):
    from grasp import runner

    reference = tmp_path / "reference"
    run_suite(Benchmark.from_seed(0), "greedy", str(reference / "r.jsonl"), index_lo=0, index_hi=1)
    lines = (reference / "r.jsonl").read_bytes().splitlines(keepends=True)
    traces = {name: (reference / "r.traces" / name).read_bytes()
              for name in os.listdir(reference / "r.traces")}
    assert len(lines) == len(traces) == 320
    for number, (whole, part, keep_traces, cpus) in enumerate(_CRASHES):
        crashed = tmp_path / f"crash{number}"
        (crashed / "r.traces").mkdir(parents=True)
        shutil.copy(reference / "r.jsonl.meta.json", crashed / "r.jsonl.meta.json")
        (crashed / "r.jsonl").write_bytes(b"".join(lines[:whole]) + lines[whole][:part])
        kept = {json.loads(line)["trace_path"] for line in lines[:whole]}
        for name, data in traces.items():
            if keep_traces or os.path.join("r.traces", name) in kept:
                (crashed / "r.traces" / name).write_bytes(data)
        monkeypatch.setattr(runner, "_usable_cpus", lambda n=cpus: n)
        summary = run_suite(Benchmark.from_seed(0), "greedy", str(crashed / "r.jsonl"),
                            index_lo=0, index_hi=1)
        assert summary["skipped_existing"] == whole + (part < 0)
        assert _lines_without_timestamps(crashed / "r.jsonl") == \
            _lines_without_timestamps(reference / "r.jsonl")
        assert {name: (crashed / "r.traces" / name).read_bytes()
                for name in os.listdir(crashed / "r.traces")} == traces


def test_resume_with_at_most_one_grid_pending_starts_no_pool(
    tmp_path, monkeypatch, forked_pools
):
    from grasp import runner

    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    out = tmp_path / "g.jsonl"
    run_suite(Benchmark.from_seed(0), "greedy", str(out), index_lo=0, index_hi=0)
    assert forked_pools == [2]
    full = _lines_without_timestamps(out)
    # The last 8 records are the last grid's: its 2 action sets x 4 arms.
    out.write_text("".join(out.read_text().splitlines(keepends=True)[:-8]))
    summary = run_suite(Benchmark.from_seed(0), "greedy", str(out), index_lo=0, index_hi=0)
    assert (summary["scored"], summary["skipped_existing"]) == (8, 152)
    assert _lines_without_timestamps(out) == full
    summary = run_suite(Benchmark.from_seed(0), "greedy", str(out), index_lo=0, index_hi=0)
    assert (summary["scored"], summary["skipped_existing"]) == (0, 160)
    assert forked_pools == [2]


def _without_timestamps(path):
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        del record["started_at"], record["finished_at"]
        records.append(record)
    return sorted(records, key=lambda record: record["instance_id"])


@pytest.mark.parametrize("agent", ["greedy", "random-walk"])
def test_resume_from_limit_arms_matches_full_run(tmp_path, agent):
    # The plan of a (grid, action set, replicate) is made once per chunk and
    # shared by its arms; a resume that only has the other arms left must
    # still make the same plans.
    full, part = tmp_path / "full", tmp_path / "part"
    part.mkdir()
    kwargs = dict(index_lo=0, index_hi=1, replicates=2, suite_seed=3,
                  resample_invalid=agent == "random-walk")
    run_suite(Benchmark.from_seed(0), agent, str(full / "r.jsonl"), **kwargs)
    shutil.copy(full / "r.jsonl.meta.json", part / "r.jsonl.meta.json")
    kept = [line for line in (full / "r.jsonl").read_text().splitlines(True) if "/lim=2/" in line]
    (part / "r.jsonl").write_text("".join(kept))
    summary = run_suite(Benchmark.from_seed(0), agent, str(part / "r.jsonl"), **kwargs)
    assert summary["skipped_existing"] == len(kept) == 320
    assert summary["scored"] == 320
    assert _without_timestamps(part / "r.jsonl") == _without_timestamps(full / "r.jsonl")
    for name in os.listdir(part / "r.traces"):
        assert (part / "r.traces" / name).read_bytes() == (full / "r.traces" / name).read_bytes()


def test_llm_run_renders_each_grid_once(tmp_path, monkeypatch):
    from grasp import runner
    from grasp.llm import CassetteClient

    cassette = _cassette_for(tmp_path, index_hi=1)
    renders = []

    def counted(grid):
        renders.append(grid.spec.grid_id)
        return render(grid)

    monkeypatch.setattr(runner, "render", counted)
    summary = run_suite(Benchmark.from_seed(0), "llm:m", str(tmp_path / "llm.jsonl"),
                        index_lo=0, index_hi=1, concurrency=2,
                        client=CassetteClient(cassette))
    # Every prompt still hits the cassette, so the prompt bytes are unchanged.
    assert (summary["scored"], summary["unscored"]) == (320, 0)
    assert len(renders) == len(set(renders)) == 40


CRASHING_RUN = """
import os, sys
from grasp.runner import Benchmark, run_suite

class CrashingClient:
    calls = 0

    def complete(self, bundle):
        CrashingClient.calls += 1
        if CrashingClient.calls == 21:
            os._exit(1)
        return "[TAKE, DROP]"

run_suite(Benchmark.from_seed(0), "llm:m", sys.argv[1], index_lo=0, index_hi=0,
          client=CrashingClient())
"""


def test_crash_keeps_every_record_written(tmp_path):
    # The 21st request kills the process mid-way through the third grid: the
    # records of the first two grids, 16, must all be on disk.
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("grasp").__file__)))
    out = tmp_path / "llm.jsonl"
    proc = subprocess.run([sys.executable, "-c", CRASHING_RUN, str(out)],
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert len(os.listdir(tmp_path / "llm.traces")) == 16
    lines = out.read_text().splitlines(keepends=True)
    assert len(lines) == 16
    assert all(line.endswith("\n") for line in lines)
    assert len(load_records(str(out))) == 16


def test_resume_identity_from_older_meta_matches(tmp_path):
    out = str(tmp_path / "results.jsonl")
    run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0)
    meta_path = tmp_path / "results.jsonl.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["master_seed"]  # meta files written before it was recorded lack it
    meta_path.write_text(json.dumps(meta))
    summary = run_suite(Benchmark.from_seed(7), "greedy", out, index_lo=0, index_hi=0)
    assert summary["skipped_existing"] == 160


def test_resume_refuses_records_without_a_meta_file(tmp_path):
    out = str(tmp_path / "results.jsonl")
    run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0)
    os.remove(out + ".meta.json")
    before = sorted(os.listdir(tmp_path)), Path(out).read_bytes()
    with pytest.raises(ValueError) as err:
        run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=1, suite_seed=7)
    assert out in str(err.value) and out + ".meta.json" in str(err.value)
    assert (sorted(os.listdir(tmp_path)), Path(out).read_bytes()) == before
    Path(out).write_bytes(b"")  # an empty results file holds nothing to mix up
    summary = run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0)
    assert summary["scored"] == 160


def test_resume_refuses_records_of_another_suite_seed(tmp_path):
    out = tmp_path / "results.jsonl"
    meta = tmp_path / "results.jsonl.meta.json"
    run_suite(Benchmark.from_seed(0), "greedy", str(out), index_lo=0, index_hi=0)
    other = str(tmp_path / "other.jsonl")
    run_suite(Benchmark.from_seed(0), "greedy", other, index_lo=1, index_hi=1, suite_seed=7)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(Path(other).read_text(encoding="utf-8"))
    before = out.read_bytes(), meta.read_bytes()
    with pytest.raises(ValueError) as err:
        run_suite(Benchmark.from_seed(0), "greedy", str(out), index_lo=0, index_hi=1)
    assert str(out) in str(err.value)
    assert "dist=random/obs=0/start=in/g=1/mu=1/lim=0/cost=0" in str(err.value)
    assert (out.read_bytes(), meta.read_bytes()) == before


def test_meta_file_is_replaced_whole(tmp_path, monkeypatch):
    out = str(tmp_path / "results.jsonl")
    meta_path = Path(out + ".meta.json")
    run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0)
    meta = meta_path.read_bytes()

    def crash(src, dst):
        raise OSError("killed before the rename")

    # A crash before the rename leaves the old meta file whole.
    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="killed"):
        run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0, replicates=2)
    monkeypatch.undo()
    assert meta_path.read_bytes() == meta
    # A torn or foreign one is refused by name.
    for text in ('{"suite_seed": ', "[1]"):
        meta_path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(meta_path))):
            run_suite(Benchmark.from_seed(0), "greedy", out, index_lo=0, index_hi=0)


def test_run_suite_llm_cassette_and_unscored(tmp_path):
    bench = Benchmark.from_seed(0)
    instances = enumerate_instances(0, 0)[:6]
    entries = []
    for instance in instances[:4]:
        bundle = build_prompt(
            bench.grid(instance), instance.constraints(), model="test-model"
        )
        entries.append((bundle.request_body(), "[RIGHT, TAKE, LEFT, DROP]"))
    cassette = str(tmp_path / "cassette.json")
    write_cassette(cassette, entries)

    from grasp.llm import CassetteClient

    out = str(tmp_path / "llm.jsonl")
    summary = run_suite(
        Benchmark.from_seed(0), "llm:test-model", out, index_lo=0, index_hi=0,
        suite_seed=0, client=CassetteClient(cassette),
    )
    records = load_records(out)
    assert len(records) == 160
    scored = [r for r in records if r.status == "scored"]
    unscored = [r for r in records if r.status == "unscored"]
    assert summary["scored"] == len(scored) > 0
    assert summary["unscored"] == len(unscored) > 0
    for record in unscored:
        assert record.instance_id in record.error
        assert record.score is None


def test_run_suite_llm_requires_client(tmp_path):
    with pytest.raises(ValueError, match="client"):
        run_suite(
            Benchmark.from_seed(0), "llm:m", str(tmp_path / "x.jsonl"),
            index_lo=0, index_hi=0,
        )


def test_parse_agent_rejects_unknown():
    from grasp.agents import BASELINES, parse_agent

    assert parse_agent("random-walk") is None
    assert parse_agent("greedy") is None
    assert list(BASELINES) == ["random-walk", "greedy"]
    assert parse_agent("llm:gpt-x") == "gpt-x"
    with pytest.raises(ValueError):
        parse_agent("llm:")
    with pytest.raises(ValueError):
        parse_agent("dijkstra")


def _record(instance, agent="a", score=1.0, length=19, status="scored", rep=0):
    return RunRecord(
        instance_id=instance.to_str(), agent=agent, seed=0, replicate=rep,
        status=status, length=length, score=score, energy_at_start=0,
        final_pos=(0, 0),
    )


def test_aggregate_single_record_everywhere():
    instance = enumerate_instances(0, 0)[0]
    rows = aggregate([_record(instance, score=1.0, length=19)])
    matching = [
        row for row in rows
        if row.value == control_value(row.control, instance)
    ]
    assert len(matching) == 7  # six controls plus the average row
    for row in matching:
        stats = row.agents["a"]
        assert stats.n == 1
        assert stats.mean_length == 19.0
        assert stats.mean_energy == 1.0


def test_control_rows_in_table_order():
    rows = aggregate([_record(enumerate_instances(0, 0)[0])])
    assert [(row.control, row.value) for row in rows] == [
        ("distribution", "Random"),
        ("distribution", "Vertically-skewed"),
        ("distribution", "Horizontally-skewed"),
        ("distribution", "Cluster"),
        ("distribution", "Spiral"),
        ("obstacle", "Yes"),
        ("obstacle", "No"),
        ("start", "Inner Position"),
        ("start", "Outer Position"),
        ("action-set", "mu1"),
        ("action-set", "mu2"),
        ("carry-limit", "No Limit"),
        ("carry-limit", "2 Units"),
        ("step-cost", "0 Unit"),
        ("step-cost", "0.3 Unit"),
        ("average", "Average"),
    ]
    with pytest.raises(ValueError, match="unknown control"):
        aggregate([], controls=["colour"])


def test_aggregate_is_order_invariant():
    instances = enumerate_instances(0, 1)
    records = [
        _record(inst, score=(i % 7) - 3.0, length=10 + i % 9)
        for i, inst in enumerate(instances)
    ]
    rows_sorted = aggregate(records)
    shuffled = records[:]
    random.Random(5).shuffle(shuffled)
    rows_shuffled = aggregate(shuffled)
    assert rows_sorted == rows_shuffled


def test_aggregate_counts_partition_per_control():
    instances = enumerate_instances(0, 2)
    records = [_record(inst) for inst in instances]
    rows = aggregate(records)
    for control in ("distribution", "obstacle", "step-cost"):
        total = sum(
            row.agents["a"].n for row in rows if row.control == control
        )
        assert total == len(records)


def test_aggregate_excludes_unscored_but_counts_them():
    instances = enumerate_instances(0, 0)[:4]
    records = [_record(i, score=2.0) for i in instances[:3]]
    records.append(_record(instances[3], status="unscored", score=None, length=None))
    rows = aggregate(records, controls=["average"])
    row = rows[0]
    assert row.agents["a"].n == 3
    assert row.agents["a"].mean_energy == 2.0
    assert row.unscored["a"] == 1


def test_aggregate_cost_arm_pairing_random_walk(tmp_path):
    out = str(tmp_path / "rw.jsonl")
    run_suite(Benchmark.from_seed(0), "random-walk", out, index_lo=0, index_hi=0,
              suite_seed=7, write_traces=False)
    rows = aggregate(load_records(out), controls=["step-cost"])
    by_value = {row.value: row.agents["random-walk"] for row in rows}
    delta = by_value["0 Unit"].mean_energy - by_value["0.3 Unit"].mean_energy
    assert delta == pytest.approx(5.7, abs=1e-9)


def test_format_table_marks_extremes():
    instance = enumerate_instances(0, 0)[0]
    records = [
        _record(instance, agent="good", score=2.0),
        _record(instance, agent="bad", score=-1.0),
    ]
    text = format_table(aggregate(records, controls=["average"]))
    assert "2.00*" in text
    assert "-1.00!" in text
    assert "Average" in text


def test_csv_export(tmp_path):
    instance = enumerate_instances(0, 0)[0]
    rows = aggregate([_record(instance)], controls=["average", "obstacle"])
    path = tmp_path / "agg.csv"
    write_aggregates_csv(rows, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("control,value,agent,n,")
    assert len(lines) >= 2

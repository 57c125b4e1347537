import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grasp.cli import main
from grasp.generate import DistributionKind, StartMode, generate_grid, grid_to_dict
from grasp.llm import build_prompt, write_cassette
from grasp.runner import Benchmark, enumerate_instances, load_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_counts_and_idempotent_hash(tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    code, stdout, _ = run_cli(capsys, "gen", "--out", out_a, "--seed", "3",
                              "--per-combo", "1", "--json")
    assert code == 0
    first = json.loads(stdout)
    assert first["count"] == 20
    code, stdout, _ = run_cli(capsys, "gen", "--out", out_b, "--seed", "3",
                              "--per-combo", "1", "--json")
    assert json.loads(stdout)["content_hash"] == first["content_hash"]
    manifest = json.loads(Path(out_a, "manifest.json").read_text())
    assert manifest["count"] == 20
    assert len(manifest["grids"]) == 20


def test_gen_refuses_nonempty_without_force(tmp_path, capsys):
    out = str(tmp_path / "bench")
    assert run_cli(capsys, "gen", "--out", out, "--per-combo", "1")[0] == 0
    code, _, err = run_cli(capsys, "gen", "--out", out, "--per-combo", "1")
    assert code == 1
    assert "not empty" in err
    assert run_cli(capsys, "gen", "--out", out, "--per-combo", "1", "--force")[0] == 0


def test_render_prints_24_lines(tmp_path, capsys):
    out = str(tmp_path / "bench")
    run_cli(capsys, "gen", "--out", out, "--per-combo", "1")
    grid_json = os.path.join(out, "grids", "random", "obs0", "inner", "000.json")
    code, stdout, _ = run_cli(capsys, "render", grid_json)
    assert code == 0
    lines = stdout.split("\n")[:-1]
    assert len(lines) == 24
    txt = Path(grid_json.replace(".json", ".txt")).read_text()
    assert stdout == txt


def test_run_and_report(tmp_path, capsys):
    results = str(tmp_path / "results.jsonl")
    code, stdout, _ = run_cli(
        capsys, "run", "--agent", "random-walk", "--out", results,
        "--seed", "1", "--subset", "0..0", "--json",
    )
    assert code == 0
    assert json.loads(stdout)["scored"] == 160
    code, stdout, _ = run_cli(capsys, "report", "--results", results)
    assert code == 0
    assert "Energy Distribution" in stdout
    assert "Average" in stdout
    csv_path = str(tmp_path / "agg.csv")
    code, stdout, _ = run_cli(
        capsys, "report", "--results", results, "--group-by", "step-cost",
        "--csv", csv_path, "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert {row["value"] for row in payload["rows"]} == {"0 Unit", "0.3 Unit"}
    assert os.path.exists(csv_path)


def test_run_rejects_replicates_below_one(tmp_path, capsys):
    results = str(tmp_path / "results.jsonl")
    for bad in ("0", "-2", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--agent", "greedy", "--out", results, "--replicates", bad])
        assert exc.value.code == 2
        assert "--replicates: must be an integer >= 1" in capsys.readouterr().err
    assert os.listdir(str(tmp_path)) == []


def test_run_rejects_a_bad_client_config(tmp_path, capsys):
    config = tmp_path / "client.json"
    config.write_text(json.dumps({"max_retries": "3"}))
    results = str(tmp_path / "llm.jsonl")
    code, _, err = run_cli(capsys, "run", "--agent", "llm:m", "--out", results,
                           "--subset", "0..0", "--llm-config", str(config))
    assert code == 1
    assert "client config key 'max_retries' must be int >= 1: '3'" in err
    assert not os.path.exists(results)


def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    config = tmp_path / "client.json"
    config.write_text("[1]")
    results = str(tmp_path / "llm.jsonl")
    code, _, err = run_cli(capsys, "run", "--agent", "llm:m", "--out", results,
                           "--subset", "0..0", "--llm-config", str(config))
    assert code == 1
    assert err == f"error: client config {config} must hold a JSON object\n"
    assert not os.path.exists(results)


@pytest.mark.parametrize("record", [False, True])
def test_live_run_without_a_credential_refuses_to_start(tmp_path, capsys, monkeypatch,
                                                        record):
    monkeypatch.delenv("GRASP_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    results = str(tmp_path / "llm.jsonl")
    argv = ["run", "--agent", "llm:m", "--out", results, "--subset", "0..0"]
    if record:
        argv += ["--record-cassette", str(tmp_path / "cassette.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: no API credential in $GRASP_API_KEY or $OPENAI_API_KEY\n"
    assert os.listdir(tmp_path) == []


def test_run_resume_via_cli(tmp_path, capsys):
    results = str(tmp_path / "results.jsonl")
    args = ("run", "--agent", "greedy", "--out", results, "--subset", "0..0", "--json")
    run_cli(capsys, *args)
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["scored"] == 0
    assert summary["skipped_existing"] == 160


def test_run_llm_with_cassette_offline(tmp_path, capsys):
    bench = Benchmark.from_seed(0)
    entries = []
    for instance in enumerate_instances(0, 0):
        bundle = build_prompt(bench.grid(instance), instance.constraints(), model="m")
        entries.append((bundle.request_body(), "[UP, TAKE, DOWN, DROP]"))
    cassette = str(tmp_path / "cassette.json")
    write_cassette(cassette, entries)
    results = str(tmp_path / "llm.jsonl")
    code, stdout, _ = run_cli(
        capsys, "run", "--agent", "llm:m", "--out", results, "--subset", "0..0",
        "--cassette", cassette, "--json",
    )
    assert code == 0
    assert json.loads(stdout)["scored"] == 160
    assert all(r.length == 4 for r in load_records(results))


def test_run_llm_concurrency_from_config(tmp_path, capsys):
    bench = Benchmark.from_seed(0)
    entries = []
    for instance in enumerate_instances(0, 0)[:40]:
        bundle = build_prompt(bench.grid(instance), instance.constraints(), model="m")
        entries.append((bundle.request_body(), "[TAKE]"))
    cassette = str(tmp_path / "cassette.json")
    write_cassette(cassette, entries)
    config = tmp_path / "client.json"
    config.write_text(json.dumps({"concurrency": 4}))
    results = str(tmp_path / "llm.jsonl")
    code, stdout, _ = run_cli(
        capsys, "run", "--agent", "llm:m", "--out", results, "--subset", "0..0",
        "--cassette", cassette, "--llm-config", str(config), "--json",
    )
    assert code == 0
    meta = json.loads(Path(results + ".meta.json").read_text())
    assert meta["concurrency"] == 4


def test_trace_command_writes_svg(tmp_path, capsys):
    results = str(tmp_path / "results.jsonl")
    run_cli(capsys, "run", "--agent", "random-walk", "--out", results,
            "--subset", "0..0", "--seed", "2")
    record = load_records(results)[0]
    trace_path = os.path.join(str(tmp_path), record.trace_path)
    svg_path = str(tmp_path / "figure.svg")
    code, _, _ = run_cli(capsys, "trace", trace_path, "--seed", "2",
                         "--out", svg_path)
    assert code == 0
    content = Path(svg_path).read_text()
    assert content.startswith("<svg")
    assert content.count('href="#take-star"') == 6


def test_trace_needs_grid_source(tmp_path, capsys):
    results = str(tmp_path / "results.jsonl")
    run_cli(capsys, "run", "--agent", "greedy", "--out", results, "--subset", "0..0")
    record = load_records(results)[0]
    trace_path = os.path.join(str(tmp_path), record.trace_path)
    code, _, err = run_cli(capsys, "trace", trace_path)
    assert code == 1
    assert "--benchmark or --seed" in err


def test_unknown_flag_fails_fast(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--agent", "greedy", "--out", "x", "--frobnicate"])
    assert exit_info.value.code == 2


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--seed", "--subset", "--replicates",
                 "--resample-invalid", "--cassette", "--json"):
        assert flag in text
    assert "--workers" not in text


def test_missing_results_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", "--results", str(tmp_path / "none.jsonl"))
    assert code == 1


def test_torn_last_line_is_dropped_then_rescored(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    results = str(path)
    args = ("run", "--agent", "random-walk", "--out", results, "--subset", "0..0",
            "--seed", "0", "--no-traces", "--json")
    run_cli(capsys, *args)
    whole = path.read_bytes()
    lines = whole.splitlines(keepends=True)
    path.write_bytes(whole[:-40])  # a crash mid-write tore the last record

    code, _, err = run_cli(capsys, "report", "--results", results)
    assert code == 0
    assert "torn last line" in err

    code, stdout, err = run_cli(capsys, *args)
    assert code == 0
    assert "torn last line" in err
    summary = json.loads(stdout)
    assert summary["scored"] == 1
    assert summary["skipped_existing"] == 159
    resumed = path.read_bytes().splitlines(keepends=True)
    assert resumed[:-1] == lines[:-1]
    dropped, rescored = (json.loads(line) for line in (lines[-1], resumed[-1]))
    for record in (dropped, rescored):
        del record["started_at"], record["finished_at"]
    assert rescored == dropped
    assert run_cli(capsys, "report", "--results", results)[2] == ""


def test_resume_under_another_seed_is_refused(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    results = str(path)
    args = ("run", "--agent", "random-walk", "--out", results, "--subset", "0..0")
    assert run_cli(capsys, *args, "--seed", "0")[0] == 0
    meta = tmp_path / "results.jsonl.meta.json"
    before, meta_before = path.read_bytes(), meta.read_bytes()
    code, stdout, err = run_cli(capsys, *args, "--seed", "7")
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "suite seed 0, not 7" in err
    assert path.read_bytes() == before
    assert meta.read_bytes() == meta_before
    assert run_cli(capsys, *args, "--seed", "0")[0] == 0


def test_resume_against_other_grids_is_refused(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    results = str(path)
    args = ("run", "--agent", "greedy", "--out", results, "--subset", "0..0", "--json")
    assert run_cli(capsys, *args, "--seed", "0")[0] == 0
    meta = tmp_path / "results.jsonl.meta.json"
    before, meta_before = path.read_bytes(), meta.read_bytes()
    for seed in ("0", "5"):
        run_cli(capsys, "gen", "--out", str(tmp_path / f"gen{seed}"), "--seed", seed,
                "--per-combo", "1")

    code, stdout, err = run_cli(capsys, *args, "--seed", "0",
                                "--benchmark", str(tmp_path / "gen5"))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "master seed 0, not 5" in err
    assert path.read_bytes() == before
    assert meta.read_bytes() == meta_before

    code, stdout, _ = run_cli(capsys, *args, "--seed", "0",
                              "--benchmark", str(tmp_path / "gen0"))
    assert code == 0
    assert json.loads(stdout)["skipped_existing"] == 160
    assert path.read_bytes() == before

    # resample_invalid is part of a walk's identity: the walk is the agent that reads it.
    walk = tmp_path / "walk.jsonl"
    walk_args = ("run", "--agent", "random-walk", "--out", str(walk), "--subset", "0..0",
                 "--seed", "0")
    assert run_cli(capsys, *walk_args)[0] == 0
    walk_meta = tmp_path / "walk.jsonl.meta.json"
    before, meta_before = walk.read_bytes(), walk_meta.read_bytes()
    code, _, err = run_cli(capsys, *walk_args, "--resample-invalid")
    assert code == 1
    assert "resample invalid False, not True" in err
    assert walk.read_bytes() == before
    assert walk_meta.read_bytes() == meta_before


def test_run_rejects_bad_concurrency(tmp_path, capsys):
    config = tmp_path / "client.json"
    config.write_text(json.dumps({"concurrency": "2"}))
    code, _, err = run_cli(
        capsys, "run", "--agent", "llm:m", "--out", str(tmp_path / "llm.jsonl"),
        "--subset", "0..0", "--llm-config", str(config),
    )
    assert code == 1
    assert err.startswith("error: ") and "'concurrency'" in err


def test_import_loads_no_thread_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("grasp").__file__)))
    code = ("import sys, grasp.cli; print(sorted("
            "{'concurrent.futures', 'logging', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_src_imports_only_the_stdlib():
    """grasp has no runtime dependency: every module that src/grasp imports,
    at the top or inside a function, is in the standard library or grasp."""
    package = Path(__import__("grasp").__file__).parent
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert {"http", "concurrent", "multiprocessing"} <= imported.keys()  # imported in functions
    foreign = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names and name != "grasp"}
    assert foreign == {}


@pytest.mark.parametrize("agent", ["greedy", "llm:m"])
def test_resample_invalid_is_refused_for_agents_that_do_not_read_it(tmp_path, capsys, agent):
    cassette = str(tmp_path / "cassette.json")
    write_cassette(cassette, [])
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--agent", agent, "--out", str(out / "r.jsonl"),
                                "--subset", "0..0", "--cassette", cassette, "--resample-invalid")
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "resample_invalid" in err
    assert not out.exists()


@pytest.mark.parametrize("per_combo", ["0", "-3", "101"])
def test_gen_refuses_a_per_combo_out_of_range(tmp_path, capsys, per_combo):
    out = tmp_path / "bench"
    code, _, err = run_cli(capsys, "gen", "--out", str(out), "--per-combo", per_combo)
    assert code == 1
    assert err == f"error: per_combo must be from 1 to 100, got {per_combo}\n"
    assert not out.exists()


def _grid_dict(**fields):
    grid = generate_grid(DistributionKind.CLUSTER, True, StartMode.INNER, 0, 3)
    return {**grid_to_dict(grid), **fields}


_TRACE = {"instance_id": "dist=random/obs=0/start=in/g=0/mu=1/lim=0/cost=0",
          "actions": [], "effects": []}


@pytest.mark.parametrize("command, content, complaint", [
    ("render", [1], "holds no JSON object"),
    ("render", {"start": [0, 0]}, "has no field 'cells'"),
    ("trace", [1], "holds no JSON object"),
    ("trace", {}, "has no field 'instance_id'"),
    ("render", _grid_dict(params=[1]), "field 'params' holds no JSON object"),
    ("render", _grid_dict(params={"bogus": 1}), "field 'params' has unknown field 'bogus'"),
    ("trace", {**_TRACE, "constraints": {}}, "field 'constraints' has no field 'action_set'"),
    ("trace", {**_TRACE, "constraints": []}, "field 'constraints' holds no JSON object"),
    ("trace", "{", "does not parse"),
])
def test_render_and_trace_refuse_a_file_they_cannot_read(
    tmp_path, capsys, command, content, complaint
):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    seed = ("--seed", "0") if command == "trace" else ()
    code, stdout, err = run_cli(capsys, command, str(path), *seed)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {path} {complaint}")
    assert os.listdir(tmp_path) == ["input.json"]


def test_run_refuses_a_benchmark_whose_grid_lacks_a_field(tmp_path, capsys):
    bench = tmp_path / "bench"
    assert run_cli(capsys, "gen", "--out", str(bench), "--per-combo", "1")[0] == 0
    grid = bench / "grids" / "random" / "obs0" / "inner" / "000.json"
    data = json.loads(grid.read_text())
    del data["start"]
    grid.write_text(json.dumps(data))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--agent", "greedy", "--benchmark", str(bench),
                                "--subset", "0..0", "--out", str(out / "r.jsonl"))
    assert code == 1
    assert stdout == ""
    assert err == f"error: {grid} has no field 'start'\n"
    assert not out.exists()


@pytest.mark.parametrize("params, complaint", [
    ([1], "holds no JSON object"),
    ({"bogus": 1}, "has unknown field 'bogus'"),
])
def test_run_refuses_a_benchmark_whose_grid_params_cannot_be_read(
    tmp_path, capsys, params, complaint
):
    bench = tmp_path / "bench"
    assert run_cli(capsys, "gen", "--out", str(bench), "--per-combo", "1")[0] == 0
    grid = bench / "grids" / "random" / "obs0" / "inner" / "000.json"
    grid.write_text(json.dumps({**json.loads(grid.read_text()), "params": params}))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--agent", "greedy", "--benchmark", str(bench),
                                "--subset", "0..0", "--out", str(out / "r.jsonl"))
    assert code == 1
    assert stdout == ""
    assert err == f"error: {grid} field 'params' {complaint}\n"
    assert not out.exists()


@pytest.mark.parametrize("content, complaint", [
    ([1], "must hold an object whose records are an object"),
    ({"records": [1]}, "must hold an object whose records are an object"),
    ({"records": {"k": 1}}, "record 'k' has no string response"),
    ({"records": {"k": {"request": {}}}}, "record 'k' has no string response"),
    ({"records": {"k": {"request": {}, "response": None}}}, "record 'k' has no string response"),
])
def test_run_refuses_a_malformed_cassette_before_writing(tmp_path, capsys, content, complaint):
    cassette = tmp_path / "cassette.json"
    cassette.write_text(json.dumps(content))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--agent", "llm:m", "--cassette", str(cassette),
                                "--subset", "0..0", "--out", str(out / "r.jsonl"))
    assert code == 1
    assert stdout == ""
    assert err == f"error: cassette {cassette} {complaint}\n"
    assert not out.exists()

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grasp.cli import main
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
    code, _, err = run_cli(capsys, *args, "--seed", "0", "--resample-invalid")
    assert code == 1
    assert "resample invalid False, not True" in err
    assert path.read_bytes() == before
    assert meta.read_bytes() == meta_before

    code, stdout, _ = run_cli(capsys, *args, "--seed", "0",
                              "--benchmark", str(tmp_path / "gen0"))
    assert code == 0
    assert json.loads(stdout)["skipped_existing"] == 160
    assert path.read_bytes() == before


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


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("grasp").__file__)))
    code = "import sys, grasp.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"

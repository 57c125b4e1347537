"""Benchmark for grasp: the paper's full-size protocol, run as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a grasp checkout; grasp is imported from its ``src``.
A round of a workload makes its inputs (``gen`` or the cassettes) twice to
time set-up. It runs the 16,000-instance suite as ten ``run --subset``
parts of 1,600 instances (``parts.py``), every part in a directory of its
own, so that the run stage is timed ten times. The ten results files are
joined into one, which ``report --csv`` then reads eight times; the second
set-up and a resume ``run`` (nothing left to do) sit between the reports.
Every stage runs in a fresh interpreter through ``grasp.cli.main``. The
outputs are then checked against the reference in ``oracle.py``. Metrics
are medians over the samples of a stage. With ``--trace 1`` one traced round is run and the
per-layer metrics are reported instead. The last stdout line is the JSON
result; everything else on stdout is for people.

Workloads (why each exists is in README.md):
    greedy-traced    gen, greedy over 16,000 instances with traces
    llm-cassette     cassettes of 16,000 scripted replies, llm agent, 2 threads
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import cassette
import checks
from parts import PARTS
from tracing import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

RUN_LIMIT_S = 165  # a run must end within 180 s; no round starts that would pass this


class StageFailed(Exception):
    pass


class Workload:
    def __init__(self, name, agent, run_args, uses_gen=True, workers=1):
        self.name = name
        self.agent = agent
        self.run_args = run_args  # part index -> the part's extra ``run`` arguments
        self.uses_gen = uses_gen
        self.workers = workers


def _part_inputs(k: int) -> list[str]:
    return ["--cassette", f"inputs0/part{k}/cassette.json",
            "--llm-config", f"inputs0/part{k}/client.json"]


WORKLOADS = {
    w.name: w for w in (
        Workload("greedy-traced", "greedy", lambda k: ["--benchmark", "gen0"]),
        Workload("llm-cassette", cassette.AGENT, _part_inputs,
                 uses_gen=False, workers=cassette.CONCURRENCY),
    )
}


class Round:
    """One pass of a workload in its own directory."""

    def __init__(self, workload: Workload, seed: int, rdir: str, trace: bool, deadline: float):
        self.w = workload
        self.seed = seed
        self.rdir = rdir
        self.trace = trace
        self.deadline = deadline
        self.logs = os.path.join(rdir, "logs")
        os.makedirs(self.logs)
        self.stages: dict[str, dict] = {}

    def stage(self, label: str, mode_args: list[str], traced: bool = False) -> dict:
        """Run one stage in a child interpreter and time it from spawn to exit."""
        stats_path = os.path.join(self.logs, label + ".stats.json")
        cmd = [sys.executable, os.path.join(HERE, "stage.py"), "--src", SRC,
               "--stats", stats_path]
        if traced:
            cmd += ["--spans", os.path.join(self.logs, label)]
        cmd += mode_args
        out_path = os.path.join(self.logs, label + ".out")
        err_path = os.path.join(self.logs, label + ".err")
        timeout = max(1.0, self.deadline - time.monotonic())
        # Flush what earlier stages and rounds wrote, so their writeback
        # does not land inside this stage's timing.
        os.sync()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.rdir, stdout=out, stderr=err, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise StageFailed(f"{label}: no exit within {timeout:.0f} s") from exc
            wall = time.perf_counter() - start
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            err_text = handle.read()
        if proc.returncode != 0:
            raise StageFailed(f"{label}: exit {proc.returncode}: {err_text[-2000:]}")
        with open(stats_path, encoding="utf-8") as handle:
            stats = json.load(handle)
        with open(out_path, encoding="utf-8") as handle:
            stats["stdout"] = handle.read()
        stats["wall_s"] = wall - stats["dump_s"]
        if traced:
            stats["spans"] = summarize(os.path.join(self.logs, label))
        self.stages[label] = stats
        return stats

    def cli(self, label: str, argv: list[str], traced: bool = False) -> dict:
        return self.stage(label, ["cli", "--"] + argv, traced=traced)

    def setup(self, k: int) -> tuple[float, str]:
        """Make the inputs once, into genK or inputsK; returns (wall, identity)."""
        seed = str(self.seed)
        if self.w.uses_gen:
            st = self.cli(f"gen{k}", ["gen", "--out", f"gen{k}", "--seed", seed, "--json"],
                          traced=self.trace)
            return st["wall_s"], json.loads(st["stdout"])["content_hash"]
        st = self.stage(f"inputs{k}", ["cassette", "--seed", seed, "--out", f"inputs{k}"])
        tapes = [checks.file_sha256(os.path.join(self.rdir, f"inputs{k}", f"part{p}",
                                                 "cassette.json")) for p in range(len(PARTS))]
        return st["wall_s"], ",".join(tapes)

    def run_argv(self, k: int, out: str, lo: int, hi: int) -> list[str]:
        return (["run", "--agent", self.w.agent, "--out", out, "--seed", str(self.seed),
                 "--subset", f"{lo}..{hi}", "--json"] + self.w.run_args(k))

    def execute(self) -> dict:
        w = self.w
        setups, passes = [self.setup(0)], []
        for k, (lo, hi) in enumerate(PARTS):
            st = self.cli(f"run{k}", self.run_argv(k, f"run{k}/results.jsonl", lo, hi),
                          traced=self.trace)
            passes.append(json.loads(st["stdout"]) | {"wall_s": st["wall_s"]})

        # The suite's results, as one file: the parts joined in order.
        results = os.path.join(self.rdir, "all", "results.jsonl")
        os.makedirs(os.path.dirname(results))
        with open(results, "wb") as joined:
            for k in range(len(PARTS)):
                with open(os.path.join(self.rdir, f"run{k}", "results.jsonl"), "rb") as part:
                    shutil.copyfileobj(part, joined)

        # The report is timed eight times, with the second set-up (its output
        # dropped) and the resume pass between the repeats, so the samples of
        # each stage spread over the round.
        steps = ["report"] * 3 + ["setup"] + ["report"] * 3 + ["resume"] + ["report"] * 2
        if self.trace:
            steps = ["report", "resume"]
        report_argv = ["report", "--results", "all/results.jsonl", "--csv", "all/aggregates.csv"]
        # The resume pass repeats the first part's command in its directory.
        resume_argv = self.run_argv(0, "run0/results.jsonl", *PARTS[0])
        first = os.path.join(self.rdir, "run0", "results.jsonl")
        reports = []
        for step in steps:
            if step == "report":
                reports.append(self.cli(f"report{len(reports)}", report_argv, traced=self.trace))
            elif step == "setup":
                setups.append(self.setup(1))
                shutil.rmtree(os.path.join(self.rdir, "gen1" if w.uses_gen else "inputs1"))
            else:
                before = checks.file_sha256(first)
                resume = self.cli("resume", resume_argv, traced=self.trace)
                after = checks.file_sha256(first)

        attempted = sum(p["scored"] + p["unscored"] for p in passes)
        unscored = sum(p["unscored"] for p in passes)
        written = [os.path.join(self.rdir, "all", "aggregates.csv")]
        for directory in [f"run{k}" for k in range(len(PARTS))] + (["gen0"] if w.uses_gen else []):
            for parent, _, names in os.walk(os.path.join(self.rdir, directory)):
                written += [os.path.join(parent, n) for n in names]
        files, size = len(written), sum(os.path.getsize(f) for f in written)
        program_stages = [s for label, s in self.stages.items() if not label.startswith("inputs")]
        setup_s = statistics.median(wall for wall, _ in setups)
        rate = statistics.median((p["scored"] + p["unscored"]) / p["wall_s"] for p in passes)
        report_s = statistics.median(r["wall_s"] for r in reports)
        metrics = {
            "setup_s": setup_s,
            "run_records_per_s": rate,
            "report_s": report_s,
            # Each stage at its median: set-up, the suite at the median rate,
            # the resume pass and one report.
            "total_s": setup_s + attempted / rate + resume["wall_s"] + report_s,
            "peak_rss_mb": max(s["maxrss_kb"] for s in program_stages) / 1024,
            "disk_mb": size / 1e6,
            "files_written": files,
        }
        setup_ids = [ident for _, ident in setups]
        outcome = {
            "metrics": metrics,
            "attempted": attempted,
            "unscored": unscored,
            "setup_ids": setup_ids,
            "gen_hash": setup_ids[0] if w.uses_gen else None,
            "stages": {label: (st["wall_s"], st["user_s"], st["sys_s"], st["maxrss_kb"] / 1024)
                       for label, st in self.stages.items()},
        }
        requested = passes[0]["scored"] + passes[0]["unscored"] + passes[0]["skipped_existing"]
        outcome.update(self.verify(json.loads(resume["stdout"]), requested, before, after,
                                   reports[-1]["stdout"], setup_ids))
        if self.trace:
            outcome["layers"] = layer_metrics(self.stages, w.workers)
            outcome["untraced_targets"] = sorted(
                {t for s in self.stages.values() if "spans" in s for t in s["spans"]["missing"]})
        return outcome

    def verify(self, resume_summary, requested, before, after, table, setup_ids) -> dict:
        """Run every output check; returns the records hash and any failure."""
        w, rdir = self.w, self.rdir
        try:
            if len(set(setup_ids)) != 1:
                raise checks.CheckFailed("set-up", f"repeated set-ups differ: {setup_ids}")
            checks.check_resume(resume_summary, requested, before, after)
            parts = [checks.load_jsonl(os.path.join(rdir, f"run{k}", "results.jsonl"))
                     for k in range(len(PARTS))]
            records = checks.load_jsonl(os.path.join(rdir, "all", "results.jsonl"))
            checks.check_joined(records, parts)
            checks.check_records(records, w.agent, 1, self.seed)
            if w.uses_gen:
                _, grids = checks.check_manifest(os.path.join(rdir, "gen0"), self.seed)
                checks.check_quartets(records)
                checks.check_greedy(records, grids)
                for k, part in enumerate(parts):
                    checks.check_traces(os.path.join(rdir, f"run{k}"), part, grids)
            else:
                tape, index = {}, {}
                for k in range(len(PARTS)):
                    part_dir = os.path.join(rdir, "inputs0", f"part{k}")
                    with open(os.path.join(part_dir, "cassette.json"), encoding="utf-8") as h:
                        tape.update(json.load(h)["records"])
                    with open(os.path.join(part_dir, "index.json"), encoding="utf-8") as h:
                        index.update(json.load(h))
                grids = checks.check_prompt_grids(tape, index)
                expected = {i: cassette.response_for(self.seed, i) for i in index}
                checks.check_llm(records, grids, expected)
                for k, part in enumerate(parts):
                    checks.check_traces(os.path.join(rdir, f"run{k}"), part, grids, expected)
            rows = checks.refold(records)
            checks.check_csv(os.path.join(rdir, "all", "aggregates.csv"), rows)
            checks.check_table(table, rows)
        except checks.CheckFailed as exc:
            return {"failure": str(exc), "records_hash": None}
        except (KeyError, TypeError, ValueError, OSError) as exc:
            # Outputs the checks cannot even read count as wrong, not as a crash.
            return {"failure": f"unreadable output: {exc!r}", "records_hash": None}
        return {"failure": None, "records_hash": checks.records_hash(records)}


def layer_metrics(stages: dict[str, dict], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its program stages."""
    traced = {label: s["spans"] for label, s in stages.items() if "spans" in s}

    def span(name, field, only=None):
        """Summed over the traced stages, or over one kind (``run`` is every part)."""
        return sum(s["spans"].get(name, {}).get(field, 0) for label, s in traced.items()
                   if only is None or label.rstrip("0123456789") == only)

    def count(name):
        return sum(s["counts"].get(name, 0) for s in traced.values())

    m = {}
    for name in ("generate.build_benchmark", "generate.generate_grid", "textgrid.render",
                 "rng.derive_seed", "rng.generator", "runner.record_seed", "env.run_episode",
                 "runner.record_write", "agents.greedy_run",
                 "agents.greedy_plan_step", "runner.write_trace", "llm.build_prompt",
                 "llm.request_key", "llm.cassette_load", "llm.cassette_complete",
                 "llm.parse_plan", "runner.grid", "runner.run_one", "runner.load_records",
                 "runner.aggregate", "runner.format_table", "runner.write_csv"):
        m[name + "_s"] = span(name, "self_s")
    m["runner.write_benchmark_io_s"] = span("runner.write_benchmark", "self_s")
    m["runner.grid_load_s"] = m.pop("runner.grid_s")
    for name in ("generate.generate_grid", "textgrid.render", "rng.derive_seed",
                 "rng.generator", "agents.greedy_plan_step", "runner.write_trace", "runner.grid"):
        m[name + "_calls"] = span(name, "calls")
    grids = m["generate.generate_grid_calls"]
    m["textgrid.renders_per_grid"] = m["textgrid.render_calls"] / grids if grids else 0.0
    m["env.steps"] = count("steps")
    m["runner.trace_bytes"] = count("trace_bytes")
    m["llm.parse_notes"] = count("parse_notes")
    m["runner.grid_misses"] = count("grid_misses")
    run_wall = span("runner.run_suite", "incl_s", "run")
    m["runner.run_one_busy_ratio"] = span("runner.run_one", "incl_s", "run") / (run_wall * workers)
    m["runner.resume_s"] = span("runner.run_suite", "self_s", "resume")
    m["runner.run_suite_s"] = span("runner.run_suite", "self_s", "run")
    m["cli.self_s"] = span("cli.main", "self_s")
    m["stage.import_s"] = sum(stages[label]["import_s"] for label in traced)
    return dict(sorted(m.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grasp", "cli.py")):
        print(f"error: no grasp sources under {SRC}; run from a grasp checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    outcomes = []
    try:
        while True:
            round_start = time.monotonic()
            rdir = os.path.join(work, f"round{len(outcomes)}")
            outcomes.append(Round(workload, args.seed, rdir, bool(args.trace), deadline).execute())
            now = time.monotonic()
            if args.trace:
                break
            # Another round only if it fits the run length, so every run
            # attempts whole rounds of the same records.
            if now + (now - round_start) > min(start + args.seconds, deadline):
                break
            shutil.rmtree(rdir)
        # Keep the last round's logs and spans; drop its bulky outputs.
        for name in os.listdir(rdir):
            if name != "logs":
                shutil.rmtree(os.path.join(rdir, name))
    except StageFailed as exc:
        print(f"error: stage failed: {exc}", file=sys.stderr)
        return 1

    failures = [o["failure"] for o in outcomes if o["failure"]]
    hashes = {o["records_hash"] for o in outcomes}
    if not failures and len(hashes) != 1:
        failures.append(f"determinism: rounds gave different records hashes {sorted(hashes)}")
    attempted = sum(o["attempted"] for o in outcomes)
    unscored = sum(o["unscored"] for o in outcomes)
    print(f"workload {workload.name} seed {args.seed}: {len(outcomes)} round(s), "
          f"trace={args.trace}")
    print(f"records attempted={attempted} unscored={unscored}")
    first = outcomes[0]
    print(f"determinism gen_content_hash={first['gen_hash'] or 'none (no gen stage)'} "
          f"records_sha256={first['records_hash']}")
    print("checks: " + ("; ".join(failures) if failures else "all passed"))
    for label, (wall, user, sys_s, rss) in outcomes[-1]["stages"].items():
        print(f"stage {label:8} wall {wall:7.3f} s  user {user:7.3f} s  sys {sys_s:6.3f} s  "
              f"rss {rss:6.1f} MB")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = first["layers"]
        print(f"traced total_s = {first['metrics']['total_s']:.4f} s (set-up once)")
        if first["untraced_targets"]:
            print("tracing: not found, reported as 0: " + ", ".join(first["untraced_targets"]))
    else:
        values = {name: statistics.median(o["metrics"][name] for o in outcomes)
                  for name in first["metrics"]}
    if sorted(values) != sorted(m["name"] for m in declared):
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": unscored,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

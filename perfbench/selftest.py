"""Show that every output check rejects a corrupted output.

    python3 perfbench/selftest.py

Runs grasp on the one-per-combination subset (20 grids, 160 instances) for
both workloads, confirms that every check passes on the clean outputs,
then applies one corruption per case to a copy and requires the named check
to fail. Exits 0 only when every case is rejected by the check it targets.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import sys

import cassette
import checks
from oracle import SIZE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work", "selftest")
SEED = 5
HI = 0  # grid indexes 0..0: one grid per control combination


def grasp_main(argv: list[str]) -> str:
    import grasp.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = grasp.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"grasp {' '.join(argv)} exited {code}")
    return out.getvalue()


def produce() -> dict:
    """Clean outputs of all three workloads, and what the checks need of them."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    path = lambda *p: os.path.join(WORK, *p)  # noqa: E731
    subset = ["--subset", f"0..{HI}", "--seed", str(SEED), "--json"]
    grasp_main(["gen", "--out", path("gen"), "--seed", str(SEED), "--per-combo", str(HI + 1)])
    cassette.build(SEED, path("inputs"), index_hi=HI)
    runs = {
        "greedy": ["--agent", "greedy", "--benchmark", path("gen")],
        "llm": ["--agent", cassette.AGENT, "--cassette", path("inputs", "cassette.json"),
                "--llm-config", path("inputs", "client.json")],
    }
    ctx = {}
    for name, args in runs.items():
        argv = ["run", "--out", path(name, "results.jsonl")] + args + subset
        grasp_main(argv)
        before = checks.file_sha256(path(name, "results.jsonl"))
        resume = json.loads(grasp_main(argv))
        after = checks.file_sha256(path(name, "results.jsonl"))
        table = grasp_main(["report", "--results", path(name, "results.jsonl"),
                            "--csv", path(name, "aggregates.csv")])
        records = checks.load_jsonl(path(name, "results.jsonl"))
        ctx[name] = {"dir": path(name), "records": records, "resume": resume,
                     "before": before, "after": after, "table": table,
                     "joined": checks.load_jsonl(path(name, "results.jsonl"))}
    with open(path("inputs", "cassette.json"), encoding="utf-8") as handle:
        ctx["tape"] = json.load(handle)["records"]
    with open(path("inputs", "index.json"), encoding="utf-8") as handle:
        ctx["index"] = json.load(handle)
    ctx["gen"] = path("gen")
    ctx["grids"] = checks.check_manifest(path("gen"), SEED, HI)[1]
    ctx["expected"] = {i: cassette.response_for(SEED, i) for i in ctx["index"]}
    return ctx


# --- the checks, as the benchmark runs them -------------------------------

def run_manifest(ctx):
    checks.check_manifest(ctx["gen"], SEED, HI)


def run_records(ctx):
    checks.check_records(ctx["greedy"]["records"], "greedy", 1, SEED, HI)


def run_joined(ctx):
    records = ctx["greedy"]["records"]
    checks.check_joined(ctx["greedy"]["joined"], [records[:80], records[80:]])


def run_quartets(ctx):
    checks.check_quartets(ctx["greedy"]["records"])


def run_greedy_home(ctx):
    checks.check_greedy(ctx["greedy"]["records"], ctx["grids"])


def run_traces(ctx):
    checks.check_traces(ctx["greedy"]["dir"], ctx["greedy"]["records"], ctx["grids"])


def run_llm_traces(ctx):
    grids = checks.check_prompt_grids(ctx["tape"], ctx["index"], HI)
    checks.check_traces(ctx["llm"]["dir"], ctx["llm"]["records"], grids, ctx["expected"])


def run_llm_plan(ctx):
    grids = checks.check_prompt_grids(ctx["tape"], ctx["index"], HI)
    checks.check_llm(ctx["llm"]["records"], grids, ctx["expected"])


def run_prompt_grids(ctx):
    checks.check_prompt_grids(ctx["tape"], ctx["index"], HI)


def run_resume(ctx):
    w = ctx["greedy"]
    checks.check_resume(w["resume"], len(w["records"]), w["before"], w["after"])


def run_csv(ctx):
    w = ctx["greedy"]
    checks.check_csv(os.path.join(w["dir"], "aggregates.csv"), checks.refold(w["records"]))


def run_table(ctx):
    w = ctx["greedy"]
    checks.check_table(w["table"], checks.refold(w["records"]))


# --- corruptions ------------------------------------------------------------

def _grid_files(ctx, grid_id):
    with open(os.path.join(ctx["gen"], "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    entry = next(e for e in manifest["grids"] if e["id"] == grid_id)
    return manifest, os.path.join(ctx["gen"], entry["path"])


def _set_cell(ctx, grid_id, row, col, symbol, rehash):
    """Write one cell of a grid's .txt and .json (moving the start when the
    symbol is "A"); with ``rehash`` the manifest hash is made to match."""
    manifest, base = _grid_files(ctx, grid_id)
    with open(base + ".json", encoding="utf-8") as handle:
        data = json.load(handle)
    cells = {(row, col): symbol}
    if symbol == "A":
        cells[tuple(data["start"])] = " "
        data["start"] = [row, col]
    with open(base + ".txt", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    for (i, j), sym in cells.items():
        data["cells"][i][j] = sym
        line = lines[2 + 2 * i]
        lines[2 + 2 * i] = line[:4 + 4 * j] + sym + line[5 + 4 * j:]
    with open(base + ".txt", "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines))
    with open(base + ".json", "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    if rehash:
        hasher = hashlib.sha256()
        for entry in manifest["grids"]:
            with open(os.path.join(ctx["gen"], entry["path"] + ".txt"), "rb") as handle:
                hasher.update(handle.read())
        manifest["content_hash"] = hasher.hexdigest()
        with open(os.path.join(ctx["gen"], "manifest.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)


def corrupt_hash(ctx):
    grid = ctx["grids"]["dist=random/obs=0/start=in/g=0"]
    row, col = next((i, j) for i in range(SIZE) for j in range(SIZE)
                    if (i, j) != grid.start and (i, j) not in grid.energy)
    _set_cell(ctx, "dist=random/obs=0/start=in/g=0", row, col, "E", rehash=False)


def corrupt_start_region(ctx):
    _set_cell(ctx, "dist=cluster/obs=0/start=in/g=0", 0, 0, "A", rehash=True)


def corrupt_obstacle_flag(ctx):
    grid = ctx["grids"]["dist=spiral/obs=0/start=out/g=0"]
    row, col = next((i, j) for i in range(SIZE) for j in range(SIZE) if (i, j) != grid.start)
    _set_cell(ctx, "dist=spiral/obs=0/start=out/g=0", row, col, "O", rehash=True)


def _record(ctx, workload, k=0):
    return ctx[workload]["records"][k]


def _rewrite_trace(ctx, workload, k, change):
    record = _record(ctx, workload, k)
    path = os.path.join(ctx[workload]["dir"], record["trace_path"])
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    change(trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)


def _greedy_with_moves(ctx):
    return next(k for k, r in enumerate(ctx["greedy"]["records"]) if r["length"] > 1)


def _flip_effect(trace):
    trace["effects"][0] = "noop" if trace["effects"][0] == "applied" else "applied"


def _shift_score(ctx, workload, k, by):
    record = _record(ctx, workload, k)
    record["score"] = round(record["score"] + by, 1)


def corrupt_llm_prompt(ctx):
    grid_id = "dist=random/obs=1/start=out/g=0"
    key = ctx["index"][grid_id + "/mu=1/lim=0/cost=0"]
    message = ctx["tape"][key]["request"]["messages"][1]
    message["content"] = message["content"].replace(" E |", "   |", 1)


def corrupt_csv(ctx):
    path = os.path.join(ctx["greedy"]["dir"], "aggregates.csv")
    with open(path, encoding="utf-8") as handle:
        rows = handle.read().split("\n")
    cells = rows[1].split(",")
    cells[6] = f"{float(cells[6]) + 0.0001:.4f}"
    rows[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(rows))


def corrupt_table(ctx):
    lines = ctx["greedy"]["table"].split("\n")
    head, energy = lines[2].rsplit(" ", 1)
    lines[2] = f"{head} {float(energy) + 0.01:.2f}"
    ctx["greedy"]["table"] = "\n".join(lines)


CASES = (
    ("manifest", "a .txt cell changed after the hash", run_manifest, corrupt_hash),
    ("manifest", "an inner start moved to the corner, hash refreshed", run_manifest,
     corrupt_start_region),
    ("manifest", "an obstacle in an obstacle-free grid, hash refreshed", run_manifest,
     corrupt_obstacle_flag),
    ("records", "one record missing", run_records,
     lambda c: c["greedy"]["records"].pop()),
    ("records", "a record seed off by one", run_records,
     lambda c: _record(c, "greedy").update(seed=_record(c, "greedy")["seed"] + 1)),
    ("records", "an unscored record", run_records,
     lambda c: _record(c, "greedy").update(status="unscored")),
    ("joined", "a joined results file missing a record of one part", run_joined,
     lambda c: c["greedy"]["joined"].pop()),
    ("quartets", "a cost-arm score off by 0.1", run_quartets,
     lambda c: _shift_score(c, "greedy", 1, -0.1)),
    ("quartets", "a limit-2 energy above 2", run_quartets,
     lambda c: _record(c, "greedy", 2).update(energy_at_start=3)),
    ("greedy-home", "a greedy episode ending off its start", run_greedy_home,
     lambda c: _record(c, "greedy").update(final_pos=[-1, -1])),
    ("traces", "a trace effect flipped", run_traces,
     lambda c: _rewrite_trace(c, "greedy", _greedy_with_moves(c), _flip_effect)),
    ("traces", "a trace naming another seed", run_traces,
     lambda c: _rewrite_trace(c, "greedy", 0, lambda t: t.update(seed=t["seed"] + 1))),
    ("traces", "two records sharing one trace", run_traces,
     lambda c: _record(c, "greedy", 1).update(trace_path=_record(c, "greedy")["trace_path"])),
    ("traces", "a record score that its trace does not give", run_traces,
     lambda c: _shift_score(c, "greedy", 0, 1.0)),
    ("traces", "an llm trace with another response", run_llm_traces,
     lambda c: _rewrite_trace(c, "llm", 0, lambda t: t.update(raw_response="[]"))),
    ("llm-plan", "an llm record scoring another plan", run_llm_plan,
     lambda c: _record(c, "llm").update(length=_record(c, "llm")["length"] + 1)),
    ("prompt-grids", "a prompt whose grid lost an energy cell", run_prompt_grids,
     corrupt_llm_prompt),
    ("resume", "a resume pass that wrote a record", run_resume,
     lambda c: c["greedy"]["resume"].update(scored=1)),
    ("resume", "results bytes changed by the resume pass", run_resume,
     lambda c: c["greedy"].update(after="0" * 64)),
    ("csv", "a CSV mean energy off by 0.0001", run_csv, corrupt_csv),
    ("table", "a table energy off by 0.01", run_table, corrupt_table),
)


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "grasp", "cli.py")):
        print(f"error: no grasp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    clean = produce()
    pristine = WORK + "-pristine"
    shutil.rmtree(pristine, ignore_errors=True)
    shutil.copytree(WORK, pristine)
    for _, _, run, _ in CASES:
        run(clean)
    print(f"all {len(CASES)} checked paths pass on clean outputs")

    failed = 0
    for check, label, run, corrupt in CASES:
        shutil.rmtree(WORK)
        shutil.copytree(pristine, WORK)
        ctx = copy.deepcopy(clean)
        corrupt(ctx)
        try:
            run(ctx)
        except checks.CheckFailed as exc:
            if exc.check == check:
                print(f"rejected  {check:13} {label}: {exc}"[:200])
                continue
            print(f"WRONG     {check:13} {label}: failed in {exc.check} instead")
        else:
            print(f"ACCEPTED  {check:13} {label}")
        failed += 1
    shutil.rmtree(pristine)
    # records_hash ignores timestamps and record order, and nothing else.
    records = copy.deepcopy(clean["greedy"]["records"])
    base = checks.records_hash(records)
    records.reverse()
    records[0]["started_at"] = "1970-01-01T00:00:00"
    if checks.records_hash(records) != base:
        print("WRONG     records-hash  changed by order or timestamps")
        failed += 1
    records[0]["score"] += 0.1
    if checks.records_hash(records) == base:
        print("ACCEPTED  records-hash  a changed score")
        failed += 1
    else:
        print("rejected  records-hash  a changed score")
    print(f"self-test: {len(CASES) + 1 - failed} of {len(CASES) + 1} corruptions rejected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: gen, run, report, render, trace."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import runner
from .agents import AGENT_SPECS, parse_agent
from .llm import CassetteClient, ClientConfig, HttpChatClient, LlmClientError, RecordingClient
from .svg import export_trace_svg
from .textgrid import render


def _parse_subset(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"subset must look like A..B, got {text!r}"
        ) from exc


def _count(text: str) -> int:
    """An integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasp",
        description="Gridworld energy-collection benchmark tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate the benchmark grids")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0, help="master seed")
    gen.add_argument("--per-combo", type=int, default=100,
                     help="instances per control combination")
    gen.add_argument("--force", action="store_true",
                     help="write into a non-empty directory")
    gen.add_argument("--json", action="store_true", help="machine-readable output")

    run = sub.add_parser("run", help="run an agent over benchmark instances")
    run.add_argument("--agent", required=True, help=AGENT_SPECS)
    run.add_argument("--out", required=True, help="results JSONL path")
    run.add_argument("--benchmark", help="directory written by gen")
    run.add_argument("--seed", type=int, default=0,
                     help="suite seed (also the master seed without --benchmark)")
    run.add_argument("--subset", type=_parse_subset, default=(0, 99),
                     metavar="A..B", help="grid index range, default 0..99")
    run.add_argument("--replicates", type=_count, default=1)
    run.add_argument("--resample-invalid", action="store_true",
                     help="random-walk redraws moves that would not apply "
                          "(refused for other agents)")
    run.add_argument("--llm-config", help="JSON file with client settings")
    run.add_argument("--cassette", help="replay responses from this cassette")
    run.add_argument("--record-cassette", help="record live responses here")
    run.add_argument("--no-traces", action="store_true",
                     help="skip writing per-episode trace files")
    run.add_argument("--json", action="store_true")

    report = sub.add_parser("report", help="aggregate results into tables")
    report.add_argument("--results", required=True, help="results JSONL path")
    report.add_argument("--group-by", default="all",
                        choices=["all"] + [name for name in runner.CONTROLS if name != "average"])
    report.add_argument("--csv", help="also write aggregate rows to this CSV")
    report.add_argument("--json", action="store_true")

    rend = sub.add_parser("render", help="print a grid's text form")
    rend.add_argument("grid", help="grid JSON file")
    rend.add_argument("--json", action="store_true")

    trace = sub.add_parser("trace", help="render a trace file to SVG")
    trace.add_argument("trace", help="trace JSON file")
    trace.add_argument("--benchmark", help="benchmark directory for the grid")
    trace.add_argument("--seed", type=int,
                       help="master seed to regenerate the grid instead")
    trace.add_argument("--out", help="output SVG path (default: the trace path ending .svg)")
    trace.add_argument("--json", action="store_true")
    return parser


def _emit(args, payload: dict, text: str | None = None) -> None:
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif text is not None:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_gen(args) -> int:
    manifest = runner.write_benchmark(
        args.out, args.seed, per_combo=args.per_combo, force=args.force
    )
    summary = {
        "out": args.out,
        "count": manifest["count"],
        "content_hash": manifest["content_hash"],
        "master_seed": manifest["master_seed"],
    }
    _emit(args, summary,
          f"wrote {manifest['count']} grids to {args.out} "
          f"(content hash {manifest['content_hash'][:12]})")
    return 0


def _make_client(args):
    config = ClientConfig.from_file(args.llm_config) if args.llm_config else ClientConfig()
    if args.cassette:
        return CassetteClient(args.cassette), config
    client = HttpChatClient(config)
    client.api_key()  # a live run without a credential fails before it starts
    if args.record_cassette:
        client = RecordingClient(client, args.record_cassette)
    return client, config


def cmd_run(args) -> int:
    if args.benchmark:
        bench = runner.Benchmark.from_dir(args.benchmark)
    else:
        bench = runner.Benchmark.from_seed(args.seed)
    client = None
    concurrency = 1
    if parse_agent(args.agent):
        client, config = _make_client(args)
        concurrency = config.concurrency
    lo, hi = args.subset
    summary = runner.run_suite(
        bench,
        args.agent,
        args.out,
        index_lo=lo,
        index_hi=hi,
        replicates=args.replicates,
        suite_seed=args.seed,
        concurrency=concurrency,
        resample_invalid=args.resample_invalid,
        client=client,
        write_traces=not args.no_traces,
        config_echo={
            "benchmark": args.benchmark,
            "cassette": args.cassette,
            "llm_config": args.llm_config,
        },
    )
    _emit(args, summary,
          f"{summary['scored']} scored, {summary['unscored']} unscored, "
          f"{summary['skipped_existing']} already present -> {args.out}")
    return 0


def cmd_report(args) -> int:
    records = runner.load_records(args.results)
    if not records:
        print(f"no records in {args.results}", file=sys.stderr)
        return 1
    controls = None if args.group_by == "all" else [args.group_by]
    rows = runner.aggregate(records, controls=controls)
    if args.csv:
        runner.write_aggregates_csv(rows, args.csv)
    if args.json:
        payload = {"rows": [dataclasses.asdict(row) for row in rows]}
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(runner.format_table(rows), end="")
    return 0


def cmd_render(args) -> int:
    grid = runner.read_grid(args.grid)
    text = render(grid)
    if args.json:
        print(json.dumps({"grid": args.grid, "text": text}))
    else:
        print(text, end="")
    return 0


def cmd_trace(args) -> int:
    trace = runner.read_json_object(args.trace,
                                    ("instance_id", "constraints", "actions", "effects"))
    runner.check_object(trace["constraints"], ("action_set", "carry_limit", "step_cost"),
                        f"{args.trace} field 'constraints'")
    instance = runner.InstanceId.from_str(trace["instance_id"])
    if args.benchmark:
        bench = runner.Benchmark.from_dir(args.benchmark)
    elif args.seed is not None:
        bench = runner.Benchmark.from_seed(args.seed)
    else:
        print("pass --benchmark or --seed to locate the grid", file=sys.stderr)
        return 1
    grid = bench.grid(instance)
    svg = export_trace_svg(trace, grid)
    out = args.out or os.path.splitext(args.trace)[0] + ".svg"
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    _emit(args, {"out": out, "bytes": len(svg)}, f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "run": cmd_run,
        "report": cmd_report,
        "render": cmd_render,
        "trace": cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except (FileExistsError, FileNotFoundError, LlmClientError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

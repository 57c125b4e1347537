"""Golden output hashes: sha256 values of the program's outputs, pinned.

The other determinism tests compare two runs of the same code. These compare
against values taken once, so a change that moves any output byte (a grid
file, a record field, a trace, an SVG, a report cell, a cassette, or the
chat request body that recorded cassettes are keyed by) fails here even when
two runs still agree. A pinned value may change only with a deliberate file
format change, logged as such.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from grasp.cli import main
from grasp.env import ActionSet, ConstraintSet
from grasp.generate import DistributionKind, StartMode, generate_grid
from grasp.llm import RecordingClient, build_prompt, request_key, write_cassette
from grasp.runner import Benchmark, InstanceId, enumerate_instances, load_records
from grasp.svg import export_trace_svg

TIMESTAMPS = ("started_at", "finished_at")
# One reply shape per instance in turn; every fifth instance has no reply.
REPLIES = (
    "[UP, TAKE, DOWN, DROP]",
    "Plan: [right, 'take', LEFT, JUMP, DROP]",
    "I would rather not move.",
    "[]",
    "[DOWNRIGHT, TAKE, UPLEFT, DROP" + ", UP, DOWN" * 10 + "]",
)
PATH_KEYS = ("benchmark", "cassette", "llm_config")


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as handle:
        return _sha(handle.read())


def _tree_sha(root: str) -> str:
    """Every file under root: its relative path and its bytes, in path order."""
    hasher = hashlib.sha256()
    paths = sorted(
        os.path.relpath(os.path.join(top, name), root)
        for top, _, names in os.walk(root)
        for name in names
    )
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as handle:
            hasher.update(f"{rel}\0".encode() + handle.read() + b"\0")
    return hasher.hexdigest()


def _records_sha(path: str) -> str:
    """The results file line by line, in file order and field order, with
    the timestamp fields removed."""
    lines = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for key in TIMESTAMPS:
                del record[key]
            lines.append(json.dumps(record))
    return _sha("\n".join(lines))


def _meta_sha(results: str) -> str:
    with open(results + ".meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    return _sha(json.dumps({k: v for k, v in meta.items() if k not in PATH_KEYS}, sort_keys=True))


def _svgs_sha(results: str, bench: Benchmark) -> str:
    """Every trace of a results file drawn as SVG, in record order."""
    root = os.path.dirname(results)
    hasher = hashlib.sha256()
    for record in load_records(results):
        if record.trace_path is None:
            continue
        with open(os.path.join(root, record.trace_path), encoding="utf-8") as handle:
            trace = json.load(handle)
        grid = bench.grid(InstanceId.from_str(record.instance_id))
        hasher.update(export_trace_svg(trace, grid).encode("utf-8"))
    return hasher.hexdigest()


class _Echo:
    """A live client stand-in whose reply names the length of the system turn."""

    def complete(self, bundle) -> str:
        return f"[TAKE] after {len(bundle.system)} characters"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")

    def path(*parts: str) -> str:
        return str(root.joinpath(*parts))

    got = {}

    gen = json.loads(_cli("gen", "--out", path("gen"), "--per-combo", "1", "--json"))
    got["gen_content_hash"] = gen["content_hash"]
    got["gen_files"] = _tree_sha(path("gen"))

    greedy = path("greedy", "results.jsonl")
    _cli("run", "--agent", "greedy", "--benchmark", path("gen"), "--subset", "0..0",
         "--out", greedy)
    walk = path("walk", "results.jsonl")
    _cli("run", "--agent", "random-walk", "--seed", "5", "--replicates", "2",
         "--resample-invalid", "--subset", "0..0", "--out", walk)

    bench = Benchmark.from_seed(0)
    entries = []
    for i, instance in enumerate(enumerate_instances(0, 0)):
        if i % 5 != 4:
            bundle = build_prompt(bench.grid(instance), instance.constraints(), model="golden")
            entries.append((bundle.request_body(), REPLIES[i % 5]))
    write_cassette(path("cassette.json"), entries)
    with open(path("client.json"), "w", encoding="utf-8") as handle:
        json.dump({"concurrency": 2}, handle)
    llm = path("llm", "results.jsonl")
    _cli("run", "--agent", "llm:golden", "--cassette", path("cassette.json"),
         "--llm-config", path("client.json"), "--subset", "0..0", "--out", llm)
    got["cassette"] = _file_sha(path("cassette.json"))

    # A recording made in two sessions: the second reads the first's file.
    bundles = [build_prompt(bench.grid(i), i.constraints(), model="golden")
               for i in enumerate_instances(0, 0)[:5]]
    for part in (bundles[:3], bundles[3:]):
        recorder = RecordingClient(_Echo(), path("recorded.json"))
        for bundle in part:
            recorder.complete(bundle)
    got["recorded_cassette"] = _file_sha(path("recorded.json"))

    grid = generate_grid(DistributionKind.CLUSTER, True, StartMode.OUTER, 7, 12345)
    constraints = ConstraintSet(action_set=ActionSet.MU2, carry_limit=2, step_cost=0.3)
    got["request_key"] = request_key(build_prompt(grid, constraints, model="gpt-x").request_body())

    for name, results, grids in (("greedy", greedy, bench), ("walk", walk, Benchmark.from_seed(5)),
                                 ("llm", llm, bench)):
        got[f"{name}_records"] = _records_sha(results)
        got[f"{name}_traces"] = _tree_sha(results[:-len(".jsonl")] + ".traces")
        got[f"{name}_meta"] = _meta_sha(results)
        got[f"{name}_svgs"] = _svgs_sha(results, grids)

    combined = path("all.jsonl")
    with open(combined, "w", encoding="utf-8") as out:
        for results in (greedy, walk, llm):
            with open(results, encoding="utf-8") as handle:
                out.write(handle.read())
    got["report_json"] = _sha(_cli("report", "--results", combined, "--csv", path("all.csv"),
                                   "--json"))
    got["report_csv"] = _file_sha(path("all.csv"))
    got["report_table"] = _sha(_cli("report", "--results", combined))
    return got


GOLDEN = {
    "cassette": "899a37df6b8d93da99cdfc00959e691c9f0ef51a440bda660aa4f43459de77f2",
    "gen_content_hash": "f41eb03e48afb76eda076830d36de75e8b9a69c544df932e530e8a426ef043e8",
    "gen_files": "5351ae04e548e18af175b43dbed166fe88fa2089abfa45fb49d3e061d27bfc4c",
    "greedy_meta": "8f011ee4747fe3ea0a6c63081686af1c625045772d481e19e3b1b1502ab77762",
    "greedy_records": "efea02589f3a644e865b73124051717b990cbc79bcef9ce5395b3dde2d816392",
    "greedy_svgs": "c77d2b004ebdf9003f3cc26df857f44e7ae564d7414a0e20becd6c1a764f83a1",
    "greedy_traces": "0082c1fe10b8cf03e7e24d4b017e12b664e59d27a951503f388fdb8d9c616531",
    "llm_meta": "9a4ab346e0123ef48f120bdefd83fb65874cd31ba07e0d0ac8b20bd615bb24d7",
    "llm_records": "aed12804d6b4152199460ec01b813e3c2ef7a38ecedc9422485ec6fd28b8c243",
    "llm_svgs": "3c3938f3cc73c790c83afbb52cc9d10daa35bd5ac89f9a091f2e92ca5468719d",
    "llm_traces": "a4f27810f848dacc050cc6535e3183789823a580b7f781726edff4024152ef14",
    "recorded_cassette": "d24f835045996fee5770db6d6a0552b9efd773e292780d2123d7a0834801c8f5",
    "report_csv": "3209258b19d9da4d443bf9a36b173c4e05fda3caaf77d9d031da15ae7d016082",
    "report_json": "891003ae57091a69393c886511a2dae40284ba65444ecf6342587d8b5369178c",
    "report_table": "d976bd4d2e555f3b2b364f42cfe346a9e99e1cf54d1dbd727469c2b00c8d3128",
    "request_key": "e48a91b098436262235573b6fce4d3987b86ff3f97a87b48c624f85a0a415307",
    "walk_meta": "954acac8cedaf1e9e3be66aa066660cd996b6fa8dbf07be5b8ba470670b1c3f0",
    "walk_records": "5deafee57836c35aa0cd0ad2019a1643031c9d57b6f322e562349e86dd81078a",
    "walk_svgs": "8cc533e322ff003f576590fa68c2d02e179d9866be0904670deb8c0bf0cf6adb",
    "walk_traces": "b04118bcd94db7e1ce402c8edbadef041400555a60af445e1e8ed1808c22e841",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_hash(outputs, name):
    assert outputs[name] == GOLDEN[name]


def test_outputs_all_pinned(outputs):
    assert set(outputs) == set(GOLDEN)

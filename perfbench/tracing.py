"""Outside-in tracing of grasp: wrap public functions, keep spans in memory.

``install`` replaces each target in ``TARGETS`` with a wrapper, in every
grasp module that holds a reference to it, so calls made through
``from .x import f`` are traced too. A span is (name, start, end, parent):
the parent is the innermost traced call open on the same thread. Spans stay
in per-thread arrays until ``dump`` writes them, with the counters, once the
stage ends. ``summarize`` turns a dump back into per-name calls, inclusive
and self time, where self time is a span's duration minus the durations of
its direct children.

The wrappers add about a microsecond per call; the end-to-end metrics are
always taken from untraced runs.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import types
from array import array
from time import perf_counter

# (module, attribute path, span name, counter). Leaf helpers called many
# times per episode (splitmix64, complement, Grid.cell) are left unwrapped:
# their time stays in the self time of the traced caller.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("generate", "build_benchmark", "generate.build_benchmark", None),
    ("generate", "generate_grid", "generate.generate_grid", None),
    ("textgrid", "render", "textgrid.render", None),
    ("rng", "derive_seed", "rng.derive_seed", None),
    ("rng", "generator", "rng.generator", None),
    ("runner", "write_benchmark", "runner.write_benchmark", None),
    ("runner", "Benchmark.grid", "runner.grid", "grid_misses"),
    ("runner", "record_seed", "runner.record_seed", None),
    ("runner", "run_one", "runner.run_one", None),
    ("runner", "run_suite", "runner.run_suite", None),
    ("runner", "write_trace", "runner.write_trace", "trace_bytes"),
    ("runner", "load_records", "runner.load_records", None),
    ("runner", "aggregate", "runner.aggregate", None),
    ("runner", "format_table", "runner.format_table", None),
    ("runner", "write_aggregates_csv", "runner.write_csv", None),
    ("runner", "RunRecord.to_dict", "runner.record_write", None),
    ("runner", "json.dumps", "runner.record_write", None),
    ("agents", "run_baseline", "agents.run_baseline", None),
    ("agents", "greedy_run", "agents.greedy_run", None),
    ("agents", "greedy_plan_step", "agents.greedy_plan_step", None),
    ("env", "run_episode", "env.run_episode", None),
    ("env", "EpisodeState.result", "env.result", "steps"),
    ("llm", "build_prompt", "llm.build_prompt", None),
    ("llm", "request_key", "llm.request_key", None),
    ("llm", "parse_plan", "llm.parse_plan", "parse_notes"),
    ("llm", "CassetteClient.__init__", "llm.cassette_load", None),
    ("llm", "CassetteClient.complete", "llm.cassette_complete", None),
)


class Tracer:
    """Span buffers and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._threads: list[tuple[array, array, array, array]] = []
        self._lock = threading.Lock()
        self._seen_grids: set[int] = set()

    def _buffers(self):
        local = self._local
        try:
            return local.buffers, local.stack
        except AttributeError:
            local.buffers = (array("i"), array("i"), array("d"), array("d"))
            local.stack = []
            with self._lock:
                self._threads.append(local.buffers)
            return local.buffers, local.stack

    def _count(self, counter, args, kwargs, result) -> int:
        if counter == "steps":
            return result.length
        if counter == "parse_notes":
            return len(result.parse_notes)
        if counter == "trace_bytes":
            traces_dir = args[0] if args else kwargs["traces_dir"]
            return os.path.getsize(os.path.join(traces_dir, result))
        if counter == "grid_misses":
            # A cache hit hands back a grid object already seen.
            with self._lock:
                if id(result) in self._seen_grids:
                    return 0
                self._seen_grids.add(id(result))
                return 1
        raise ValueError(counter)

    def wrap(self, fn, name: str, counter: str | None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        buffers = self._buffers
        count = self._count
        counts = self.counts
        lock = self._lock

        def traced(*args, **kwargs):
            (names, parents, starts, ends), stack = buffers()
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if counter is not None:
                n = count(counter, args, kwargs, result)
                with lock:
                    counts[counter] = counts.get(counter, 0) + n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "grasp" or name.startswith("grasp.")
        }
        for module, path, name, counter in TARGETS:
            owner = modules.get(f"grasp.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self.wrap(original, name, counter)
            if outer == ["json"]:
                # runner's json.dumps is only the per-record serialisation;
                # give runner a json of its own rather than patching the stdlib.
                proxy = types.ModuleType("json")
                proxy.__dict__.update(vars(owner))
                setattr(proxy, attr, wrapper)
                setattr(modules[f"grasp.{module}"], "json", proxy)
            elif outer:
                setattr(owner, attr, wrapper)
            else:
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and a JSON header beside them."""
        header = {"names": self.names, "counts": self.counts,
                  "missing": self.missing, "threads": []}
        with open(path + ".bin", "wb") as handle:
            for buffers in self._threads:
                header["threads"].append(len(buffers[0]))
                for arr in buffers:
                    arr.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def summarize(path: str) -> dict:
    """Per span name: calls, inclusive seconds and self seconds, plus counters."""
    with open(path + ".json", encoding="utf-8") as handle:
        header = json.load(handle)
    names = header["names"]
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in names}
    with open(path + ".bin", "rb") as handle:
        for n in header["threads"]:
            ids, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
            for arr in (ids, parents, starts, ends):
                arr.fromfile(handle, n)
            child = [0.0] * n
            for k in range(n):
                if parents[k] >= 0:
                    child[parents[k]] += ends[k] - starts[k]
            for k in range(n):
                entry = out[names[ids[k]]]
                dur = ends[k] - starts[k]
                entry["calls"] += 1
                entry["incl_s"] += dur
                entry["self_s"] += dur - child[k]
    return {"spans": out, "counts": header["counts"], "missing": header["missing"]}

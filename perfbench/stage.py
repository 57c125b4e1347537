"""One benchmark stage in a fresh interpreter, as a user's shell would run it.

    python3 perfbench/stage.py --src SRC --stats FILE [--spans PREFIX] cli -- <grasp args>
    python3 perfbench/stage.py --src SRC --stats FILE cassette --seed N --out DIR

``cli`` imports grasp from SRC and calls ``grasp.cli.main`` with the given
arguments. ``cassette`` builds the llm-cassette inputs, one cassette per
part of the grid indexes (``DIR/partK``). The stats file gets
the exit code, the import time and the peak RSS of this process; with
``--spans`` the grasp functions are traced and the spans dumped at PREFIX.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from parts import PARTS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans")
    parser.add_argument("mode", choices=["cli", "cassette"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    start = time.perf_counter()
    import grasp.cli

    import_s = time.perf_counter() - start
    expected = os.path.join(os.path.realpath(args.src), "grasp", "__init__.py")
    if os.path.realpath(grasp.__file__) != expected:
        print(f"grasp imported from {grasp.__file__}, not {expected}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if args.mode == "cli":
        code = grasp.cli.main(args.argv)
    else:
        from cassette import build

        for k, (lo, hi) in enumerate(PARTS):
            build(args.seed, os.path.join(args.out, f"part{k}"), lo, hi)
        code = 0
    sys.stdout.flush()
    dump_s = 0.0
    if tracer is not None:
        dump_start = time.perf_counter()
        tracer.dump(args.spans)
        dump_s = time.perf_counter() - dump_start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats = {
        "code": code,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "import_s": import_s,
        "dump_s": dump_s,
        "maxrss_kb": usage.ru_maxrss,
    }
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

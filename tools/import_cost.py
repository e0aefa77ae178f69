"""Time what a fresh ``mpembasim`` process pays before it computes anything.

Usage::

    python3 tools/import_cost.py SRC_DIR [SRC_DIR ...] [--rounds N]

Each ``SRC_DIR`` is a directory holding ``mpembasim/``, for example the
``src`` of two checkouts.  Every round starts one fresh interpreter per
directory, in an order that rotates from round to round, so a drift in the
machine's speed falls on every directory alike.  Each interpreter imports
numpy, then times ``import mpembasim.cli`` and the first
``cli._build_parser()`` call, and lists the modules the package import
loaded beyond numpy's.  The interpreters inherit this environment, so
``PYTHONDONTWRITEBYTECODE`` holds for them as it holds here.

Printed per directory: the median and the 10th percentile (nearest rank) of
both timings over the rounds, the modules loaded beyond numpy's (the union
over the rounds), ``sys.flags.dont_write_bytecode`` of the interpreters, and
whether a ``__pycache__`` directory exists under ``SRC_DIR`` before the first
round and after the last.  A directory after the first also gets the
difference of its import median from the first one's.  The exit code is 2
when a directory holds no package, 1 when an interpreter fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

#: run in each fresh interpreter; prints one JSON line
PROBE = """\
import sys
from time import perf_counter
import numpy
before = set(sys.modules)
started = perf_counter()
import mpembasim.cli
imported = perf_counter()
loaded = sorted(set(sys.modules) - before)
mpembasim.cli._build_parser()
built = perf_counter()
import json
print(json.dumps({
    "import_s": imported - started,
    "parser_s": built - imported,
    "modules": loaded,
    "dont_write_bytecode": sys.flags.dont_write_bytecode,
}))
"""


def has_pycache(src: str) -> bool:
    return any("__pycache__" in dirs for _, dirs, _ in os.walk(src))


def p10(values: list) -> float:
    """Nearest-rank 10th percentile."""
    return sorted(values)[max(0, math.ceil(0.1 * len(values)) - 1)]


def probe(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe of {src} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", metavar="SRC_DIR")
    parser.add_argument("--rounds", type=int, default=20, metavar="N")
    args = parser.parse_args(argv)
    sources = [os.path.abspath(src) for src in args.src]
    for src in sources:
        if not os.path.isdir(os.path.join(src, "mpembasim")):
            print(f"no mpembasim package under {src}", file=sys.stderr)
            return 2
    cached_before = [has_pycache(src) for src in sources]
    samples = [[] for _ in sources]
    try:
        for round_ in range(args.rounds):
            for k in range(len(sources)):
                index = (k + round_) % len(sources)
                samples[index].append(probe(sources[index]))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    first_median = None
    for src, runs, cached in zip(sources, samples, cached_before):
        import_ms = [1e3 * run["import_s"] for run in runs]
        parser_ms = [1e3 * run["parser_s"] for run in runs]
        modules = sorted(set().union(*(run["modules"] for run in runs)))
        flags = sorted({run["dont_write_bytecode"] for run in runs})
        median = statistics.median(import_ms)
        print(src)
        print(
            f"  import mpembasim.cli     median {median:.2f} ms  "
            f"p10 {p10(import_ms):.2f} ms  (n={len(runs)})"
        )
        print(
            f"  first cli._build_parser  median {statistics.median(parser_ms):.2f} ms  "
            f"p10 {p10(parser_ms):.2f} ms"
        )
        print(f"  modules beyond numpy's ({len(modules)}): {' '.join(modules)}")
        print(
            f"  sys.flags.dont_write_bytecode {'/'.join(map(str, flags))}; __pycache__ "
            f"under SRC_DIR: before {'yes' if cached else 'no'}, "
            f"after {'yes' if has_pycache(src) else 'no'}"
        )
        if first_median is None:
            first_median = median
        else:
            print(f"  import median minus the first SRC_DIR's: {median - first_median:+.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

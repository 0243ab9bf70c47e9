"""Benchmark for the starfactor oracle, classifier and census.

Run from the root of a checkout:

    python3 perfbench/run.py --workload girth5-sweep --seed 1 --seconds 10 --trace 0

The package is imported from ./src.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("girth5-sweep", "named-instances", "census", "structural-large")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "starfactor" / "__init__.py").is_file():
        print(f"perfbench: no starfactor package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import starfactor  # noqa: F401  (timed: part of setup_s)

    import_s = perf_counter() - t0
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(out_dir)
    result = workloads.run(args.workload, args.seed, args.seconds, import_s, out_dir, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

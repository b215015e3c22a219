"""The repository benchmark: one closed-loop workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 12 --trace 0

Workloads (each line is the reason it exists):

* ``solve-cold`` -- the Theorem 4.2 library path on fresh census and
  wide binary tables; no service layer is involved.
* ``service-hot`` -- one ``kanon serve --jobs 2`` behind 2 connections;
  mostly cache hits, one request in eight a fresh instance.
* ``fleet-routed`` -- ``kanon route`` over 3 ``kanon serve`` shards;
  every instance new, with duplicate pairs and incremental deltas.

The benchmark builds its inputs from ``--seed``, measures for
``--seconds``, checks every release against the library path, prints a
human-readable report and, as its last line, one JSON object.  With
``--trace 0`` that object carries the end-to-end metrics; with
``--trace 1`` the run also replays its inputs layer by layer and the
object carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("solve-cold", "service-hot", "fleet-routed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test ({ROOT / 'src' / 'repro'} "
              "is missing); run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import adopt_orphans, emit, reap_all

    module = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_")
    )
    print(f"== perfbench {args.workload} (seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace})")
    print(f"  why: {module.WHY}")
    adopt_orphans()
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        reap_all()
    for line in result.lines:
        print(line)
    if result.failed:
        print(f"  FAILED: {result.failed} of {result.attempted} operations")
    emit(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

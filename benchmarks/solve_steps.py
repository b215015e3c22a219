#!/usr/bin/env python3
"""Per-step timing of the Theorem 4.2 solve on the solve-cold shapes.

Replays ``center_cover``'s solve on the numpy backend one step at a
time and prints the minimum milliseconds of each step over fresh copies
of the same tables:

* ``encode`` — :func:`~repro.core.backend.encode_table`;
* ``fill`` — the cached ``uint16`` distance matrix;
* ``candidates`` — the ``ball_candidates(k)`` call inside
  :func:`build_ball_cover`;
* ``greedy`` — the rest of :func:`build_ball_cover` (the candidate
  sort, the greedy loop and the members read back);
* ``split`` — :func:`reduce_and_shrink` (Reduce plus the group split);
* ``stats`` — the cover's and the partition's diameter sums;
* ``star mask`` — ``starred_cells`` and the :class:`Suppressor` built
  from it;
* ``apply`` — ``Suppressor.apply``.

The shapes are the repository benchmark's solve-cold mix: census
n=1000 at k=5 and a binary 800x128 table at k=4.  The script exits with
status 1 if a replayed release differs from the library's, so the steps
it times are the steps the solver takes.

    python benchmarks/solve_steps.py [--repeats 7] [--seed 1]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

STEPS = (
    "encode", "fill", "candidates", "greedy", "split", "stats",
    "star mask", "apply",
)


def shapes(seed: int) -> list[tuple[str, object, int]]:
    """``(name, table, k)`` of the solve-cold shapes for one table seed."""
    from repro.workloads import census_table, quasi_identifiers, uniform_table

    return [
        ("census 1000x6 k=5",
         quasi_identifiers(census_table(1000, seed=seed)), 5),
        ("binary 800x128 k=4",
         uniform_table(800, 128, alphabet_size=2, seed=seed), 4),
    ]


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - started, value


def replay(table, k: int) -> tuple[dict[str, float], str]:
    """Seconds per step on a fresh copy of *table*, and its release CSV."""
    from repro.algorithms.center_cover import build_ball_cover
    from repro.algorithms.reduce_cover import reduce_and_shrink
    from repro.core.backend import encode_table, get_backend
    from repro.core.suppressor import Suppressor
    from repro.core.table import Table

    fresh = Table(table.rows, attributes=table.attributes)
    gc.collect()  # earlier garbage is not this replay's cost
    times = {"encode": timed(encode_table, fresh)[0]}
    metric = get_backend(fresh, "numpy")
    times["fill"] = timed(metric.matrix_array)[0]
    # the cover's own candidates call, timed where the cover makes it
    candidates = metric.ball_candidates

    def timed_candidates(k):
        times["candidates"], value = timed(candidates, k)
        return value

    metric.ball_candidates = timed_candidates
    cover_seconds, cover = timed(build_ball_cover, fresh, k, backend=metric)
    del metric.ball_candidates
    times["greedy"] = cover_seconds - times["candidates"]
    times["split"], partition = timed(
        reduce_and_shrink, fresh, cover, backend=metric
    )
    times["stats"] = timed(lambda: (
        cover.diameter_sum(fresh, backend=metric),
        partition.diameter_sum(fresh, backend=metric),
    ))[0]
    times["star mask"], suppressor = timed(lambda: Suppressor(
        metric.starred_cells(partition.groups),
        n_rows=fresh.n_rows, degree=fresh.degree,
    ))
    times["apply"], released = timed(suppressor.apply, fresh)
    return times, released.to_csv()


def library_release(table, k: int) -> tuple[float, str]:
    """Seconds and release CSV of the library solve on a fresh copy."""
    from repro import registry
    from repro.core.table import Table

    fresh = Table(table.rows, attributes=table.attributes)
    gc.collect()
    seconds, result = timed(
        registry.create("center_cover").anonymize, fresh, k, backend="numpy"
    )
    return seconds, result.anonymized.to_csv()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="fresh copies timed per shape (minimum kept)")
    parser.add_argument("--seed", type=int, default=1, help="table seed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    status = 0
    for name, table, k in shapes(args.seed):
        best = dict.fromkeys(STEPS, float("inf"))
        solves = []
        for _ in range(args.repeats):
            times, replayed = replay(table, k)
            seconds, expected = library_release(table, k)
            if replayed != expected:
                print(f"ERROR: {name}: the replayed release differs from "
                      "the library's", file=sys.stderr)
                status = 1
            for step in STEPS:
                best[step] = min(best[step], times[step])
            solves.append(seconds)
        print(f"{name} (min of {args.repeats}, ms)")
        for step in STEPS:
            print(f"  {step:<12}{best[step] * 1e3:8.1f}")
        print(f"  {'sum':<12}{sum(best.values()) * 1e3:8.1f}")
        print(f"  {'library':<12}{min(solves) * 1e3:8.1f}  (whole solve)")
    return status


if __name__ == "__main__":
    sys.exit(main())

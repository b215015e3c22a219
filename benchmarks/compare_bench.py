#!/usr/bin/env python3
"""Benchmark regression guard: diff a fresh run against a baseline.

Compares a ``pytest-benchmark --benchmark-json`` output file against a
committed baseline (``benchmarks/baselines/BENCH_*.json``) and fails —
exit status 1 — when any benchmark's mean time regressed beyond the
threshold (default: 25% slower, i.e. ratio > 1.25).

Baselines are stored in a *reduced* form (name -> mean seconds, plus
provenance) so the committed files stay small and diffs readable; the
script reads both the reduced form and raw pytest-benchmark JSON, and
``--update`` (re)writes a baseline from the current run:

    pytest benchmarks/bench_e9_runtime.py --benchmark-json=run.json
    python benchmarks/compare_bench.py run.json \
        --baseline benchmarks/baselines/BENCH_e9.json [--update]

Policy, also documented in docs/performance.md:

* Only benchmarks present in BOTH files are compared; new benchmarks
  are listed as informational, vanished ones as warnings (a vanished
  benchmark usually means a renamed test — refresh the baseline).
* Sub-millisecond baselines (see ``--min-seconds``) are skipped: at
  that scale the runner's jitter exceeds any real regression.
* A benchmark that times more than the number it is about names that
  number in ``extra_info["guarded_seconds"]``, which is then compared
  in place of its mean (E9's exponent fit: the sum of the per-size
  best solves, not the wall time of every solve).
* The threshold can be loosened per run via ``--threshold`` or the
  ``REPRO_BENCH_TOLERANCE`` environment variable (e.g. on a noisy
  shared runner) — never tightened silently.
* Improvements are reported but never fail the run; commit a refreshed
  baseline (``--update``) to lock them in.

Stdlib only — runs anywhere the test suite runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

#: baseline file format revision
BASELINE_VERSION = 1


def load_means(path: Path) -> dict[str, float]:
    """``{benchmark name: guarded seconds}`` from either JSON format:
    the mean, or the benchmark's own ``guarded_seconds``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data.get("means"), dict):  # reduced baseline form
        return {str(name): float(mean) for name, mean in data["means"].items()}
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise SystemExit(
            f"error: {path} is neither a pytest-benchmark JSON file nor "
            f"a compare_bench baseline"
        )
    return {
        entry["fullname"]: float(
            (entry.get("extra_info") or {}).get(
                "guarded_seconds", entry["stats"]["mean"]
            )
        )
        for entry in benchmarks
    }


def write_baseline(path: Path, means: dict[str, float]) -> None:
    """Write the reduced baseline form (sorted, with provenance)."""
    payload = {
        "version": BASELINE_VERSION,
        "quick_mode": bool(os.environ.get("REPRO_BENCH_QUICK")),
        "backend": os.environ.get("REPRO_BACKEND") or "default",
        "machine": {
            "python": platform.python_version(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "means": {name: means[name] for name in sorted(means)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark mean times regress vs a baseline"
    )
    parser.add_argument(
        "current", type=Path,
        help="fresh pytest-benchmark --benchmark-json output",
    )
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="committed baseline (benchmarks/baselines/BENCH_*.json)",
    )
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional slowdown before failing "
             "(default: 0.25 = 25%%; env: REPRO_BENCH_TOLERANCE)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.001,
        help="skip benchmarks whose baseline mean is below this "
             "(jitter floor, default: 0.001)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="(re)write the baseline from the current run and exit 0",
    )
    args = parser.parse_args(argv)

    current = load_means(args.current)
    if not current:
        print("error: the current run holds no benchmarks", file=sys.stderr)
        return 1
    if args.update or not args.baseline.exists():
        write_baseline(args.baseline, current)
        action = "updated" if args.update else "seeded missing"
        print(f"{action} baseline {args.baseline} "
              f"({len(current)} benchmarks)")
        return 0

    baseline = load_means(args.baseline)
    regressions: list[tuple[str, float, float, float]] = []
    compared = skipped = improved = 0
    print(f"comparing {args.current} against {args.baseline} "
          f"(threshold: +{args.threshold:.0%}, "
          f"floor: {args.min_seconds:g}s)")
    for name in sorted(set(current) & set(baseline)):
        before, after = baseline[name], current[name]
        if before < args.min_seconds:
            skipped += 1
            continue
        compared += 1
        ratio = after / before
        marker = " "
        if ratio > 1.0 + args.threshold:
            regressions.append((name, before, after, ratio))
            marker = "!"
        elif ratio < 1.0 - args.threshold:
            improved += 1
            marker = "+"
        print(f"  {marker} {name}: {before * 1e3:.2f}ms -> "
              f"{after * 1e3:.2f}ms ({ratio:.2f}x)")

    for name in sorted(set(current) - set(baseline)):
        print(f"  ? new benchmark (not in baseline): {name}")
    for name in sorted(set(baseline) - set(current)):
        print(f"  ? baseline benchmark missing from this run: {name}")

    summary = (
        f"{compared} compared, {skipped} below the jitter floor, "
        f"{improved} improved, {len(regressions)} regressed"
    )
    if regressions:
        print(f"FAIL: {summary}", file=sys.stderr)
        for name, before, after, ratio in regressions:
            print(
                f"  regression: {name} {before * 1e3:.2f}ms -> "
                f"{after * 1e3:.2f}ms ({ratio:.2f}x > "
                f"{1 + args.threshold:.2f}x)",
                file=sys.stderr,
            )
        print(
            "  (expected? refresh the baseline with --update and commit "
            "it with the change that justifies the cost)",
            file=sys.stderr,
        )
        return 1
    print(f"ok: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

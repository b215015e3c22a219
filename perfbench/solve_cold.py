"""solve-cold: the Theorem 4.2 library path on fresh tables, no service."""

from __future__ import annotations

import gc
import math
import resource
import subprocess
import sys
import time

from perfbench import layers
from perfbench.common import (
    PERCENTILES,
    ROOT,
    Layer,
    Result,
    child_env,
    format_metric,
    layer_report,
    median,
    percentiles,
    provenance,
    timed,
)

WHY = (
    "library path only: time goes to core.backend, center_cover, "
    "reduce_cover and core.partition; no parse, key, cache or wire work, "
    "so a service change should not move it"
)

ALGORITHM = "center_cover"
#: census n=1000 solves in under 1 s, so a run repeats every instance
#: several times (n=2000 takes 3-5 s and fits once or twice)
CENSUS_N, CENSUS_K = 1000, 5
BINARY_N, BINARY_M, BINARY_K = 800, 128, 4
#: tables per shape; the mix interleaves census and binary tables
SEEDS_PER_SHAPE = 2
#: fresh interpreters timed per run; ``setup_s`` is their median
IMPORT_REPEATS = 15
#: census sizes of the per-layer Theorem 4.2 scaling check
SCALING_N = (500, 1000, 2000)
#: the |V|^3 degree of Theorem 4.2's O(m^2 |V|^2 + |V|^3) bound
EXPONENT_LIMIT = 3.0


def instance_mix(seed: int) -> list[tuple[str, object, int]]:
    """``(shape, table, k)`` per instance, census and binary interleaved."""
    from repro.workloads import census_table, quasi_identifiers, uniform_table

    mix = []
    for index in range(SEEDS_PER_SHAPE):
        table_seed = seed * 1000 + index
        census = quasi_identifiers(census_table(CENSUS_N, seed=table_seed))
        binary = uniform_table(
            BINARY_N, BINARY_M, alphabet_size=2, seed=table_seed
        )
        mix.append(("census", census, CENSUS_K))
        mix.append(("binary", binary, BINARY_K))
    return mix


def import_setup() -> list[float]:
    """Seconds for a fresh interpreter to import repro and load the registry."""
    code = "import repro; from repro import registry; registry.all()"
    return [
        timed(
            subprocess.run, [sys.executable, "-c", code],
            env=child_env(), cwd=ROOT, check=True,
        )[0]
        for _ in range(IMPORT_REPEATS)
    ]


def solve(table, k: int, trace: bool = False):
    """``(seconds, result)`` of the library path on a fresh copy of *table*.

    The copy is a new object, so the solve pays the encode cost as a
    user with a new table does.  The previous solve's garbage is
    collected first, outside the timer.
    """
    from repro import registry
    from repro.core.table import Table

    fresh = Table(table.rows, attributes=table.attributes)
    gc.collect()
    return timed(registry.create(ALGORITHM).anonymize, fresh, k, trace=trace)


def fit_exponent(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(value, 1e-9)) for value in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.core.backend import default_backend_name
    from repro.validate import validate_release

    setups = import_setup()
    backend = default_backend_name()
    mix = instance_mix(seed)

    # untimed warm-up: one traced solve per instance; its validated
    # release is the reference every timed solve must reproduce
    references, traced = [], []
    for _, table, k in mix:
        elapsed, result = solve(table, k, trace=True)
        problems = validate_release(table, result.anonymized, k).problems
        references.append((result.anonymized.to_csv(), problems))
        traced.append((elapsed, layers.trace_phases(result.extras["trace"])))

    # the closed loop: whole rounds of the mix until the time is up, so
    # every instance is solved equally often
    samples: list[tuple[int, float]] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(samples) % len(mix) or time.perf_counter() < deadline:
        index = len(samples) % len(mix)
        _, table, k = mix[index]
        elapsed, result = solve(table, k)
        samples.append((index, elapsed))
        release, problems = references[index]
        if problems or result.anonymized.to_csv() != release:
            failed += 1
        if len(samples) == len(mix):
            # read after a fixed amount of work (warm-up and one round):
            # memory kept across solves would otherwise grow with speed
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss /= 1024.0
    final_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # each instance's solve time is the fastest of its rounds: the solve
    # is deterministic, and other processes on a shared host only ever
    # add to it, for seconds at a time; throughput is one solve of every
    # instance at that time
    rounds = len(samples) // len(mix)
    per_instance = [
        min(e for i, e in samples if i == index)
        for index in range(len(mix))
    ]
    busy = sum(per_instance)
    rows = sum(table.n_rows for _, table, _ in mix)
    cuts = percentiles([value * 1e3 for value in per_instance])
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "solve_rows_per_s": (rows / busy, "rows/s"),
        "requests_per_s": (len(mix) / busy, "1/s"),
        "latency_ms.p50": (cuts["p50"], "ms"),
        "latency_ms.p90": (cuts["p90"], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    lines = [
        "  provenance: " + provenance(backend),
        "  end to end (closed loop, 1 process, no service):",
        format_metric("setup_s", median(setups), "s",
                      f"median of {len(setups)} fresh interpreters"),
        format_metric("solve_rows_per_s", rows / busy, "rows/s",
                      f"{rows} rows, {len(mix)} instances at their fastest"),
        format_metric("requests_per_s", len(mix) / busy, "1/s",
                      f"{len(samples)} solves in {rounds} rounds"),
        *(format_metric(f"latency_ms.{name}", cuts[name], "ms",
                        f"over the {len(mix)} per-instance minima of "
                        f"{rounds} rounds")
          for name, _ in PERCENTILES),
        format_metric("failed_ratio", failed / len(samples), "",
                      f"{failed}/{len(samples)}"),
        format_metric("peak_rss_mb", peak_rss, "MB",
                      f"benchmark process after warm-up and one round; "
                      f"{final_rss:.1f} MB at the end of the run"),
    ]
    for shape in ("census", "binary"):
        times = [e for i, e in samples if mix[i][0] == shape]
        lines.append(format_metric(
            f"solve_ms.{shape}", median(times) * 1e3, "ms",
            f"median of {len(times)}",
        ))

    per_layer: dict[str, tuple[float, str]] = {}
    if trace:
        per_layer, traced_lines = traced_run(mix, references, traced, samples,
                                             backend, seed)
        lines.extend(traced_lines)
    return Result(
        attempted=len(samples),
        failed=failed,
        correct=failed == 0,
        end_to_end=end_to_end,
        per_layer=per_layer,
        lines=lines,
    )


def traced_run(mix, references, traced, samples, backend, seed):
    """Per-layer replays, per-shape layer tables and the scaling check."""
    from repro.workloads import census_table, quasi_identifiers

    lines = ["  traced run (per-shape totals, one solve per instance):"]
    replays, faithful = [], True
    for (_, table, k), (release, _) in zip(mix, references):
        times, replayed = layers.solver_layers(table, k, backend)
        replays.append(times)
        faithful &= replayed == release
    if not faithful:
        lines.append("    WARNING: the step replay's release differs from "
                     "the library path's")

    per_layer: dict[str, tuple[float, str]] = {}
    for name in layers.SOLVER_LAYERS:
        per_layer[name + "_ms"] = (
            sum(times[name] for times in replays) * 1e3, "ms"
        )
    for shape in ("census", "binary"):
        members = [i for i, (s, _, _) in enumerate(mix) if s == shape]
        # the end-to-end time per solve: the untraced median of the shape
        untraced = median(e for i, e in samples if mix[i][0] == shape)
        root = Layer(f"{shape} solve", len(members), untraced * len(members))
        root.children = layers.phase_layers(
            {
                name: sum(traced[m][1].get(name, 0.0) for m in members)
                / len(members)
                for name in ("cover", "reduce", "suppress")
            },
            layers.mean_layers([replays[m] for m in members]),
            len(members),
        )
        lines.append(f"  {shape}:")
        lines.extend(layer_report(root))
        for name in layers.SOLVER_LAYERS:
            total = sum(replays[m][name] for m in members)
            lines.append(format_metric(f"{name}_ms.{shape}", total * 1e3,
                                       "ms", f"{len(members)} calls"))
        steps = {name: sum(replays[m][name] for m in members)
                 for name in layers.SOLVER_LAYERS}
        top = max(steps, key=steps.get)
        lines.append(f"    largest layer on {shape}: {top} "
                     f"({steps[top] / root.total:.1%} of the solve)")
        overhead = median(traced[m][0] for m in members) / untraced - 1.0
        lines.append(f"    tracing overhead: traced warm-up solves vs the "
                     f"untraced median, {overhead:+.1%} (warm-up solves also "
                     f"pay one-off first-call costs)")

    payloads = [
        {"op": "anonymize", "csv": table.to_csv(), "k": k,
         "algorithm": ALGORITHM}
        for _, table, k in mix
    ]
    request = layers.request_layers(
        payloads, [release for release, _ in references], backend
    )
    request["pool.ipc"] = layers.pool_ipc([p["csv"] for p in payloads], 2)
    lines.append("  request-path layers on the mix (totals, one call per "
                 "instance):")
    for name, values in request.items():
        per_layer[name + "_ms"] = (sum(values) * 1e3, "ms")
        lines.append(format_metric(name + "_ms", sum(values) * 1e3, "ms",
                                   f"{len(values)} calls"))

    # Theorem 4.2 scaling: one exponent in n per step of the algorithm
    census = [i for i, (s, _, _) in enumerate(mix) if s == "census"][0]
    by_n = {CENSUS_N: replays[census]}
    for n in SCALING_N:
        if n not in by_n:
            table = quasi_identifiers(census_table(n, seed=seed * 1000 + n))
            by_n[n] = layers.solver_layers(table, CENSUS_K, backend)[0]
    sizes = sorted(by_n)
    lines.append(f"  Theorem 4.2 scaling check (census, k={CENSUS_K}, "
                 f"n in {sizes}; flag above n^{EXPONENT_LIMIT:g}):")
    for name in layers.SOLVER_LAYERS:
        series = [by_n[n][name] for n in sizes]
        if min(series) <= 0:
            continue
        exponent = fit_exponent(sizes, series)
        flag = "FLAG" if exponent > EXPONENT_LIMIT else "ok"
        lines.append(
            f"    {name:<28} exponent {exponent:5.2f}  {flag}  ("
            + ", ".join(f"{v * 1e3:.1f}" for v in series) + " ms)"
        )
    return per_layer, lines

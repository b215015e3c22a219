"""In-process replays of a workload's inputs through each layer's public API.

Each function times calls into one module's public functions on exactly
the inputs the workload generated; nothing inside ``src/`` is
instrumented.  Times are seconds per call.
"""

from __future__ import annotations

import gc
import time

from perfbench.common import timed

#: the Theorem 4.2 steps, in pipeline order
SOLVER_LAYERS = (
    "backend.encode",
    "backend.neighbor_orders",
    "center_cover.cover",
    "reduce_cover.reduce",
    "partition.suppress",
)

#: placeholder ring for replaying ``routing_key`` (no connection is made)
_KEYER_SHARDS = ("127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3")


def per_call(fn, items) -> list[float]:
    """Seconds of ``fn(item)`` for each item."""
    out = []
    for item in items:
        started = time.perf_counter()
        fn(item)
        out.append(time.perf_counter() - started)
    return out


def resolve(algorithm: str, table, k: int) -> str:
    """The solver a request names, as admission resolves it."""
    from repro import registry
    from repro.planner import plan

    if algorithm == "auto":
        return plan(table, k).algorithm
    return registry.get(algorithm).name


def request_layers(
    payloads: list[dict], releases: list[str], backend: str
) -> dict[str, list[float]]:
    """Seconds per call of the request-path layers, replayed in order.

    *payloads* are ``anonymize`` requests in the order the workload sent
    them and *releases* the release CSV answering each.  Keys are
    computed the way shard admission computes them, and the cache is
    replayed at the server's default size: a get per request and a put
    per miss.
    """
    from repro.artifacts import instance_key, state_key
    from repro.core.table import Table
    from repro.planner import plan
    from repro.service import ShardRouter, SolutionCache

    tables = [Table.from_csv(p["csv"]) for p in payloads]
    ks = [p["k"] for p in payloads]
    names = [
        resolve(p["algorithm"], table, k)
        for p, table, k in zip(payloads, tables, ks)
    ]

    def admission_keys(args) -> str:
        table, k, name = args
        key = instance_key(table, k, name, backend)
        if name == "incremental":
            state_key(table, k, name, backend)
        return key

    def plan_or_error(pair) -> None:
        try:
            plan(*pair)
        except OverflowError as exc:  # timed until it raises; reported
            plan_errors.append(f"n={pair[0].n_rows}: {exc}")

    plan_errors: list[str] = []
    keyer = ShardRouter(_KEYER_SHARDS, health_interval=0.0)
    times = {
        "table.from_csv": per_call(Table.from_csv, [p["csv"] for p in payloads]),
        "table.to_csv": per_call(
            Table.to_csv, [Table.from_csv(csv) for csv in releases]
        ),
        "artifacts.key": per_call(admission_keys, list(zip(tables, ks, names))),
        "planner.plan": per_call(plan_or_error, list(zip(tables, ks))),
        "router.routing_key": per_call(keyer.routing_key, payloads),
    }
    if plan_errors:
        print(f"  planner.plan raised OverflowError on {len(plan_errors)} of "
              f"{len(payloads)} tables ({plan_errors[0]})")
    cache = SolutionCache(max_entries=256)
    gets, puts = [], []
    for table, k, name, release in zip(tables, ks, names, releases):
        key = instance_key(table, k, name, backend)
        seconds, entry = timed(cache.get, key)
        gets.append(seconds)
        if entry is None:
            puts.append(timed(cache.put, key, {
                "csv": release, "k": k, "algorithm": name, "backend": backend,
            })[0])
    times["cache.get"] = gets
    times["cache.put"] = puts
    return times


def pool_ipc(csvs: list[str], jobs: int) -> list[float]:
    """Seconds a :class:`WorkerPool` round trip adds to an inline call.

    The task echoes a request-sized CSV string, so the payload crosses
    the process boundary both ways, as a miss's task and outcome do.
    """
    from repro.experiments import WorkerPool, run_tasks

    out = []
    with WorkerPool(jobs) as pool:
        run_tasks(str, [csvs[0]], pool=pool)  # spawn the workers, untimed
        for csv in csvs:
            pooled, _ = timed(run_tasks, str, [csv], pool=pool)
            inline, _ = timed(run_tasks, str, [csv], 1)
            out.append(pooled - inline)
    return out


def solver_layers(table, k: int, backend: str) -> tuple[dict[str, float], str]:
    """Seconds in each Theorem 4.2 step on a fresh copy of *table*.

    Returns the per-layer seconds and the release, which must equal the
    library path's (the replay runs the same steps in the same order).
    """
    from repro.algorithms.center_cover import build_ball_cover
    from repro.algorithms.reduce_cover import reduce_and_shrink
    from repro.core.backend import encode_table, get_backend
    from repro.core.partition import anonymize_partition
    from repro.core.table import Table

    fresh = Table(table.rows, attributes=table.attributes)
    gc.collect()  # earlier garbage is not this replay's cost
    times = {
        "backend.encode": (
            timed(encode_table, fresh)[0] if backend != "python" else 0.0
        ),
    }
    metric = get_backend(fresh, backend)  # a fresh table: a fresh backend
    started = time.perf_counter()
    for center in range(fresh.n_rows):
        metric.neighbor_order(center)
    times["backend.neighbor_orders"] = time.perf_counter() - started
    # the neighbour index is warm, so this is the cover's self time
    times["center_cover.cover"], cover = timed(
        build_ball_cover, fresh, k, backend=backend
    )
    times["reduce_cover.reduce"], partition = timed(
        reduce_and_shrink, fresh, cover, backend=backend
    )
    times["partition.suppress"], (released, _) = timed(
        anonymize_partition, fresh, partition, backend=backend
    )
    return times, released.to_csv()


def trace_phases(trace: dict | None) -> dict[str, float]:
    """Seconds per phase of a ``RunTrace.to_dict()`` payload."""
    return {
        name: float(entry.get("seconds", 0.0))
        for name, entry in ((trace or {}).get("phases") or {}).items()
    }


def phase_layers(
    phases: dict[str, float], solver: dict[str, float], calls: int
) -> list:
    """The solver's own trace phases with the replayed steps nested inside.

    *phases* and *solver* are mean seconds per solve; totals are scaled
    to *calls* solves.  ``cover`` holds encode, neighbour orders and the
    cover's self time; ``reduce`` and ``suppress`` hold one step each.
    """
    from perfbench.common import Layer

    def layer(name: str, seconds: float, children=()) -> Layer:
        return Layer(name, calls, seconds * calls, list(children))

    def steps(*names: str) -> list[Layer]:
        return [layer(name, solver.get(name, 0.0)) for name in names]

    return [
        layer("solver.cover (trace phase)", phases.get("cover", 0.0), steps(
            "backend.encode", "backend.neighbor_orders", "center_cover.cover",
        )),
        layer("solver.reduce (trace phase)", phases.get("reduce", 0.0),
              steps("reduce_cover.reduce")),
        layer("solver.suppress (trace phase)", phases.get("suppress", 0.0),
              steps("partition.suppress")),
    ]


def replay_service(sample: list, resent: list, backend: str, jobs: int,
                   ipc_sample: int) -> dict[str, list[float]]:
    """Per-call seconds of every layer on a service run's own inputs.

    *sample* holds answered ``anonymize`` records in send order; the
    Theorem 4.2 steps are replayed on the instances in *resent* (the
    misses resent with ``trace: true``).
    """
    from repro.core.table import Table

    times = request_layers(
        [r.payload for r in sample], [r.response["csv"] for r in sample],
        backend,
    )
    times["pool.ipc"] = pool_ipc(
        [r.payload["csv"] for r in sample[:ipc_sample]], jobs
    )
    solver = [
        solver_layers(Table.from_csv(r.payload["csv"]), r.payload["k"],
                      backend)[0]
        for *_, r in resent
    ]
    for name in SOLVER_LAYERS:
        times[name] = [steps[name] for steps in solver]
    return times


def solve_layer(misses: list, resent: list, times: dict[str, list[float]],
                worker_parse: str):
    """``server.solve``: the misses' ``solve_seconds``, split into layers.

    Phase times come from the resent traced solves and step times from
    replays of the same instances; both are scaled by the run's mean
    solve time over the resent sample's, so they describe the run's
    misses rather than the sample.
    """
    from perfbench.common import Layer

    total = sum(r.response["solve_seconds"] for r in misses)
    traced = [response for _, _, response, _ in resent if response.get("ok")]
    node = Layer("server.solve (solve_seconds)", len(misses), total)
    if not misses or not traced:
        return node
    sample_mean = mean(response["solve_seconds"] for response in traced)
    scale = total / len(misses) / sample_mean
    phases = mean_layers([trace_phases(r.get("trace")) for r in traced])
    steps = {name: mean(times[name]) * scale for name in SOLVER_LAYERS}
    node.children = [
        Layer(worker_parse, len(misses),
              mean(times["table.from_csv"]) * len(misses)),
        *phase_layers({name: value * scale for name, value in phases.items()},
                      steps, len(misses)),
        Layer("table.to_csv", len(misses),
              mean(times["table.to_csv"]) * len(misses)),
    ]
    return node


def per_layer_lines(
    times: dict[str, list[float]]
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The per-layer metrics (median ms per call) and their report lines."""
    from perfbench.common import format_metric, median

    metrics = {
        name + "_ms": (median(values) * 1e3, "ms")
        for name, values in times.items()
    }
    lines = ["  per-layer metrics (median per call):"] + [
        format_metric(name, value, unit, f"n={len(times[name[:-3]])}")
        for name, (value, unit) in metrics.items()
    ]
    return metrics, lines


def overhead_line(resent: list) -> str:
    """Tracing overhead: traced against untraced resends of one sample."""
    from perfbench.common import median

    if not resent:
        return "  tracing overhead: no misses to resend"
    plain = median(p for p, _, _, _ in resent)
    traced = median(t for _, t, _, _ in resent)
    return (f"  tracing overhead: traced bypass solve {traced * 1e3:.2f} ms "
            f"vs untraced {plain * 1e3:.2f} ms ({traced / plain - 1.0:+.1%}, "
            f"n={len(resent)})")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def mean_layers(samples: list[dict[str, float]]) -> dict[str, float]:
    """Mean seconds per layer over per-instance replays."""
    names = {name for sample in samples for name in sample}
    return {
        name: sum(sample.get(name, 0.0) for sample in samples) / len(samples)
        for name in names
    } if samples else {}

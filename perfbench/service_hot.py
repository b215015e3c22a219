"""service-hot: one ``kanon serve --jobs 2`` answering mostly cache hits."""

from __future__ import annotations

import time

import numpy as np

from perfbench import layers, reference
from perfbench.common import (
    CLIENT_TIMEOUT,
    CONNECTIONS,
    SETUP_REPEATS,
    Fleet,
    Layer,
    Record,
    Result,
    closed_loop,
    format_metric,
    latency_lines,
    layer_report,
    median,
    provenance,
    run_concurrently,
    send,
    split_address,
    timed,
    vmhwm_mb,
    window_lines,
    window_medians,
)
from perfbench.inputs import CensusSource, Instance, Shapes, instance, payload

WHY = (
    "a hit is JSON framing, CSV parse, table hashing and a cache lookup; "
    "the fresh eighth goes through the WorkerPool and makes the tail"
)

JOBS = 2
#: distinct (table, k) instances loaded before the timed loop
WORKING_SET = 36
#: one request in MISS_EVERY is a fresh instance (a cache miss)
MISS_EVERY = 8
ALGORITHMS = ("center_cover", "center", "auto")
N_RANGE = (64, 160)
KS = (3, 5)
#: operations generated per connection per second of run time (about
#: three times what a connection reaches on 2 cores)
OPS_PER_SECOND = 400
#: misses resent, untraced then with ``trace: true``, in the traced run
TRACE_SAMPLE = 24
#: requests replayed in process through the request-path layers
REPLAY_SAMPLE = 400
#: payloads sent through a WorkerPool to time its round trip
IPC_SAMPLE = 30
#: ``stats`` calls timed at the end of the run
STATS_CALLS = 5
#: ``peak_rss_mb`` is read after this many requests, a fixed amount of
#: work: the server's memory grows with requests served, and a reading
#: at the end of the run would grow with throughput
RSS_AFTER = 2000


def make_inputs(seed: int, seconds: float):
    """The working set and one operation stream per connection."""
    rng = np.random.default_rng([seed, 2])
    source = CensusSource(seed)
    shapes = Shapes(*N_RANGE, WORKING_SET, KS)

    def fresh() -> Instance:
        n, k = shapes.next()
        return instance(source.table(rng, n), k)

    working = [fresh() for _ in range(WORKING_SET)]
    streams = []
    for _ in range(CONNECTIONS):
        ops = []
        for position in range(int(seconds * OPS_PER_SECOND)):
            if position % MISS_EVERY == MISS_EVERY - 1:
                item = fresh()
            else:
                item = working[int(rng.integers(WORKING_SET))]
            algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
            ops.append((item, payload(item, algorithm)))
        streams.append(ops)
    return working, streams


def warm_up(address: str, working: list[Instance]) -> list[Record]:
    """Load the working set, each instance as every algorithm name."""
    from repro.service import ServiceClient

    def load(items: list[Instance]) -> list[Record]:
        records: list[Record] = []
        with ServiceClient(
            *split_address(address), timeout=CLIENT_TIMEOUT, retries=0
        ) as client:
            client.ping()
            for item in items:
                for algorithm in ALGORITHMS:
                    if send(client, item, payload(item, algorithm),
                            records) is None:
                        raise RuntimeError(
                            f"warm-up request failed: {records[-1].error}"
                        )
        return records

    chunks = [working[i::CONNECTIONS] for i in range(CONNECTIONS)]
    return [r for chunk in run_concurrently(load, chunks) for r in chunk]


def start(working: list[Instance]) -> tuple[Fleet, list[Record]]:
    """Spawn the server, wait for ``ping`` and run the warm-up pass."""
    fleet = Fleet()
    try:
        (fleet.front,) = fleet.launch(("serve", "--jobs", str(JOBS)))
        return fleet, warm_up(fleet.front, working)
    except BaseException:
        fleet.kill()
        raise


def execute(client, op, barrier, records: list[Record]) -> bool:
    item, request = op
    send(client, item, request, records)
    return True


def resend(address: str, records: list[Record]) -> list[tuple]:
    """Resend distinct misses with the cache bypassed, untraced then traced.

    Returns ``(untraced seconds, traced seconds, traced response)`` per
    resent request.
    """
    from repro.service import ServiceClient

    picked = list({
        id(record.op): record for record in records
        if record.cache == "miss" and record.error is None
    }.values())[:TRACE_SAMPLE]
    out = []
    with ServiceClient(
        *split_address(address), timeout=CLIENT_TIMEOUT, retries=0
    ) as client:
        for record in picked:
            bypass = {**record.payload, "use_cache": False}
            plain, _ = timed(client.request, bypass)
            traced, response = timed(client.request, {**bypass, "trace": True})
            out.append((plain, traced, response, record))
    return out


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.core.backend import default_backend_name
    from repro.service import ServiceClient

    backend = default_backend_name()
    working, streams = make_inputs(seed, seconds)
    setups: list[float] = []
    fleet = None
    try:
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.shutdown()
            started = time.perf_counter()
            fleet, warm_records = start(working)
            setups.append(time.perf_counter() - started)
        server_rss = lambda: vmhwm_mb(fleet.pids())  # noqa: E731
        loop = closed_loop(fleet.front, streams, seconds, execute,
                           probe=server_rss, probe_after=RSS_AFTER)
        with ServiceClient(
            *split_address(fleet.front), timeout=CLIENT_TIMEOUT, retries=0
        ) as client:
            stats_calls = [timed(client.stats) for _ in range(STATS_CALLS)]
        stats = stats_calls[-1][1]
        final_rss = server_rss()
        peak_rss = loop.probed if loop.probed is not None else final_rss
        resent = resend(fleet.front, loop.records) if trace else []
        fleet.shutdown()
    finally:
        if fleet is not None:
            fleet.kill()

    records = loop.records
    refs = reference.references(
        reference.request_key(r.payload) for r in warm_records + records
    )
    failures: dict[str, int] = {}
    failed_records = set()
    for record in records:
        reason = record.error or reference.check(
            record.response, refs[reference.request_key(record.payload)]
        )
        if reason:
            failures[reason] = failures.get(reason, 0) + 1
            failed_records.add(id(record))
    ok = [r for r in records if id(r) not in failed_records]
    hits = [r for r in records if r.cache == "hit"]
    misses = [r for r in records if r.cache == "miss"]
    latencies = [r.latency for r in records]
    rows = sum(r.op.n for r in ok)
    windowed = window_medians(
        loop, lambda r: id(r) not in failed_records, lambda r: r.op.n
    )
    stats_ms = median(seconds for seconds, _ in stats_calls) * 1e3
    miss_overhead = [r.latency - r.response["solve_seconds"] for r in misses]
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "solve_rows_per_s": (windowed["solve_rows_per_s"], "rows/s"),
        "requests_per_s": (windowed["requests_per_s"], "1/s"),
        "latency_ms.p50": (windowed["latency_ms.p50"], "ms"),
        "latency_ms.p90": (windowed["latency_ms.p90"], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    lines = [
        "  provenance: " + provenance(backend),
        f"  end to end (closed loop, {CONNECTIONS} connections, "
        f"kanon serve --jobs {JOBS}, {loop.elapsed:.2f} s):",
        format_metric("setup_s", median(setups), "s",
                      f"median of {len(setups)} setups: "
                      + ", ".join(f"{s:.3f}" for s in setups)),
        *window_lines(windowed, f"{rows} rows",
                      f"{len(ok)} completed of {len(records)}"),
        *latency_lines(latencies, "requests", "whole_run.latency_ms"),
        format_metric("failed_ratio", len(failed_records) / len(records), "",
                      f"{len(failed_records)}/{len(records)}"),
        format_metric("peak_rss_mb", peak_rss, "MB",
                      "VmHWM summed over the server and its pool workers "
                      f"after {RSS_AFTER} requests; {final_rss:.1f} MB at "
                      "the end of the run"),
        "  layers read from the run:",
        format_metric("server.hit_ms", median(r.latency for r in hits) * 1e3,
                      "ms", f"median of {len(hits)} hits"),
        format_metric("server.miss_overhead_ms", median(miss_overhead) * 1e3,
                      "ms", f"median of {len(misses)} misses, latency minus "
                      "solve_seconds"),
        format_metric("server.stats_ms", stats_ms, "ms",
                      f"median of {STATS_CALLS} stats calls"),
        format_metric("server.batch_mean_size",
                      stats["batches"]["mean_size"], "jobs",
                      f"{stats['batches']['count']} batches"),
        format_metric("server.coalesced", stats["coalesced"], "count"),
        format_metric("cache.hit_rate", stats["cache"]["hit_rate"], "ratio",
                      "warm-up included"),
        format_metric("cache.evictions", stats["cache"]["evictions"], "count"),
    ]
    if loop.exhausted:
        lines.append(f"  WARNING: {loop.exhausted} connection(s) ran out of "
                     "operations before the deadline")
    for reason, count in sorted(failures.items()):
        lines.append(f"  failure x{count}: {reason}")

    per_layer: dict[str, tuple[float, str]] = {}
    if trace:
        per_layer, traced_lines = traced_run(
            records, hits, misses, resent, loop, backend
        )
        lines.extend(traced_lines)
    return Result(
        attempted=len(records),
        failed=len(failed_records),
        correct=not failed_records,
        end_to_end=end_to_end,
        per_layer=per_layer,
        lines=lines,
    )


def traced_run(records, hits, misses, resent, loop, backend):
    """Layer replays on the run's own inputs and the layer table."""
    sample = [r for r in records if r.error is None][:REPLAY_SAMPLE]
    times = layers.replay_service(sample, resent, backend, JOBS, IPC_SAMPLE)

    def layer(name: str, calls: int, label: str | None = None) -> Layer:
        return Layer(label or name, calls, layers.mean(times[name]) * calls)

    auto_hits = sum(r.payload["algorithm"] == "auto" for r in hits)
    auto_misses = sum(r.payload["algorithm"] == "auto" for r in misses)
    root = Layer("connection time", len(records), loop.connection_seconds, [
        Layer("server.hit", len(hits), sum(r.latency for r in hits), [
            layer("table.from_csv", len(hits)),
            layer("artifacts.key", len(hits)),
            layer("planner.plan", auto_hits),
            layer("cache.get", len(hits)),
        ]),
        Layer("server.miss", len(misses), sum(r.latency for r in misses), [
            layer("table.from_csv", len(misses), "table.from_csv (admission)"),
            layer("artifacts.key", len(misses)),
            layer("planner.plan", auto_misses),
            layer("cache.get", len(misses)),
            layer("cache.put", len(misses)),
            layer("pool.ipc", len(misses)),
            layers.solve_layer(misses, resent, times,
                               "table.from_csv (worker)"),
        ]),
    ])
    per_layer, lines = layers.per_layer_lines(times)
    lines.insert(0, f"  traced run: {len(sample)} requests replayed in "
                    f"process, {len(resent)} misses resent with trace: true")
    lines.append("  layer table (connection time = summed closed-loop time of "
                 "both connections):")
    lines.extend(layer_report(root))
    lines.append(layers.overhead_line(resent))
    return per_layer, lines

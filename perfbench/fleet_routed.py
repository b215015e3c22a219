"""fleet-routed: ``kanon route`` over 3 ``kanon serve`` shards, all instances new."""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass

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
    send,
    split_address,
    timed,
    vmhwm_mb,
    window_lines,
    window_medians,
)
from perfbench.inputs import CensusSource, Instance, Shapes, instance, payload

WHY = (
    "the router parses, keys and plans each request again before its "
    "shard; inline solves, cache writes and evictions, coalesced duplicates"
)

SHARDS = 3
N_RANGE = (64, 128)
#: distinct table sizes in the shape cycle (odd, so k alternates across it)
SIZES = 33
KS = (3, 5)
ALGORITHMS = ("center_cover", "auto")
#: every PAIR_EVERY-th position sends one request on both connections at once
PAIR_EVERY = 10
#: the position (mod PAIR_EVERY) of an incremental solve plus a delta
INCREMENTAL_AT = 5
#: rows appended by the one-step ``delta``
DELTA_ROWS = 4
#: positions generated per connection per second of run time (about
#: twice what a connection reaches on 2 cores)
OPS_PER_SECOND = 150
#: warm-up instances owned by each shard
WARM_PER_SHARD = 2
#: warmed instances timed through the router and directly at their shard
HOP_SAMPLE = 12
HOP_REPEATS = 5
#: misses resent, untraced then with ``trace: true``, in the traced run
TRACE_SAMPLE = 24
#: requests replayed in process through the request-path layers
REPLAY_SAMPLE = 400
#: payloads sent through a WorkerPool to time its round trip
IPC_SAMPLE = 30
#: ``peak_rss_mb`` is read after this many requests (see service-hot)
RSS_AFTER = 500


@dataclass(eq=False)
class Op:
    """One closed-loop operation: a solve, a paired solve or a delta chain."""

    kind: str  # "solve", "pair" or "incremental"
    item: Instance
    request: dict
    delta_csv: str | None = None

    @property
    def n(self) -> int:
        return self.item.n


class Balancer:
    """Instances drawn so every shard owns the same share of them.

    The ring hashes shard addresses, and ports are ephemeral, so which
    shard owns a table changes from run to run.  Candidates come from
    one seeded sequence and are handed out round-robin by owner, so each
    shard's share is fixed whatever ports the run got.
    """

    def __init__(self, source: CensusSource, rng, addresses, backend: str):
        from repro.service import ShardRouter

        self.source = source
        self.rng = rng
        self.shapes = Shapes(N_RANGE[0], N_RANGE[1], SIZES, KS)
        self.ring = ShardRouter(addresses, health_interval=0.0).ring
        self.owners = sorted(addresses)
        self.backend = backend
        self.spare: dict[tuple[str, str], list] = {}
        self.drawn = 0

    def key(self, table, k: int, algorithm: str) -> tuple[str, str]:
        """``(resolved algorithm, routing key)`` as the router computes it."""
        from repro.artifacts import instance_key, state_key

        name = layers.resolve(algorithm, table, k)
        if name == "incremental":
            return name, state_key(table, k, name, self.backend)
        return name, instance_key(table, k, name, self.backend)

    def draw(self, algorithm: str) -> Instance:
        """The next instance for *algorithm*, owned by the next shard in turn."""
        owner = self.owners[self.drawn % len(self.owners)]
        self.drawn += 1
        # auto resolves to center_cover at these sizes; a candidate that
        # resolves elsewhere lands in a queue that is never drawn from
        wanted = "incremental" if algorithm == "incremental" else "center_cover"
        queue = self.spare.setdefault((wanted, owner), [])
        while not queue:
            n, k = self.shapes.next()
            table = self.source.table(self.rng, n)
            name, key = self.key(table, k, algorithm)
            self.spare.setdefault((name, self.ring.owner(key)), []).append(
                instance(table, k)
            )
        return queue.pop(0)


def make_streams(source, rng, balancer: Balancer, positions: int) -> list[list[Op]]:
    """One operation stream per connection; pairs share one ``Op``."""
    streams: list[list[Op]] = [[] for _ in range(CONNECTIONS)]
    for position in range(positions):
        if position % PAIR_EVERY == 0:
            algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
            item = balancer.draw(algorithm)
            op = Op("pair", item, payload(item, algorithm))
            for stream in streams:
                stream.append(op)
            continue
        for stream in streams:
            if position % PAIR_EVERY == INCREMENTAL_AT:
                item = balancer.draw("incremental")
                delta = source.table(rng, DELTA_ROWS).to_csv()
                stream.append(Op("incremental", item,
                                 payload(item, "incremental"), delta))
            else:
                algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
                item = balancer.draw(algorithm)
                stream.append(Op("solve", item, payload(item, algorithm)))
    return streams


def execute(client, op: Op, barrier: threading.Barrier, records) -> bool:
    if op.kind == "pair":
        try:
            barrier.wait(timeout=CLIENT_TIMEOUT)
        except threading.BrokenBarrierError:
            return False  # the partner connection stopped
    response = send(client, op, op.request, records)
    if op.kind == "incremental" and response is not None:
        send(client, op, {
            "op": "delta", "state_key": response.get("state_key"),
            "csv": op.delta_csv, "k": op.item.k,
        }, records)
    return True


def start(source: CensusSource, seed: int, backend: str):
    """Spawn 3 shards and a router, ping, and warm every shard up."""
    from repro.service import ServiceClient
    from repro.service.hashring import DEFAULT_VNODES

    fleet = Fleet()
    try:
        shards = fleet.launch(*[("serve",)] * SHARDS)
        shard_args = [arg for address in shards for arg in ("--shard", address)]
        (fleet.front,) = fleet.launch(
            ("route", *shard_args, "--vnodes", str(DEFAULT_VNODES))
        )
        rng = np.random.default_rng([seed, 4])
        balancer = Balancer(source, rng, shards, backend)
        ops = []
        for _ in range(WARM_PER_SHARD * SHARDS):
            item = balancer.draw("center_cover")
            ops += [Op("solve", item, payload(item, name)) for name in ALGORITHMS]
        for _ in range(SHARDS):
            item = balancer.draw("incremental")
            ops.append(Op("incremental", item, payload(item, "incremental"),
                          source.table(rng, DELTA_ROWS).to_csv()))
        records: list[Record] = []
        with ServiceClient(
            *split_address(fleet.front), timeout=CLIENT_TIMEOUT, retries=0
        ) as client:
            client.ping()
            for op in ops:
                execute(client, op, threading.Barrier(1), records)
        errors = [r.error for r in records if r.error]
        if errors:
            raise RuntimeError(f"warm-up request failed: {errors[0]}")
        return fleet, shards, records
    except BaseException:
        fleet.kill()
        raise


def router_hops(front: str, records: list[Record]) -> list[float]:
    """Routed hit latency minus direct-to-owner hit latency, per instance."""
    from repro.service import ServiceClient

    picked = [r for r in records if r.op.kind == "solve" and r.error is None
              and r.payload["op"] == "anonymize"][-HOP_SAMPLE:]
    hops = []
    direct: dict[str, ServiceClient] = {}
    with ServiceClient(
        *split_address(front), timeout=CLIENT_TIMEOUT, retries=0
    ) as routed:
        try:
            for record in picked:
                shard = routed.request(record.payload)["shard"]  # warm it
                if shard not in direct:
                    direct[shard] = ServiceClient(
                        *split_address(shard), timeout=CLIENT_TIMEOUT,
                        retries=0,
                    )
                via_router = [timed(routed.request, record.payload)[0]
                              for _ in range(HOP_REPEATS)]
                at_shard = [timed(direct[shard].request, record.payload)[0]
                            for _ in range(HOP_REPEATS)]
                hops.append(median(via_router) - median(at_shard))
        finally:
            for client in direct.values():
                client.close()
    return hops


def resend(front: str, records: list[Record]) -> list[tuple]:
    """Resend distinct misses with the cache bypassed, untraced then traced."""
    from repro.service import ServiceClient

    picked = list({
        id(r.op): r for r in records
        if r.cache == "miss" and r.op.kind == "solve" and r.error is None
    }.values())[:TRACE_SAMPLE]
    out = []
    with ServiceClient(
        *split_address(front), timeout=CLIENT_TIMEOUT, retries=0
    ) as client:
        for record in picked:
            bypass = {**record.payload, "use_cache": False}
            plain, _ = timed(client.request, bypass)
            traced, response = timed(client.request, {**bypass, "trace": True})
            out.append((plain, traced, response, record))
    return out


def request_key(record: Record) -> tuple:
    """The reference a record's release must equal (a delta: its stream's)."""
    prefix = record.op.request if record.payload["op"] == "delta" else None
    return reference.request_key(record.payload, prefix)


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.core.backend import default_backend_name
    from repro.service import ServiceClient, ShardRouter

    backend = default_backend_name()
    setups: list[float] = []
    source = CensusSource(seed)
    fleet = None
    try:
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.shutdown()
            started = time.perf_counter()
            fleet, shards, warm_records = start(source, seed, backend)
            setups.append(time.perf_counter() - started)
        rng = np.random.default_rng([seed, 3])
        streams = make_streams(
            source, rng, Balancer(source, rng, shards, backend),
            int(seconds * OPS_PER_SECOND),
        )

        def fleet_rss() -> float:
            return vmhwm_mb(fleet.pids())

        loop = closed_loop(fleet.front, streams, seconds, execute,
                           probe=fleet_rss, probe_after=RSS_AFTER)
        with ServiceClient(
            *split_address(fleet.front), timeout=CLIENT_TIMEOUT, retries=0
        ) as client:
            stats = client.stats()
        final_rss = fleet_rss()
        peak_rss = loop.probed if loop.probed is not None else final_rss
        hops = router_hops(fleet.front, loop.records) if trace else []
        resent = resend(fleet.front, loop.records) if trace else []
        fleet.shutdown()
    finally:
        if fleet is not None:
            fleet.kill()

    records = loop.records
    refs = reference.references(
        request_key(r) for r in warm_records + records if r.error is None
    )
    failures: dict[str, int] = {}
    failed_records = set()
    for record in warm_records + records:
        reason = record.error or reference.check(
            record.response, refs[request_key(record)]
        )
        if reason:
            failures[reason] = failures.get(reason, 0) + 1
            failed_records.add(id(record))

    # the fleet audit: summed shard solves against distinct routing keys.
    # A delta routes on its stream's state_key, the key its prefix solve
    # routed on, but solves a new grown instance: it is told apart by its
    # appended rows.
    keyer = ShardRouter(shards, health_interval=0.0)
    keys, routing_times = set(), []
    for record in warm_records + records:
        if record.error is not None:
            continue
        if record.payload["op"] == "delta":
            keys.add((record.payload["state_key"], record.payload["csv"]))
        else:
            elapsed, key = timed(keyer.routing_key, record.payload)
            routing_times.append(elapsed)
            keys.add((key, None))
    duplicate_solves = stats["solved_instances"] - len(keys)
    shard_solved = {
        address: shard.get("solved_instances", 0)
        for address, shard in sorted(stats["shards"].items())
    }
    owned = Counter(keyer.ring.owner(key) for key, _ in keys)
    counters = stats["router"]["counters"]

    timed_failed = [r for r in records if id(r) in failed_records]
    ok = [r for r in records if id(r) not in failed_records]
    misses = [r for r in records if r.cache == "miss"]
    latencies = [r.latency for r in records]

    def rows_of(record: Record) -> int:
        return (record.op.n if record.payload["op"] == "anonymize"
                else DELTA_ROWS)

    rows = sum(map(rows_of, ok))
    windowed = window_medians(
        loop, lambda r: id(r) not in failed_records, rows_of
    )
    miss_overhead = [r.latency - r.response["solve_seconds"] for r in misses]
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "solve_rows_per_s": (windowed["solve_rows_per_s"], "rows/s"),
        "requests_per_s": (windowed["requests_per_s"], "1/s"),
        "latency_ms.p50": (windowed["latency_ms.p50"], "ms"),
        "latency_ms.p90": (windowed["latency_ms.p90"], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    kinds = Counter(r.op.kind if r.payload["op"] == "anonymize" else "delta"
                    for r in records)
    lines = [
        "  provenance: " + provenance(backend),
        f"  end to end (closed loop, {CONNECTIONS} connections, kanon route "
        f"over {SHARDS} kanon serve shards, {loop.elapsed:.2f} s; requests: "
        + ", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items()))
        + "):",
        format_metric("setup_s", median(setups), "s",
                      f"median of {len(setups)} setups: "
                      + ", ".join(f"{s:.3f}" for s in setups)),
        *window_lines(windowed, f"{rows} rows",
                      f"{len(ok)} completed of {len(records)}"),
        *latency_lines(latencies, "requests", "whole_run.latency_ms"),
        format_metric("failed_ratio", len(timed_failed) / len(records), "",
                      f"{len(timed_failed)}/{len(records)}"),
        format_metric("peak_rss_mb", peak_rss, "MB",
                      f"VmHWM summed over the router and the shards after "
                      f"{RSS_AFTER} requests; {final_rss:.1f} MB at the end "
                      "of the run"),
        format_metric("duplicate_solves", duplicate_solves, "count",
                      f"{stats['solved_instances']} shard solves, "
                      f"{len(keys)} distinct routing keys"),
        "  fleet audit (solved per shard / owned by the ring):",
        *(f"    {address}: {count} / {owned.get(address, 0)}"
          for address, count in shard_solved.items()),
        "  layers read from the run:",
        format_metric("router.routing_key_ms", median(routing_times) * 1e3,
                      "ms", f"median of {len(routing_times)}, in process"),
        format_metric("router.rerouted", counters.get("rerouted", 0), "count"),
        format_metric("router.unroutable", counters.get("unroutable", 0),
                      "count"),
        format_metric("server.miss_overhead_ms", median(miss_overhead) * 1e3,
                      "ms", f"median of {len(misses)} misses, latency minus "
                      "solve_seconds (router hop included)"),
        format_metric("server.batch_mean_size",
                      stats["batches"]["mean_size"], "jobs",
                      f"{stats['batches']['count']} batches"),
        format_metric("server.coalesced", stats["coalesced"], "count"),
        format_metric("cache.hit_rate", stats["cache"]["hit_rate"], "ratio"),
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
            records, misses, hops, resent, loop, backend
        )
        lines.extend(traced_lines)
    return Result(
        attempted=len(records),
        failed=len(timed_failed),
        correct=not failed_records and duplicate_solves == 0,
        end_to_end=end_to_end,
        per_layer=per_layer,
        lines=lines,
    )


def traced_run(records, misses, hops, resent, loop, backend):
    """Layer replays on the run's own inputs and the layer table."""
    sample = [r for r in records if r.error is None
              and r.payload["op"] == "anonymize"][:REPLAY_SAMPLE]
    # the shards run inline; the pool round trip is timed for comparison
    times = layers.replay_service(sample, resent, backend, 2, IPC_SAMPLE)

    def layer(name: str, calls: int, label: str | None = None,
              children=()) -> Layer:
        return Layer(label or name, calls, layers.mean(times[name]) * calls,
                     list(children))

    anonymize = [r for r in records if r.payload["op"] == "anonymize"]
    auto = sum(r.payload["algorithm"] == "auto" for r in anonymize)
    hop = median(hops)
    total = sum(r.latency for r in records)
    root = Layer("connection time", len(records), loop.connection_seconds, [
        Layer("service.router (hop)", len(records), hop * len(records), [
            layer("router.routing_key", len(anonymize), children=[
                layer("table.from_csv", len(anonymize),
                      "table.from_csv (router)"),
                layer("planner.plan", auto, "planner.plan (router)"),
                layer("artifacts.key", len(anonymize),
                      "artifacts.key (router)"),
            ]),
        ]),
        Layer("service.server (shard)", len(records),
              total - hop * len(records), [
                  layer("table.from_csv", len(records),
                        "table.from_csv (admission)"),
                  layer("artifacts.key", len(records)),
                  layer("planner.plan", auto),
                  layer("cache.get", len(records)),
                  layer("cache.put", len(misses)),
                  layers.solve_layer(misses, resent, times,
                                     "table.from_csv (solve)"),
              ]),
    ])
    per_layer, lines = layers.per_layer_lines(times)
    lines[:0] = [
        f"  traced run: {len(sample)} requests replayed in process, "
        f"{len(resent)} misses resent with trace: true, router hop on "
        f"{len(hops)} warmed instances",
        format_metric("router.hop_ms", hop * 1e3, "ms",
                      f"median of {len(hops)} (routed hit minus direct hit, "
                      f"{HOP_REPEATS} each)"),
    ]
    lines.append("  layer table (connection time = summed closed-loop time of "
                 "both connections):")
    lines.extend(layer_report(root))
    lines.append(layers.overhead_line(resent))
    return per_layer, lines

"""E19 — the anonymization service: cache throughput and batching.

The service's scaling story is amortization: optimal k-anonymity is
NP-hard, so the content-addressed solution cache turns every repeated
instance into an O(1) lookup.  This experiment measures

* **cold vs warm throughput** over the real TCP wire: identical
  instances served with the cache bypassed (every request re-solves)
  against the same instances served from the warm cache.  The gate —
  warm >= 5x cold — is the PR's acceptance criterion and is
  deliberately conservative: in practice the gap is orders of
  magnitude.
* **batch vs serial dispatch**: one batch of chunky distinct instances
  fanned out to ``jobs=2`` worker processes against the same batch
  solved serially (``jobs=1``), with a parity check.  The speedup is
  reported (not gated — spawn overhead and core count dominate on
  small CI boxes; E18 gates the underlying executor).

Run with ``REPRO_BENCH_QUICK=1`` for the CI-sized version.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.service import AnonymizationService, ServiceClient, ServiceServer
from repro.workloads import census_table, quasi_identifiers

from .conftest import fmt, quick_mode

#: requests per throughput phase
REQUESTS = 20 if quick_mode() else 50

#: table size for the throughput workload (center_cover is ~quadratic,
#: so this keeps one cold solve in the tens of milliseconds)
N_ROWS = 48 if quick_mode() else 96


def _throughput(client: ServiceClient, table, *, use_cache: bool) -> float:
    """Requests per second over REQUESTS identical submissions."""
    started = time.perf_counter()
    for _ in range(REQUESTS):
        response = client.anonymize(table, 3, use_cache=use_cache)
        assert response["ok"]
    return REQUESTS / (time.perf_counter() - started)


def test_e19_warm_cache_throughput(benchmark, report):
    """Warm-cache throughput must be >= 5x cold on identical instances."""
    table = quasi_identifiers(census_table(N_ROWS, seed=0))
    with ServiceServer(AnonymizationService(max_entries=64)) as server:
        with ServiceClient(*server.address, timeout=300.0) as client:
            cold_rps = _throughput(client, table, use_cache=False)
            prime = client.anonymize(table, 3)  # fill the cache
            assert prime["cache"] == "miss"

            def warm_phase():
                return _throughput(client, table, use_cache=True)

            warm_rps = benchmark.pedantic(warm_phase, rounds=1,
                                          iterations=1)
            stats = client.stats()
    assert stats["cache"]["hits"] >= REQUESTS
    speedup = warm_rps / cold_rps
    benchmark.extra_info.update(
        n=N_ROWS, requests=REQUESTS, cold_rps=cold_rps, warm_rps=warm_rps,
        speedup=speedup,
    )
    report.line(
        f"E19 throughput (n={N_ROWS}, {REQUESTS} requests): "
        f"cold {fmt(cold_rps, 1)} req/s, warm {fmt(warm_rps, 1)} req/s "
        f"-> {fmt(speedup, 1)}x"
    )
    assert speedup >= 5.0


def _solve_batch(jobs: int, tables) -> tuple[list, float]:
    """Distinct requests sent at once through the service core at *jobs*
    solvers; each is its own dispatch."""

    async def scenario():
        service = AnonymizationService(jobs=jobs)
        try:
            return await asyncio.gather(*(
                service.handle({
                    "op": "anonymize", "csv": t.to_csv(), "k": 2,
                    "algorithm": "exact",
                })
                for t in tables
            ))
        finally:
            await service.stop()

    started = time.perf_counter()
    responses = asyncio.run(scenario())
    return responses, time.perf_counter() - started


def test_e19_batch_vs_serial_dispatch(benchmark, report):
    """Batched dispatch onto 2 workers vs serial, bit-identical output."""
    from repro.experiments import ratio_table

    size = (9, 4) if quick_mode() else (11, 4)
    tables = [
        ratio_table(0, trial, size[0], size[1], 3)
        for trial in range(4 if quick_mode() else 6)
    ]
    serial, serial_seconds = _solve_batch(1, tables)

    def parallel_run():
        return _solve_batch(2, tables)

    parallel, parallel_seconds = benchmark.pedantic(
        parallel_run, rounds=1, iterations=1
    )
    assert [r["csv"] for r in parallel] == [r["csv"] for r in serial]
    assert [r["stars"] for r in parallel] == [r["stars"] for r in serial]
    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info.update(
        batch=len(tables), n=size[0], serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds, speedup=speedup,
        cores=os.cpu_count(),
    )
    report.line(
        f"E19 batch of {len(tables)} exact solves (n={size[0]}): "
        f"jobs=1 {fmt(serial_seconds, 2)}s, "
        f"jobs=2 {fmt(parallel_seconds, 2)}s -> {fmt(speedup, 2)}x "
        f"on {os.cpu_count()} cores"
    )

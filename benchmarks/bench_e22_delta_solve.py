"""E22 — incremental delta-solves: warm continuation vs cold re-solve.

The ``delta`` verb's scaling story: once a table has been solved with
the streaming engine, bringing it up to date after a handful of
appended rows should cost a few flushes — not a re-run of the whole
stream.  This experiment measures

* **cold vs delta latency**: a from-scratch ``incremental`` solve of
  the grown table (cache bypassed, every run re-streams all rows)
  against a ``delta`` solve of only the appended rows on the restored
  state snapshot.  The gate is warm delta >= 3x cold.  Every request
  runs on one event loop against one service, so neither phase pays a
  fresh loop and solve thread per request.
* **correctness alongside the timing**: the delta release must be
  byte-identical to the cold streaming run (replay equivalence, which
  also pins the suppression cost to the streaming engine's bound), and
  the groups the delta never touched must keep their frozen images
  byte-identical (the anti-intersection invariant over the wire).

Run with ``REPRO_BENCH_QUICK=1`` for the CI-sized version.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.alphabet import STAR
from repro.core.table import Table
from repro.service import AnonymizationService
from repro.workloads import census_table, quasi_identifiers

from .conftest import fmt, quick_mode

#: rows already solved before the delta arrives (the cold stream's
#: cost grows superlinearly in this, the delta's barely at all)
N_ROWS = 360 if quick_mode() else 720

#: rows appended by the delta
DELTA_ROWS = 12 if quick_mode() else 24

#: timed repetitions per phase
ROUNDS = 3 if quick_mode() else 5

K = 3


def _tables() -> tuple[Table, Table, Table]:
    """(base, delta, grown) cut from one wire-representation table."""
    grown = quasi_identifiers(census_table(N_ROWS + DELTA_ROWS, seed=0))
    grown = Table.from_csv(grown.to_csv())  # all-string, as the wire sees it
    base = Table(grown.rows[:N_ROWS], attributes=grown.attributes)
    delta = Table(grown.rows[N_ROWS:], attributes=grown.attributes)
    return base, delta, grown


def _timed(loop: asyncio.AbstractEventLoop, service: AnonymizationService,
           request: dict) -> tuple[dict, float]:
    """One request through the core on *loop*, returning (response,
    seconds).  Every request of a run shares the loop and the service,
    so a timing holds the request's own work, not a loop's start-up."""
    started = time.perf_counter()
    response = loop.run_until_complete(service.handle(dict(request)))
    seconds = time.perf_counter() - started
    assert response["ok"], response
    return response, seconds


def test_e22_delta_vs_cold_solve(benchmark, report):
    """A warm delta-solve must be >= 3x faster than a cold re-solve."""
    loop = asyncio.new_event_loop()
    service = AnonymizationService()
    try:
        _delta_vs_cold(loop, service, benchmark, report)
    finally:
        loop.run_until_complete(service.stop())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


def _delta_vs_cold(loop, service, benchmark, report):
    base, delta, grown = _tables()

    # prime: solve the base stream once; its snapshot seeds the chain
    prime, _ = _timed(loop, service, {
        "op": "anonymize", "csv": base.to_csv(), "k": K,
        "algorithm": "incremental",
    })
    assert prime["cache"] == "miss"
    state_key = prime["state_key"]

    # cache bypassed on both sides so every timed run actually solves;
    # the delta still restores the stored snapshot (state lookups are
    # not part of the solution-cache bypass)
    cold_request = {
        "op": "anonymize", "csv": grown.to_csv(), "k": K,
        "algorithm": "incremental", "use_cache": False,
    }
    delta_request = {
        "op": "delta", "state_key": state_key, "csv": delta.to_csv(),
        "use_cache": False,
    }

    cold_seconds = []
    for _ in range(ROUNDS):
        cold, seconds = _timed(loop, service, cold_request)
        cold_seconds.append(seconds)

    def delta_phase():
        return _timed(loop, service, delta_request)

    warm, warm_first = benchmark.pedantic(delta_phase, rounds=1,
                                          iterations=1)
    warm_seconds = [warm_first]
    for _ in range(ROUNDS - 1):
        _, seconds = _timed(loop, service, delta_request)
        warm_seconds.append(seconds)

    # replay equivalence: the delta release is byte-identical to the
    # cold streaming run, so its suppression cost IS the streaming
    # engine's cost — the bound holds with equality
    assert warm["csv"] == cold["csv"]
    assert warm["stars"] == cold["stars"]

    # untouched groups keep their frozen images byte-identical, and no
    # published prefix cell ever gets more specific
    before = Table.from_csv(prime["csv"]).rows
    after = Table.from_csv(warm["csv"]).rows
    unchanged = sum(1 for i in range(len(before)) if before[i] == after[i])
    assert warm["delta"]["untouched_groups"] >= 1
    assert unchanged >= warm["delta"]["untouched_groups"]
    for i in range(len(before)):
        for old_cell, new_cell in zip(before[i], after[i]):
            if old_cell is STAR:
                assert new_cell is STAR

    cold_best = min(cold_seconds)
    warm_best = min(warm_seconds)
    speedup = cold_best / warm_best
    benchmark.extra_info.update(
        n=N_ROWS, delta_rows=DELTA_ROWS, k=K, rounds=ROUNDS,
        cold_seconds=cold_best, warm_seconds=warm_best, speedup=speedup,
        untouched_groups=warm["delta"]["untouched_groups"],
        groups=warm["delta"]["groups"], stars=warm["stars"],
    )
    report.line(
        f"E22 delta-solve (n={N_ROWS} +{DELTA_ROWS} rows, k={K}): "
        f"cold {fmt(cold_best, 3)}s, delta {fmt(warm_best, 3)}s "
        f"-> {fmt(speedup, 1)}x "
        f"({warm['delta']['untouched_groups']}/{warm['delta']['groups']} "
        f"groups untouched, {warm['stars']} stars)"
    )
    assert speedup >= 3.0

"""E20 — persistent worker pool vs per-batch process spawning.

A pool that spawns its workers for every batch pays one interpreter
spawn plus a full ``repro`` import per worker each time, which dwarfs
the actual solve time for small instances.  The service's
``--jobs 2`` core keeps one :class:`~repro.experiments.WorkerPool` that
spawns once and stays warm across batches.

This experiment runs the same sequence of batches twice: through the
service core at ``jobs=2``, with the cache bypassed so every request
really reaches the workers, and through
:func:`repro.pool.run_tasks` at ``jobs=2``, the throwaway pool the
experiment runners use, which spawns fresh workers for every call.  One
untimed warm-up batch runs in both modes (it warms the persistent pool;
it is a no-op for the throwaway pool, which spawns fresh either way),
so the timed phase is the steady state a long-running server lives in.
The gate, persistent >= 2x faster, is conservative: each avoided spawn
saves a full interpreter start plus a ``repro`` import per worker.

Run with ``REPRO_BENCH_QUICK=1`` for the CI-sized version.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.pool import run_tasks
from repro.service import AnonymizationService
from repro.service.server import _solve_task, _SolveTask
from repro.workloads import census_table, quasi_identifiers

from .conftest import fmt, quick_mode

#: timed batches per mode (the per-batch mode pays one pool spawn for
#: each of these; the persistent mode pays one in total, untimed)
BATCHES = 4 if quick_mode() else 6

#: distinct requests per batch — enough to occupy both workers
BATCH_SIZE = 2

#: rows per instance: small on purpose, so pool management (the thing
#: under test) dominates the solve time
N_ROWS = 24 if quick_mode() else 36


def _tables() -> list:
    return [
        quasi_identifiers(census_table(N_ROWS, seed=seed))
        for seed in range(BATCH_SIZE)
    ]


def _spawn_per_batch_phase() -> tuple[list, float]:
    """All batches through :func:`run_tasks`, a fresh pool per batch;
    seconds cover the timed batches only."""
    tasks = [
        _SolveTask(csv=table.to_csv(), header=True, k=3,
                   algorithm="center_cover", timeout=None, trace=False)
        for table in _tables()
    ]
    warm = run_tasks(_solve_task, tasks, 2)
    assert all("error" not in outcome for outcome in warm)
    outcomes = []
    started = time.perf_counter()
    for _ in range(BATCHES):
        outcomes.extend(run_tasks(_solve_task, tasks, 2))
    return outcomes, time.perf_counter() - started


def _persistent_phase() -> tuple[list, float]:
    """All batches through one service core; seconds cover the timed
    batches only (the warm-up batch is excluded in both modes)."""
    tables = _tables()
    service = AnonymizationService(jobs=2)

    async def one_batch():
        return await asyncio.gather(*(
            service.handle({
                "op": "anonymize", "csv": table.to_csv(), "k": 3,
                "use_cache": False,
            })
            for table in tables
        ))

    async def scenario():
        try:
            warm = await one_batch()
            assert all(r["ok"] for r in warm)
            responses = []
            started = time.perf_counter()
            for _ in range(BATCHES):
                responses.extend(await one_batch())
            elapsed = time.perf_counter() - started
            return responses, elapsed
        finally:
            await service.stop()

    return asyncio.run(scenario())


def test_e20_persistent_pool_beats_per_batch_spawn(benchmark, report):
    """A warm pool must serve batches >= 2x faster than spawn-per-batch."""
    per_batch, per_batch_seconds = _spawn_per_batch_phase()
    persistent, persistent_seconds = benchmark.pedantic(
        _persistent_phase, rounds=1, iterations=1
    )
    assert all("error" not in outcome for outcome in per_batch)
    assert all(r["ok"] for r in persistent)
    # same instances, same solver: identical releases either way
    assert [r["csv"] for r in persistent] == [r["csv"] for r in per_batch]
    speedup = per_batch_seconds / persistent_seconds
    benchmark.extra_info.update(
        batches=BATCHES, batch_size=BATCH_SIZE, n=N_ROWS,
        per_batch_seconds=per_batch_seconds,
        persistent_seconds=persistent_seconds, speedup=speedup,
        cores=os.cpu_count(),
    )
    report.line(
        f"E20 pool reuse ({BATCHES} batches of {BATCH_SIZE}, n={N_ROWS}, "
        f"jobs=2): spawn-per-batch {fmt(per_batch_seconds, 2)}s, "
        f"persistent {fmt(persistent_seconds, 2)}s "
        f"-> {fmt(speedup, 2)}x on {os.cpu_count()} cores"
    )
    assert speedup >= 2.0

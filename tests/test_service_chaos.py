"""Chaos and regression tests for the hardened service (PR 5).

Covers the four bugs the hardening pass fixed — coalesced followers
ignoring their own budget, leader traces recorded once per follower,
batch dedup imposing the first arrival's budget on key-sharers, torn
disk-cache entries crashing lookups — plus the new machinery: the
persistent :class:`~repro.experiments.WorkerPool` (reuse, recycling,
crash recovery), protocol-v2 request correlation, the retrying
:class:`~repro.service.ServiceClient`, and fault injection.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time

import pytest

from repro.artifacts import instance_key
from repro.core.table import Table
from repro.experiments import WorkerCrashError, WorkerPool
from repro.instrument import Backoff, TimeBudget
from repro.service import (
    AnonymizationService,
    ServiceClient,
    ServiceServer,
)
from repro.service.server import _Job, _SolveTask, _solve_task
from repro.workloads import census_table, quasi_identifiers


def small_table() -> Table:
    return quasi_identifiers(census_table(24, seed=0))


def run(coro):
    return asyncio.run(coro)


def _task(table: Table, k: int = 3, **overrides) -> _SolveTask:
    options = dict(
        csv=table.to_csv(), header=True, k=k, algorithm="center_cover",
        backend="python", timeout=None, trace=False,
    )
    options.update(overrides)
    return _SolveTask(**options)


# ----------------------------------------------------------------------
# Satellite 1: coalesced followers honour their own budget
# ----------------------------------------------------------------------


class TestFollowerBudget:
    def test_follower_budget_expires_while_waiting_on_leader(self):
        """A follower coalesced behind a slow (here: never-finishing)
        leader must come back ``budget-exceeded`` within its own
        allowance, not inherit the leader's."""
        table = small_table()
        service = AnonymizationService()
        request = {
            "op": "anonymize", "csv": table.to_csv(), "k": 3,
            "timeout": 0.05,
        }

        async def scenario():
            # key the way the server will: from the parsed wire CSV
            # (the workload table holds ints that become strings there)
            wire = Table.from_csv(table.to_csv(), header=True)
            key = instance_key(wire, 3, "center_cover", service.backend)
            # a leader that never resolves — the pre-fix follower would
            # wait on it forever despite its 50 ms budget
            service._inflight[key] = asyncio.get_running_loop().create_future()
            started = time.monotonic()
            response = await service.handle(request)
            waited = time.monotonic() - started
            await service.stop()
            return response, waited

        response, waited = run(scenario())
        assert response["ok"] is False
        assert response["code"] == "budget-exceeded"
        assert waited < 5.0  # promptly, not after the leader (never)
        assert service.coalesced == 1

    def test_coalescing_still_shares_one_solve(self):
        """The budget wrapper must not swallow the normal coalescing
        path: identical concurrent requests still share one solve."""
        table = small_table()
        service = AnonymizationService()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3}

        async def scenario():
            try:
                return await asyncio.gather(
                    service.handle(dict(request)),
                    service.handle(dict(request)),
                    service.handle(dict(request)),
                )
            finally:
                await service.stop()

        responses = run(scenario())
        assert all(r["ok"] for r in responses)
        caches = sorted(r["cache"] for r in responses)
        assert caches == ["coalesced", "coalesced", "miss"]


# ----------------------------------------------------------------------
# Satellite 1b: one solve, one recorded trace
# ----------------------------------------------------------------------


class TestTraceDeduplication:
    def test_coalesced_followers_do_not_reappend_leader_trace(self):
        table = small_table()
        service = AnonymizationService()
        request = {
            "op": "anonymize", "csv": table.to_csv(), "k": 3, "trace": True,
        }

        async def scenario():
            try:
                return await asyncio.gather(
                    *(service.handle(dict(request)) for _ in range(3))
                )
            finally:
                await service.stop()

        responses = run(scenario())
        assert all(r["ok"] for r in responses)
        # every caller still *sees* the trace on its response…
        assert all(r.get("trace") for r in responses)
        # …but the server records the single underlying solve once
        assert len(service.traces) == 1


# ----------------------------------------------------------------------
# Satellite 2: batch dedup solves under the loosest budget
# ----------------------------------------------------------------------


class TestLoosestBudgetMerge:
    def _job(self, table, timeout, *, trace=False, fault=None, k=3):
        return _Job(
            key=instance_key(table, k, "center_cover", "python"),
            task=_task(table, k, timeout=timeout, trace=trace, fault=fault),
            budget=TimeBudget(timeout).start(),
            future=None,  # the merge never touches futures
        )

    def test_unlimited_sharer_lifts_the_group_budget(self):
        table = small_table()
        ready = [
            self._job(table, 0.2),
            self._job(table, None),
            self._job(table, 5.0),
        ]
        assert AnonymizationService._merge_jobs(ready).timeout is None

    def test_all_limited_group_takes_the_largest_remaining(self):
        table = small_table()
        ready = [self._job(table, 0.2), self._job(table, 30.0)]
        task = AnonymizationService._merge_jobs(ready)
        # pre-fix: setdefault kept the FIRST arrival's 0.2 s budget
        assert task.timeout is not None
        assert task.timeout > 10.0

    def test_trace_and_fault_merge_as_any_sharer_asked(self):
        table = small_table()
        ready = [
            self._job(table, None),
            self._job(table, None, trace=True),
            self._job(table, None, fault="kill-worker"),
        ]
        task = AnonymizationService._merge_jobs(ready)
        assert task.trace is True
        assert task.fault == "kill-worker"

    def test_distinct_keys_stay_distinct(self):
        """Queued jobs of two keys are two solves; the two sharers of
        one key are one, under the looser budget."""
        a, b = small_table(), quasi_identifiers(census_table(24, seed=1))
        submitted: list[_SolveTask] = []

        class RecordingSolver:
            on_idle = None

            def ready(self):
                return True

            def submit(self, fn, task, done):
                submitted.append(task)

            def stats(self):
                return {}

        async def scenario():
            service = AnonymizationService()
            service._pool = RecordingSolver()
            for job in (self._job(a, 1.0), self._job(b, None),
                        self._job(a, None)):
                job.future = asyncio.get_running_loop().create_future()
                service._pending.append(job)
            service._pump()
            return service.stats()["batches"]

        batches = run(scenario())
        assert [task.csv for task in submitted] == [a.to_csv(), b.to_csv()]
        assert submitted[0].timeout is None
        assert (batches["count"], batches["max_size"]) == (2, 2)


# ----------------------------------------------------------------------
# Satellite 3: torn cache files are a miss, not a crash
# ----------------------------------------------------------------------


class TestCorruptCacheSurvival:
    def test_service_resolves_after_disk_entry_is_torn(self, tmp_path):
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        service = AnonymizationService(cache_dir=str(tmp_path))
        (first,) = run(_served_once(service, request))
        assert first["ok"] and first["cache"] == "miss"
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        # tear the entry the way a crash mid-write used to
        entries[0].write_text(first["csv"][: len(first["csv"]) // 2])
        service.cache.clear()  # force the disk tier
        service2 = AnonymizationService(cache=service.cache)
        (second,) = run(_served_once(service2, dict(request)))
        assert second["ok"]
        assert second["cache"] == "miss"  # quarantined, re-solved
        assert second["csv"] == first["csv"]
        assert service.cache.stats.corrupt == 1
        assert list(tmp_path.glob("*.corrupt"))


async def _served_once(service: AnonymizationService, *requests):
    try:
        return [await service.handle(r) for r in requests]
    finally:
        await service.stop()


# ----------------------------------------------------------------------
# The persistent worker pool
# ----------------------------------------------------------------------


class TestWorkerPool:
    def test_pool_reused_across_batches(self):
        table = small_table()
        with WorkerPool(1) as pool:
            first = pool.run(_solve_task, [_task(table)])
            executor = pool._executor
            second = pool.run(_solve_task, [_task(table)])
            assert pool._executor is executor  # same workers, no respawn
        assert first[0]["stars"] == second[0]["stars"]
        assert "error" not in first[0]
        assert pool.stats()["batches"] == 2
        assert pool.stats()["tasks"] == 2
        assert pool.stats()["rebuilds"] == 0

    def test_workers_recycled_after_max_tasks_per_child(self):
        table = small_table()
        with WorkerPool(1, max_tasks_per_child=2) as pool:
            pool.run(_solve_task, [_task(table)])
            executor = pool._executor
            pool.run(_solve_task, [_task(table)])
            assert pool._executor is executor  # 2 tasks: at the limit
            pool.run(_solve_task, [_task(table)])
            assert pool._executor is not executor  # recycled past it
            assert pool.recycled == 1
            assert "error" not in pool.run(_solve_task, [_task(table)])[0]

    def test_crash_raises_typed_error_then_pool_recovers(self):
        table = small_table()
        with WorkerPool(1) as pool:
            with pytest.raises(WorkerCrashError):
                pool.run(_solve_task, [_task(table, fault="kill-worker")])
            assert pool.alive is False
            outcome = pool.run(_solve_task, [_task(table)])  # respawns
            assert "error" not in outcome[0]
            assert pool.rebuilds == 1

    def test_multi_megabyte_payloads_cross_both_pipes(self):
        payloads = ["x" * 3_000_000, "y" * 10, "z" * 1_500_000]
        with WorkerPool(2) as pool:
            assert pool.run(str, payloads) == payloads

    def test_task_exception_reraises_and_pool_stays_usable(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.run(int, ["1", "not a number", "3"])
            assert pool.run(int, ["4", "5"]) == [4, 5]
            assert pool.rebuilds == 0

    def test_more_workers_than_cores_keep_every_result_in_order(self):
        tasks = [f"task {i} " * (i % 7 + 1) for i in range(300)]
        started = time.monotonic()
        with WorkerPool(4) as pool:
            results = pool.run(str.upper, tasks)
        assert time.monotonic() - started < 60
        assert results == [t.upper() for t in tasks]
        assert pool.tasks == len(tasks) and pool.rebuilds == 0

    @pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"),
                        reason="Linux scheduling policy")
    def test_a_worker_solves_at_idle_priority(self):
        with WorkerPool(1) as pool:
            assert pool.run(os.sched_getscheduler, [0]) != [os.SCHED_IDLE]
            assert "error" not in pool.run(_solve_task, [_task(small_table())])[0]
            assert pool.run(os.sched_getscheduler, [0]) == [os.SCHED_IDLE]
        assert os.sched_getscheduler(0) != os.SCHED_IDLE  # not the owner

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(0)
        with pytest.raises(ValueError, match="max_tasks_per_child"):
            WorkerPool(2, max_tasks_per_child=0)


class TestWorkerCrashMidBatch:
    def test_crash_fails_batch_with_internal_then_service_recovers(self):
        """A killed worker fails its own batch (code ``internal``) and
        the service keeps serving: the pool is rebuilt lazily."""
        table = small_table()
        service = AnonymizationService(
            jobs=2, fault_injection=True,
        )
        crash = {
            "op": "anonymize", "csv": table.to_csv(), "k": 3,
            "fault": "kill-worker",
        }
        ok = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        first, second = run(_served_once(service, crash, ok))
        assert first["ok"] is False
        assert first["code"] == "internal"
        assert second["ok"] is True
        assert service._pool is not None
        assert service._pool.rebuilds == 1
        assert service.stats()["pool"]["mode"] == "persistent"

    def test_service_recycles_each_worker_after_its_limit(self):
        service = AnonymizationService(jobs=2, max_tasks_per_child=1)
        requests = [
            {"op": "anonymize", "k": 3, "csv": quasi_identifiers(
                census_table(24, seed=seed)).to_csv()}
            for seed in range(3)
        ]
        responses = run(_served_once(service, *requests))
        assert all(r["ok"] and r["cache"] == "miss" for r in responses)
        pool = service.stats()["pool"]
        assert pool["tasks"] == 3 and pool["rebuilds"] == 0
        assert pool["recycled"] == 3  # each worker retired once idle

    def test_crash_fails_only_its_own_job(self):
        """Two misses solve at once on two workers; killing one worker
        fails its job alone, and the other job is answered."""
        service = AnonymizationService(jobs=2, fault_injection=True)
        crash = {
            "op": "anonymize", "csv": small_table().to_csv(), "k": 3,
            "fault": "kill-worker",
        }
        other = {"op": "anonymize", "k": 3, "csv": quasi_identifiers(
            census_table(24, seed=1)).to_csv()}

        async def scenario():
            try:
                answers = await asyncio.gather(
                    service.handle(crash), service.handle(other)
                )
                # the lost worker's slot is refilled with no miss queued
                slots = service._pool._workers
                return answers, all(w is not None for w in slots)
            finally:
                await service.stop()

        (crashed, answered), refilled = run(scenario())
        assert refilled
        assert crashed["ok"] is False and crashed["code"] == "internal"
        assert answered["ok"] is True and answered["cache"] == "miss"
        assert service.stats()["pool"]["rebuilds"] == 1


# ----------------------------------------------------------------------
# Fault injection plumbing
# ----------------------------------------------------------------------


class TestFaultInjection:
    def test_fault_field_rejected_when_injection_off(self):
        table = small_table()
        service = AnonymizationService()  # faults off by default
        (response,) = run(_served_once(service, {
            "op": "anonymize", "csv": table.to_csv(), "k": 3,
            "fault": "kill-worker",
        }))
        assert response["ok"] is False
        assert response["code"] == "bad-request"

    def test_unknown_fault_rejected_even_when_enabled(self):
        table = small_table()
        service = AnonymizationService(fault_injection=True)
        (response,) = run(_served_once(service, {
            "op": "anonymize", "csv": table.to_csv(), "k": 3,
            "fault": "set-fire",
        }))
        assert response["ok"] is False
        assert response["code"] == "bad-request"

    def test_env_variable_enables_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_FAULTS", "1")
        assert AnonymizationService().fault_injection is True
        monkeypatch.delenv("REPRO_SERVICE_FAULTS")
        assert AnonymizationService().fault_injection is False

    def test_connection_fault_parsing(self):
        service = AnonymizationService(fault_injection=True)
        assert service.connection_fault(
            {"fault": "delay:0.5"}) == ("delay", 0.5)
        assert service.connection_fault(
            {"fault": "drop-connection"}) == ("drop-connection", None)
        # worker-level and absent faults are not connection faults
        assert service.connection_fault({"fault": "kill-worker"}) is None
        assert service.connection_fault({"op": "ping"}) is None
        off = AnonymizationService()
        assert off.connection_fault({"fault": "delay:0.5"}) is None

    def test_inline_kill_worker_fails_as_internal(self):
        """With jobs=1 there is no worker process to kill; the fault
        degrades to a crash-shaped internal error instead of taking the
        whole server down with ``os._exit``."""
        table = small_table()
        service = AnonymizationService(fault_injection=True)
        (response,) = run(_served_once(service, {
            "op": "anonymize", "csv": table.to_csv(), "k": 3,
            "fault": "kill-worker",
        }))
        assert response["ok"] is False
        assert response["code"] == "internal"


# ----------------------------------------------------------------------
# Protocol v2 request correlation
# ----------------------------------------------------------------------


class TestRequestCorrelation:
    def test_id_echoed_on_success_and_error(self):
        table = small_table()
        service = AnonymizationService()
        ok, bad, ping = run(_served_once(
            service,
            {"op": "anonymize", "csv": table.to_csv(), "k": 3, "id": 17},
            {"op": "anonymize", "csv": "", "k": 3, "id": "abc"},
            {"op": "ping", "id": [1, 2]},
        ))
        assert ok["ok"] and ok["id"] == 17
        assert bad["ok"] is False and bad["id"] == "abc"
        assert ping["ok"] and ping["id"] == [1, 2]

    def test_v1_requests_get_no_id_field(self):
        service = AnonymizationService()
        (response,) = run(_served_once(service, {"op": "ping"}))
        assert "id" not in response


# ----------------------------------------------------------------------
# The retrying client (over a real TCP server)
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestClientResilience:
    def test_client_reconnects_after_server_restart(self):
        """retries >= 1: a bounced server is invisible to the caller."""
        port = _free_port()
        backoff = Backoff(base=0.01, maximum=0.05)
        first = ServiceServer(AnonymizationService(), port=port)
        first.start()
        client = ServiceClient("127.0.0.1", port, retries=2,
                               backoff=backoff)
        try:
            assert client.ping()["ok"]
            first.stop()
            second = ServiceServer(AnonymizationService(), port=port)
            second.start()
            try:
                assert client.ping()["ok"]  # transparently reconnected
                assert client.counters["retries"] >= 1
                assert client.counters["reconnects"] >= 2
            finally:
                second.stop()
        finally:
            client.close()

    def test_dead_socket_closed_so_next_call_reconnects(self):
        """retries=0 (satellite 4): the failed call raises, but the
        client must shed the dead socket so the NEXT call succeeds —
        pre-fix it kept failing on the same half-dead connection."""
        port = _free_port()
        first = ServiceServer(AnonymizationService(), port=port)
        first.start()
        client = ServiceClient("127.0.0.1", port, retries=0)
        try:
            assert client.ping()["ok"]
            first.stop()
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
            assert client._sock is None  # dead socket was shed
            second = ServiceServer(AnonymizationService(), port=port)
            second.start()
            try:
                assert client.ping()["ok"]
            finally:
                second.stop()
        finally:
            client.close()

    def test_stale_response_line_discarded_by_id(self):
        """A reply left over from an earlier request must not be paired
        with the current one."""
        with ServiceServer(AnonymizationService()) as server:
            with ServiceClient(*server.address) as client:
                assert client.ping()["ok"]  # connect
                # simulate a timed-out request the client never read:
                # its answer is sitting in the socket when we next call
                stale = {"op": "ping", "id": "stale-earlier-request"}
                client._sock.sendall(
                    json.dumps(stale).encode("utf-8") + b"\n"
                )
                time.sleep(0.2)  # let the server answer it
                response = client.ping()
                assert response["ok"]
                assert response["id"] != "stale-earlier-request"
                assert client.counters["stale_lines_discarded"] == 1

    def test_drop_connection_fault_raises_and_retry_is_bounded(self):
        """drop-connection: the server hangs up without answering; a
        non-retrying client surfaces ConnectionError."""
        service = AnonymizationService(fault_injection=True)
        with ServiceServer(service) as server:
            client = ServiceClient(*server.address, retries=0)
            try:
                with pytest.raises((ConnectionError, OSError)):
                    client.anonymize(small_table(), 3,
                                     fault="drop-connection")
            finally:
                client.close()
            # the server itself is fine afterwards
            with ServiceClient(*server.address) as fresh:
                assert fresh.ping()["ok"]

    def test_delay_fault_delays_but_answers(self):
        service = AnonymizationService(fault_injection=True)
        with ServiceServer(service) as server:
            with ServiceClient(*server.address) as client:
                started = time.monotonic()
                response = client.anonymize(small_table(), 3,
                                            fault="delay:0.3")
                elapsed = time.monotonic() - started
        assert response["ok"]
        assert elapsed >= 0.3

    def test_shutdown_is_never_retried(self):
        client = ServiceClient("127.0.0.1", _free_port(), retries=5,
                               timeout=2.0)
        started = time.monotonic()
        with pytest.raises(OSError):
            client.shutdown()  # nothing listening: fail fast, no backoff
        assert time.monotonic() - started < 1.5
        assert client.counters["retries"] == 0

    def test_retries_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient(retries=-1)

"""The anonymization service: core, wire protocol, client, CLI verbs."""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.core.anonymity import is_k_anonymous
from repro.core.table import Table
from repro.io import read_csv, write_csv
from repro.service import (
    AnonymizationService,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.workloads import census_table, quasi_identifiers


def small_table() -> Table:
    return quasi_identifiers(census_table(24, seed=0))


def run(coro):
    return asyncio.run(coro)


async def _served(service: AnonymizationService, *requests):
    try:
        return [await service.handle(r) for r in requests]
    finally:
        await service.stop()


# ----------------------------------------------------------------------
# The transport-free core
# ----------------------------------------------------------------------


class TestServiceCore:
    def test_anonymize_roundtrip_is_valid(self):
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        (response,) = run(_served(AnonymizationService(), request))
        assert response["ok"]
        assert response["cache"] == "miss"
        assert response["algorithm"] == "center_cover"
        released = Table.from_csv(response["csv"])
        assert is_k_anonymous(released, 3)
        assert response["stars"] > 0
        assert response["solve_seconds"] > 0

    def test_second_identical_request_hits_cache(self):
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        first, second = run(
            _served(AnonymizationService(), request, dict(request))
        )
        assert (first["cache"], second["cache"]) == ("miss", "hit")
        assert first["csv"] == second["csv"]
        assert first["stars"] == second["stars"]

    def test_use_cache_false_bypasses_both_directions(self):
        table = small_table()
        cached = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        bypass = dict(cached, use_cache=False)
        service = AnonymizationService()
        first, second, third = run(
            _served(service, cached, bypass, dict(cached))
        )
        assert first["cache"] == "miss"
        assert second["cache"] == "bypass"
        assert third["cache"] == "hit"

    def test_solved_instances_counts_distinct_keys_only(self):
        """The fleet-audit counter: hits, bypass replays, and repeats
        of one instance never inflate ``solved_instances`` — summing it
        over shards equals the number of unique instances solved."""
        table = small_table()
        cached = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        other = dict(cached, k=2)
        service = AnonymizationService()
        responses = run(_served(
            service, cached, dict(cached),
            dict(cached, use_cache=False), other,
        ))
        assert [r["cache"] for r in responses] == [
            "miss", "hit", "bypass", "miss",
        ]
        assert service.stats()["solved_instances"] == 2

    def test_aliases_resolve_to_canonical_cache_entries(self):
        table = small_table()
        service = AnonymizationService()
        by_alias = {"op": "anonymize", "csv": table.to_csv(), "k": 3,
                    "algorithm": "center"}
        by_name = dict(by_alias, algorithm="center_cover")
        first, second = run(_served(service, by_alias, by_name))
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"  # alias and name share the key
        assert first["algorithm"] == "center_cover"

    def test_concurrent_identical_requests_coalesce(self):
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 4}

        async def scenario():
            service = AnonymizationService()
            try:
                return await asyncio.gather(
                    service.handle(dict(request)),
                    service.handle(dict(request)),
                    service.handle(dict(request)),
                ), service
            finally:
                await service.stop()

        responses, service = run(scenario())
        kinds = sorted(r["cache"] for r in responses)
        assert kinds == ["coalesced", "coalesced", "miss"]
        assert len({r["csv"] for r in responses}) == 1
        assert service.coalesced == 2
        # coalesced requests never reached the solver
        batches = service.stats()["batches"]
        assert (batches["count"], batches["max_size"]) == (1, 1)

    def test_concurrent_distinct_requests_are_one_dispatch_each(self):
        """Distinct keys never share a solve: each is its own dispatch,
        also when all of them queue at once."""
        async def scenario():
            service = AnonymizationService()
            tables = [
                quasi_identifiers(census_table(16, seed=s))
                for s in range(4)
            ]
            try:
                responses = await asyncio.gather(*(
                    service.handle({
                        "op": "anonymize", "csv": t.to_csv(), "k": 2,
                    })
                    for t in tables
                ))
            finally:
                await service.stop()
            return responses, service.stats()["batches"]

        responses, batches = run(scenario())
        assert all(r["ok"] for r in responses)
        assert (batches["count"], batches["max_size"]) == (4, 1)

    def test_stats_counts_everything(self):
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3}
        service = AnonymizationService()
        _, _, stats = run(
            _served(service, request, dict(request), {"op": "stats"})
        )
        assert stats["ok"]
        assert stats["requests"] == {"anonymize": 2, "stats": 1}
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["batches"]["count"] == 1

    def test_traces_surface_in_stats(self):
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3,
                   "trace": True}
        service = AnonymizationService()
        solved, stats = run(_served(service, request, {"op": "stats"}))
        assert solved["trace"]["algorithm"] == "center_cover"
        assert stats["traces"]["runs"] == 1
        assert stats["traces"]["total_seconds"] > 0
        assert "phases" in stats["traces"]


class TestDispatchRule:
    """The event loop hands each miss to an idle solver as soon as one
    is free: a pool worker with ``jobs > 1``, the in-process solve slot
    with ``jobs=1``."""

    @staticmethod
    def _requests(count: int) -> list[dict]:
        return [
            {"op": "anonymize", "k": 2,
             "csv": quasi_identifiers(census_table(16, seed=s)).to_csv()}
            for s in range(count)
        ]

    @staticmethod
    def _slow(seed: int) -> dict:
        """A miss that keeps a worker busy for about half a second."""
        return {"op": "anonymize", "k": 3, "algorithm": "greedy_cover",
                "csv": quasi_identifiers(census_table(40, seed=seed)).to_csv()}

    @staticmethod
    async def _booted(service: AnonymizationService) -> None:
        """Serve one miss, then wait until every worker has booted."""
        (warm,) = TestDispatchRule._requests(1)
        assert (await service.handle(warm))["ok"]
        assert service._pool is not None
        while not all(w is not None and w.idle
                      for w in service._pool._workers):
            await asyncio.sleep(0.01)

    def test_lone_miss_on_one_worker_does_not_wait(self):
        (request,) = self._requests(1)

        async def scenario():
            service = AnonymizationService(jobs=1)
            started = time.monotonic()
            try:
                response = await service.handle(request)
            finally:
                await service.stop()
            return response, time.monotonic() - started

        response, elapsed = run(scenario())
        assert response["ok"] and response["cache"] == "miss"
        assert elapsed < 1.0

    def test_lone_miss_is_written_to_a_worker_at_once(self):
        _, lone = self._requests(2)

        async def scenario():
            service = AnonymizationService(jobs=2)
            try:
                await self._booted(service)
                answer = asyncio.ensure_future(service.handle(lone))
                await asyncio.sleep(0)  # the request's first step only
                written = service.stats()["pool"]["tasks"]
                return written, await answer
            finally:
                await service.stop()

        written, response = run(scenario())
        assert written == 2  # the warm-up's task and this one
        assert response["ok"] and response["cache"] == "miss"

    def test_distinct_misses_solve_at_the_same_time(self):
        """A miss that arrives while another solves takes the other
        worker, and is answered before the long solve ends."""
        slow = self._slow(1)
        fast = self._requests(3)[2]

        async def answered_at(service, request):
            response = await service.handle(request)
            return response, time.monotonic()

        async def scenario():
            service = AnonymizationService(jobs=2)
            try:
                await self._booted(service)
                long_solve = asyncio.ensure_future(
                    answered_at(service, slow)
                )
                await asyncio.sleep(0.05)
                fast_answer = await answered_at(service, fast)
                return fast_answer, await long_solve, service.stats()
            finally:
                await service.stop()

        (fast_response, fast_at), (slow_response, slow_at), stats = run(
            scenario()
        )
        assert fast_response["ok"] and slow_response["ok"]
        assert fast_at < slow_at
        assert stats["batches"]["count"] == 3
        assert stats["batches"]["max_size"] == 1

    def test_queued_key_sharers_solve_once_when_a_worker_frees(self):
        """Bypassing requests for one instance that queue while every
        worker is busy go to the next free worker as one solve."""
        shared = {"op": "anonymize", "csv": small_table().to_csv(), "k": 3,
                  "use_cache": False}

        async def scenario():
            service = AnonymizationService(jobs=2)
            try:
                await self._booted(service)
                busy = [asyncio.ensure_future(service.handle(self._slow(s)))
                        for s in (1, 2)]
                await asyncio.sleep(0)
                assert service.stats()["pool"]["tasks"] == 3
                sharers = await asyncio.gather(
                    *(service.handle(dict(shared)) for _ in range(3))
                )
                return sharers, await asyncio.gather(*busy), service.stats()
            finally:
                await service.stop()

        sharers, busy, stats = run(scenario())
        assert all(r["ok"] for r in sharers + busy)
        assert [r["cache"] for r in sharers] == ["bypass"] * 3
        assert len({r["csv"] for r in sharers}) == 1
        # the warm-up, the two slow solves, and one for the three sharers
        assert stats["pool"]["tasks"] == 4
        assert stats["batches"]["max_size"] == 3

    def test_ping_is_answered_while_workers_and_pipes_are_busy(self):
        """``ping`` stays under 100 ms while both workers run long
        solves and a multi-megabyte request waits, is written to a
        worker, and comes back."""
        service = AnonymizationService(jobs=2)
        wide = [[f"{'x' * 1000}{(row * 7 + col) % 5}" for col in range(10)]
                for row in range(200)]
        large = {"op": "anonymize", "k": 2,
                 "csv": Table(wide).to_csv()}
        assert len(large["csv"]) > 2_000_000
        responses: dict[str, dict] = {}

        def send(name: str, request: dict) -> None:
            with ServiceClient(*server.address, timeout=120) as client:
                responses[name] = client.request(request)

        def started(name: str, request: dict) -> threading.Thread:
            thread = threading.Thread(target=send, args=(name, request))
            thread.start()
            return thread

        def wait_for(condition) -> None:
            deadline = time.monotonic() + 60
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.005)

        with ServiceServer(service) as server:
            with ServiceClient(*server.address, timeout=120) as client:
                assert client.request(self._requests(1)[0])["ok"]
            pool = service._pool
            assert pool is not None
            wait_for(lambda: all(w is not None and w.idle
                                 for w in pool._workers))
            threads = [started("slow1", self._slow(1)),
                       started("slow2", self._slow(2))]
            wait_for(lambda: pool.tasks == 3)
            threads.append(started("large", large))
            wait_for(lambda: len(service._pending) == 1)
            pings = []
            with ServiceClient(*server.address, timeout=10) as pinger:
                while any(thread.is_alive() for thread in threads):
                    began = time.perf_counter()
                    assert pinger.ping()["ok"]
                    pings.append(time.perf_counter() - began)
                    time.sleep(0.005)
            for thread in threads:
                thread.join()
        assert all(r["ok"] for r in responses.values()), responses
        assert responses["large"]["csv"].count("x" * 1000) > 1000
        assert len(pings) >= 10
        assert max(pings) < 0.1, sorted(pings)[-5:]

    def test_fast_miss_is_answered_before_the_slow_one_behind_it_ends(
        self, monkeypatch
    ):
        from repro.service import server as server_module

        fast, slow = self._requests(2)
        slow["k"] = 3  # marks the slow solve
        solve = server_module._solve_task
        slow_finished: list[float] = []

        def solve_slowly(task):
            outcome = solve(task)
            if task.k == 3:
                time.sleep(0.5)
                slow_finished.append(time.monotonic())
            return outcome

        monkeypatch.setattr(server_module, "_solve_task", solve_slowly)
        service = AnonymizationService(jobs=1)

        async def answered_at(request):
            response = await service.handle(request)
            return response, time.monotonic()

        async def scenario():
            try:
                # the fast miss takes the solve slot, the slow one
                # queues behind it and is handed over when it frees
                return await asyncio.gather(
                    answered_at(fast), answered_at(slow)
                )
            finally:
                await service.stop()

        (fast_response, fast_at), (slow_response, _) = run(scenario())
        assert fast_response["ok"] and slow_response["ok"]
        batches = service.stats()["batches"]
        assert (batches["count"], batches["max_size"]) == (2, 1)
        assert fast_at < slow_finished[0]

    def test_stop_fails_queued_and_running_inline_jobs(self, monkeypatch):
        """``stop()`` on ``jobs=1`` answers the job on the solve slot and
        the queued one ``internal`` at once; the running solve's late
        result is dropped and the queued one never starts."""
        from repro.service import server as server_module

        solve = server_module._solve_task
        started: list[int] = []

        def solve_slowly(task):
            started.append(task.k)
            time.sleep(0.5)
            return solve(task)

        monkeypatch.setattr(server_module, "_solve_task", solve_slowly)
        service = AnonymizationService(jobs=1)

        async def scenario():
            answers = asyncio.gather(
                *(service.handle(request) for request in self._requests(2))
            )
            await asyncio.sleep(0.1)
            began = time.monotonic()
            await service.stop()
            responses = await answers
            return responses, time.monotonic() - began

        responses, waited = run(scenario())
        assert [r.get("code") for r in responses] == ["internal"] * 2
        assert waited < 0.3  # not after the running solve ends
        assert started == [2]  # the queued job never started
        assert service.cache.as_dict()["entries"] == 0

    def test_loop_shutdown_does_not_wait_for_a_dropped_inline_solve(
        self, monkeypatch
    ):
        """A ``jobs=1`` solve that ``stop()`` dropped keeps running on a
        thread that neither the loop's shutdown nor interpreter exit
        waits for, so ``asyncio.run`` returns long before it ends."""
        from repro.service import server as server_module

        release = threading.Event()

        def solve_until_released(task):
            release.wait(5.0)
            return {"error": "released", "code": "internal"}

        monkeypatch.setattr(server_module, "_solve_task", solve_until_released)
        service = AnonymizationService(jobs=1)

        async def scenario():
            answer = asyncio.ensure_future(
                service.handle(self._requests(1)[0])
            )
            await asyncio.sleep(0.1)
            await service.stop()
            return await answer

        began = time.monotonic()
        try:
            response = run(scenario())
            elapsed = time.monotonic() - began
        finally:
            release.set()
        assert response["code"] == "internal"
        assert elapsed < 2.0  # the solve would hold it for 5 s


class TestTaskShape:
    """A task for a worker process carries the request's text; the
    inline solve takes the table admission parsed."""

    @staticmethod
    def _admitted_task(jobs: int, seed: int):
        # a table no other test sends, so admission parses it here
        request = {"op": "anonymize", "k": 3, "csv": quasi_identifiers(
            census_table(24, seed=seed)).to_csv()}

        async def admitted():
            return AnonymizationService(jobs=jobs)._admit(request).task

        return run(admitted())

    def test_a_pool_task_pickles_no_table(self):
        pickled: set[type] = set()

        class Spy(pickle.Pickler):
            def persistent_id(self, obj):
                pickled.add(type(obj))
                return None

        task = self._admitted_task(2, seed=9101)
        Spy(io.BytesIO()).dump(task)
        assert task.table is None and task.csv is not None
        assert str in pickled and Table not in pickled

    def test_the_inline_task_carries_the_parsed_table(self):
        task = self._admitted_task(1, seed=9102)
        assert isinstance(task.table, Table) and task.csv is None


class TestAdmissionControl:
    @pytest.mark.parametrize("request_patch,code", [
        ({"csv": ""}, "bad-request"),
        ({"csv": 42}, "bad-request"),
        ({"k": 0}, "bad-request"),
        ({"k": "three"}, "bad-request"),
        ({"k": True}, "bad-request"),
        ({"algorithm": "no-such-solver"}, "unknown-algorithm"),
        ({"timeout": "soon"}, "bad-request"),
        ({"timeout": -1}, "bad-request"),
    ])
    def test_bad_requests_rejected_without_solving(self, request_patch,
                                                   code):
        request = {"op": "anonymize", "csv": small_table().to_csv(),
                   "k": 3, **request_patch}
        service = AnonymizationService()
        (response,) = run(_served(service, request))
        assert not response["ok"]
        assert response["code"] == code
        # nothing was dispatched
        assert service.stats()["batches"]["count"] == 0

    def test_non_object_and_unknown_op(self):
        service = AnonymizationService()
        bad, unknown = run(_served(service, ["not", "an", "object"],
                                   {"op": "dance"}))
        assert not bad["ok"] and bad["code"] == "bad-request"
        assert not unknown["ok"] and unknown["code"] == "bad-request"

    def test_auto_on_a_large_table_is_served(self):
        """n=1100 used to overflow the exact solvers' cost models inside
        the planner and escape ``handle``."""
        rows = quasi_identifiers(census_table(1100, seed=2))
        request = {"op": "anonymize", "csv": rows.to_csv(), "k": 5,
                   "algorithm": "auto"}
        (response,) = run(_served(AnonymizationService(), request))
        assert response["ok"]
        assert response["algorithm"] == "center_cover"

    @pytest.mark.parametrize("csv", ["a,b\n*,1\n*,2\n", "a,b\n"])
    def test_auto_plans_an_all_star_column_or_no_rows(self, csv):
        """σ of an all-``*`` column or of a header-only table is 0; its
        computation used to raise inside admission and escape
        ``handle``."""
        service = AnonymizationService()
        (response,) = run(_served(
            service, {"op": "anonymize", "csv": csv, "k": 1,
                      "algorithm": "auto"}))
        assert isinstance(response, dict)
        stats = service.stats()
        assert stats["planned"] == 1
        assert stats["batches"]["count"] == 1

    @pytest.mark.parametrize("algorithm", [
        "auto", "branch_bound", "exact", "small_m", "fpt_suppression",
    ])
    def test_exact_solvers_serve_a_table_that_holds_stars(self, algorithm):
        """The exact solvers' self-checks compare the partition's ANON
        cost, not the release's stars, with the optimum: an input ``*``
        in an agreeing column is kept, so it is a star but no cost."""
        request = {"op": "anonymize", "csv": "a,b\n*,1\n*,2\n", "k": 1,
                   "algorithm": algorithm}
        (response,) = run(_served(AnonymizationService(), request))
        assert response["ok"], response
        assert response["csv"] == "a,b\n*,1\n*,2\n"
        assert response["stars"] == 2

    def test_auto_on_a_header_only_table_is_served(self):
        service = AnonymizationService()
        auto, explicit = run(_served(
            service,
            {"op": "anonymize", "csv": "a,b\n", "k": 1, "algorithm": "auto"},
            {"op": "anonymize", "csv": "a,b\n", "k": 1,
             "algorithm": "center_cover"},
        ))
        assert auto["ok"] and explicit["ok"]
        assert auto["csv"] == explicit["csv"] == "a,b\n"

    def test_timeout_above_server_cap_is_rejected(self):
        service = AnonymizationService(max_timeout=1.0)
        request = {"op": "anonymize", "csv": small_table().to_csv(),
                   "k": 3, "timeout": 5.0}
        (response,) = run(_served(service, request))
        assert not response["ok"]
        assert response["code"] == "bad-request"
        assert "cap" in response["error"]

    def test_zero_budget_rejected_at_dispatch_not_solved(self):
        # the budget is armed at admission, so a request that spends its
        # whole allowance queued is dropped by the dispatcher
        service = AnonymizationService()
        request = {"op": "anonymize", "csv": small_table().to_csv(),
                   "k": 3, "timeout": 0.0}
        (response,) = run(_served(service, request))
        assert not response["ok"]
        assert response["code"] == "budget-exceeded"
        assert "queued" in response["error"]

    def test_infeasible_instance_reports_cleanly(self):
        tiny = Table([(1, 2), (3, 4)], attributes=("x", "y"))
        request = {"op": "anonymize", "csv": tiny.to_csv(), "k": 5}
        (response,) = run(_served(AnonymizationService(), request))
        assert not response["ok"]
        assert response["code"] == "infeasible"

    def test_deadline_degraded_results_are_not_cached(self):
        # white-box: a deadline_hit outcome passed through _finish must
        # not enter the cache, so the next identical request re-solves
        service = AnonymizationService()
        table = small_table()
        request = {"op": "anonymize", "csv": table.to_csv(), "k": 3}

        async def scenario():
            job = service._admit(request)
            outcome = {
                "csv": table.to_csv(), "stars": 0,
                "algorithm": "center_cover", "k": 3,
                "backend": "numpy", "deadline_hit": True,
                "solve_seconds": 0.01, "trace": None,
            }
            response = service._finish(job, outcome, cache="miss")
            return response, job.key

        response, key = run(scenario())
        assert response["ok"] and response["deadline_hit"]
        assert service.cache.get(key) is None


# ----------------------------------------------------------------------
# TCP server + client
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def server():
    with ServiceServer(
        AnonymizationService(max_entries=64)
    ) as running:
        yield running


@pytest.mark.usefixtures("server")
class TestWireProtocol:
    def test_ping(self, server):
        with ServiceClient(*server.address) as client:
            response = client.ping()
        assert response["ok"] and response["protocol"] == 2

    def test_anonymize_then_hit_over_the_wire(self, server):
        table = quasi_identifiers(census_table(30, seed=7))
        with ServiceClient(*server.address) as client:
            first = client.anonymize(table, 3)
            second = client.anonymize(table, 3)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert is_k_anonymous(first["table"], 3)
        assert first["table"] == second["table"]

    def test_connection_is_reused_and_stats_visible(self, server):
        with ServiceClient(*server.address) as client:
            client.ping()
            stats = client.stats()
        assert stats["cache"]["max_entries"] == 64
        assert stats["requests"]["ping"] >= 1

    def test_service_error_raises_on_client(self, server):
        with ServiceClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.anonymize(small_table(), 3,
                                 algorithm="no-such-solver")
        assert excinfo.value.code == "unknown-algorithm"

    def test_bad_json_line_yields_error_not_disconnect(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            error = json.loads(handle.readline())
            assert not error["ok"] and error["code"] == "bad-request"
            # the connection survives for the next request
            handle.write(json.dumps({"op": "ping"}).encode() + b"\n")
            handle.flush()
            assert json.loads(handle.readline())["ok"]

    def test_handler_crash_is_answered_internal(self):
        """An exception escaping ``handle`` is answered with code
        ``internal``; the connection stays up."""

        class Crashing(AnonymizationService):
            async def handle(self, request):
                if request.get("op") == "crash":
                    raise RuntimeError("boom")
                return await super().handle(request)

        with ServiceServer(Crashing()) as crashing:
            with ServiceClient(*crashing.address) as client:
                response = client.request({"op": "crash"})
                assert not response["ok"]
                assert response["code"] == "internal"
                assert response["error"] == "RuntimeError: boom"
                assert client.ping()["ok"]

    def test_parallel_clients_share_the_cache(self, server):
        table = quasi_identifiers(census_table(26, seed=9))
        results: list[str] = []

        def one_request():
            with ServiceClient(*server.address) as client:
                results.append(client.anonymize(table, 2)["cache"])

        threads = [threading.Thread(target=one_request) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert sorted(results).count("miss") == 1  # one solve total


def test_shutdown_over_the_wire_stops_the_server():
    server = ServiceServer()
    host, port = server.start()
    ServiceClient(host, port).shutdown()
    server._thread.join(10)
    assert not server._thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()
    server._thread = None  # already joined; make stop() a no-op
    server.stop()


def test_disk_cache_survives_server_restart(tmp_path):
    table = quasi_identifiers(census_table(20, seed=3))
    first_service = AnonymizationService(cache_dir=tmp_path)
    with ServiceServer(first_service) as server:
        with ServiceClient(*server.address) as client:
            assert client.anonymize(table, 2)["cache"] == "miss"
    second_service = AnonymizationService(cache_dir=tmp_path)
    with ServiceServer(second_service) as server:
        with ServiceClient(*server.address) as client:
            assert client.anonymize(table, 2)["cache"] == "hit"
            assert client.stats()["cache"]["disk_hits"] == 1


# ----------------------------------------------------------------------
# CLI verbs: kanon serve / kanon submit
# ----------------------------------------------------------------------


@pytest.fixture
def input_csv(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(quasi_identifiers(census_table(20, seed=1)), path)
    return path


class TestSubmitCli:
    def test_submit_roundtrip_and_cache_line(self, server, input_csv,
                                             tmp_path, capsys):
        host, port = server.address
        out = tmp_path / "released.csv"
        base = ["submit", str(input_csv), "-k", "2",
                "--host", host, "--port", str(port)]
        assert main(base + ["-o", str(out)]) == 0
        assert "cache: miss" in capsys.readouterr().err
        assert is_k_anonymous(read_csv(out), 2)

        assert main(base) == 0
        captured = capsys.readouterr()
        assert "cache: hit" in captured.err
        assert captured.out == read_csv(out).to_csv()

    def test_submit_stats_and_ping(self, server, capsys):
        host, port = server.address
        flags = ["--host", host, "--port", str(port)]
        assert main(["submit", "--ping"] + flags) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["submit", "--stats"] + flags) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "batches:" in out

    def test_submit_unknown_algorithm_fails(self, server, input_csv,
                                            capsys):
        host, port = server.address
        code = main(["submit", str(input_csv), "-k", "2",
                     "--algorithm", "nope",
                     "--host", host, "--port", str(port)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_submit_without_input_or_action_errors(self, capsys):
        assert main(["submit"]) == 2
        assert "needs an input CSV" in capsys.readouterr().err

    def test_submit_against_dead_server_exits_2(self, input_csv, capsys):
        # grab a port that is definitely closed
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["submit", str(input_csv), "-k", "2",
                     "--port", str(port)])
        assert code == 2
        assert "kanon serve" in capsys.readouterr().err


def test_serve_cli_runs_until_shutdown(input_csv):
    """`kanon serve --port 0` + `kanon submit` against it, end to end."""
    import contextlib
    import re

    ready = threading.Event()
    codes: list[int] = []

    class _Log:
        """Collects stderr; redirect_stderr is process-global, so every
        stderr line (server banner and submit status) lands here."""

        def __init__(self):
            self.chunks: list[str] = []

        def write(self, text):
            self.chunks.append(text)
            match = re.search(r"listening on ([\d.]+):(\d+)", text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                ready.set()
            return len(text)

        def flush(self):
            pass

        @property
        def text(self) -> str:
            return "".join(self.chunks)

    log = _Log()

    def run_server():
        codes.append(main(["serve", "--port", "0", "--cache-size", "8"]))

    with contextlib.redirect_stderr(log):
        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(10)
        host, port = log.address
        flags = ["--host", host, "--port", str(port)]
        assert main(["submit", str(input_csv), "-k", "2"] + flags) == 0
        assert "cache: miss" in log.text
        assert main(["submit", str(input_csv), "-k", "2"] + flags) == 0
        assert "cache: hit" in log.text
        assert main(["submit", "--shutdown"] + flags) == 0
        thread.join(10)
    assert not thread.is_alive()
    assert codes == [0]
    assert "kanon service stopped" in log.text

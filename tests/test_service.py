"""The anonymization service: core, wire protocol, client, CLI verbs."""

from __future__ import annotations

import asyncio
import json
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
            service = AnonymizationService(batch_window=0.02)
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

    def test_concurrent_distinct_requests_form_one_batch(self):
        async def scenario():
            service = AnonymizationService(batch_window=0.1, max_batch=8)
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
        assert (batches["count"], batches["max_size"]) == (1, 4)

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
    """A batch waits out ``batch_window`` only while a worker would sit
    idle: it dispatches at once when it holds a job per worker."""

    @staticmethod
    def _requests(count: int) -> list[dict]:
        return [
            {"op": "anonymize", "k": 2,
             "csv": quasi_identifiers(census_table(16, seed=s)).to_csv()}
            for s in range(count)
        ]

    def test_lone_miss_on_one_worker_does_not_wait(self):
        (request,) = self._requests(1)

        async def scenario():
            service = AnonymizationService(jobs=1, batch_window=5.0)
            started = time.monotonic()
            try:
                response = await service.handle(request)
            finally:
                await service.stop()
            return response, time.monotonic() - started

        response, elapsed = run(scenario())
        assert response["ok"] and response["cache"] == "miss"
        assert elapsed < 1.0

    def test_full_batch_dispatches_before_the_window(self):
        async def scenario():
            service = AnonymizationService(jobs=2, batch_window=5.0)
            started = time.monotonic()
            try:
                responses = await asyncio.gather(
                    *(service.handle(r) for r in self._requests(2))
                )
            finally:
                await service.stop()
            return (responses, service.stats()["batches"],
                    time.monotonic() - started)

        responses, batches, elapsed = run(scenario())
        assert all(r["ok"] and r["cache"] == "miss" for r in responses)
        assert (batches["count"], batches["max_size"]) == (1, 2)
        assert elapsed < 5.0

    def test_window_still_fills_an_idle_worker(self):
        first, second = self._requests(2)
        service = AnonymizationService(jobs=2, batch_window=2.0)

        async def late(request):
            await asyncio.sleep(0.05)
            return await service.handle(request)

        async def scenario():
            try:
                return await asyncio.gather(
                    service.handle(first), late(second)
                )
            finally:
                await service.stop()

        responses = run(scenario())
        assert all(r["ok"] and r["cache"] == "miss" for r in responses)
        batches = service.stats()["batches"]
        assert (batches["count"], batches["max_size"]) == (1, 2)

    def test_fast_batchmate_is_answered_before_the_slow_one_ends(
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
                # the slow request is queued before the dispatcher runs,
                # so both share one inline batch, fast one first
                return await asyncio.gather(
                    answered_at(fast), answered_at(slow)
                )
            finally:
                await service.stop()

        (fast_response, fast_at), (slow_response, _) = run(scenario())
        assert fast_response["ok"] and slow_response["ok"]
        batches = service.stats()["batches"]
        assert (batches["count"], batches["max_size"]) == (1, 2)
        assert fast_at < slow_finished[0]


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
        service = AnonymizationService(batch_window=0.0)
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
                "backend": service.backend, "deadline_hit": True,
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
        AnonymizationService(max_entries=64, batch_window=0.002)
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

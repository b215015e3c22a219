"""The shard router: routing keys, failover, fan-out, CLI rendering.

The fleet tests run real ``ServiceServer`` shards behind a real
``RouterServer`` on loopback sockets — the same wire path as
``kanon route`` — with the background health sweep disabled
(``health_interval=0``) so membership changes only when a test causes
them; the sweep itself is tested separately with a fast interval.
"""

from __future__ import annotations

import asyncio
import gc
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.artifacts import instance_key, state_key
from repro.cli import main
from repro.core.table import Table
from repro.io import write_csv
from repro.planner import plan
from repro.service import (
    AnonymizationService,
    RouterServer,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ShardRouter,
    SolutionCache,
    merge_shard_stats,
)
from repro.service import router as router_module
from repro.service import wire
from repro.service.router import format_address, parse_address
from repro.workloads import census_table, quasi_identifiers


def tables(count: int, rows: int = 20) -> list[Table]:
    return [
        quasi_identifiers(census_table(rows, seed=seed))
        for seed in range(count)
    ]


def boundary_csv(seed: int) -> str:
    """A 14-row binary table at k=2: without a budget the planner picks
    an exact solver, under a 0.05 s cap it falls back to center_cover."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(14, 6)).tolist()
    return Table(rows).to_csv()


@pytest.fixture
def fleet():
    """Three live shards behind a live router; tears the fleet down."""
    shards = [ServiceServer(port=0) for _ in range(3)]
    addresses = [format_address(shard.start()) for shard in shards]
    router = ShardRouter(addresses, health_interval=0.0)
    front = RouterServer(router)
    front.start()
    try:
        yield shards, addresses, router, front
    finally:
        front.stop()  # shutdown fans out to every shard by design
        for shard in shards:
            shard.stop()


# ----------------------------------------------------------------------
# Transport-free: routing keys, address parsing, stats merging
# ----------------------------------------------------------------------


class TestRoutingKey:
    def setup_method(self):
        self.router = ShardRouter(["a:1", "b:2"], health_interval=0.0)
        csv = quasi_identifiers(census_table(16, seed=0)).to_csv()
        # the wire table: exactly what a shard parses at admission
        self.table = Table.from_csv(csv)
        self.request = {
            "op": "anonymize", "csv": csv, "k": 2,
            "algorithm": "center_cover",
        }

    def test_matches_the_shards_cache_key(self):
        key = self.router.routing_key(self.request)
        assert key == instance_key(self.table, 2, "center_cover", "numpy")

    def test_aliases_canonicalize_to_one_key(self):
        """``center`` and ``center_cover`` must not land on two
        shards — the key is computed from the canonical name."""
        alias = self.router.routing_key(
            {**self.request, "algorithm": "center"}
        )
        assert alias == self.router.routing_key(self.request)

    def test_auto_resolves_through_the_planner(self):
        """An ``auto`` request routes to the same shard as the explicit
        request it resolves to (they share that shard's cache entry)."""
        from repro.planner import plan

        resolved = plan(self.table, 2).algorithm
        assert self.router.routing_key(
            {**self.request, "algorithm": "auto"}
        ) == self.router.routing_key(
            {**self.request, "algorithm": resolved}
        )

    def test_incremental_routes_on_state_key(self):
        """Snapshot affinity: the solve lands where its state key
        hashes, so the first ``delta`` finds the snapshot."""
        key = self.router.routing_key(
            {**self.request, "algorithm": "incremental"}
        )
        assert key == state_key(self.table, 2, "incremental", "numpy")

    def test_delta_routes_on_the_request_state_key(self):
        key = "ab" * 16
        assert self.router.routing_key(
            {"op": "delta", "state_key": key, "csv": "x\n1\n"}
        ) == key

    @pytest.mark.parametrize("request_", [
        {"op": "anonymize", "csv": 7, "k": 2},
        {"op": "anonymize", "k": 2},
        {"op": "anonymize", "csv": "a,b\n1,2\n", "k": "two"},
        {"op": "anonymize", "csv": "a,b\n1,2\n", "k": 2,
         "algorithm": "nope"},
        {"op": "delta", "state_key": "not hex!", "csv": "x\n1\n"},
        {"op": "frobnicate"},
    ])
    def test_unkeyable_requests_return_none(self, request_):
        assert self.router.routing_key(request_) is None


def _shard_key(service: AnonymizationService, request: dict) -> str:
    """The key shard admission places *request* under."""

    async def admitted():
        return service._admit(request)

    job = asyncio.run(admitted())
    if request.get("op") == "delta":
        return request["state_key"]  # the snapshot it was found under
    return job.state_key if job.task.algorithm == "incremental" else job.key


class TestRoutingKeyParity:
    """Router and shard admission key every request identically —
    also on a shard whose ``max_timeout`` would change an ``auto``
    resolution if it were planned against the cap."""

    @pytest.mark.parametrize("max_timeout", [None, 0.05])
    def test_router_key_is_the_shard_key(self, max_timeout):
        csv = boundary_csv(0)
        table = Table.from_csv(csv)
        assert plan(table, 2).algorithm != plan(table, 2, budget=0.05).algorithm
        privacy_csv = quasi_identifiers(census_table(16, seed=1)).to_csv()
        cache = SolutionCache()
        service = AnonymizationService(cache=cache, max_timeout=max_timeout)
        router = ShardRouter(["a:1", "b:2"], health_interval=0.0)
        # a stored snapshot for the delta request to continue
        solved = asyncio.run(AnonymizationService(cache=cache).handle({
            "op": "anonymize", "csv": csv, "k": 2,
            "algorithm": "incremental",
        }))
        requests = [
            {"op": "anonymize", "csv": csv, "k": 2},
            {"op": "anonymize", "csv": csv, "k": 2, "algorithm": "center"},
            {"op": "anonymize", "csv": csv, "k": 2,
             "algorithm": "branch_bound"},
            {"op": "anonymize", "csv": csv, "k": 2, "algorithm": "auto"},
            {"op": "anonymize", "csv": csv, "k": 2, "algorithm": "auto",
             "timeout": 0.04},
            {"op": "anonymize", "csv": csv, "k": 2,
             "algorithm": "incremental"},
            {"op": "anonymize", "csv": privacy_csv, "k": 2,
             "privacy": {"l": 2}},
            {"op": "anonymize", "csv": privacy_csv, "k": 2,
             "privacy": {"epsilon": 1.0}},
            {"op": "delta", "state_key": solved["state_key"],
             "csv": "a0,a1,a2,a3,a4,a5\n1,1,0,0,1,0\n"},
        ]
        for request in requests:
            key = router.routing_key(request)
            assert key is not None, request
            assert key == _shard_key(service, request), request


class TestAddresses:
    def test_parse_and_format(self):
        assert parse_address("h:1") == ("h", 1)
        assert parse_address(("h", 1)) == ("h", 1)
        assert format_address(("h", 1)) == "h:1"

    @pytest.mark.parametrize("bad", ["nohost", ":7683", "h:seven"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_router_rejects_empty_and_duplicate_fleets(self):
        with pytest.raises(ValueError):
            ShardRouter([])
        with pytest.raises(ValueError):
            ShardRouter(["a:1", "a:1"])


class TestMergeShardStats:
    def test_counters_sum_and_hit_rate_recomputes(self):
        merged = merge_shard_stats({
            "a:1": {"jobs": 1, "uptime_seconds": 5.0,
                    "requests": {"anonymize": 4, "stats": 1},
                    "rejected": 1, "coalesced": 2, "planned": 1,
                    "solved_instances": 3,
                    "cache": {"hits": 2, "misses": 3, "entries": 3,
                              "max_entries": 256},
                    "batches": {"count": 2, "max_size": 2,
                                "mean_size": 1.5}},
            "b:2": {"jobs": 2, "uptime_seconds": 9.0,
                    "requests": {"anonymize": 2},
                    "rejected": 0, "coalesced": 0, "planned": 0,
                    "solved_instances": 2,
                    "cache": {"hits": 0, "misses": 2, "entries": 2,
                              "max_entries": 256},
                    "batches": {"count": 4, "max_size": 3,
                                "mean_size": 1.0}},
        })
        assert merged["jobs"] == 3
        assert merged["uptime_seconds"] == 9.0
        assert merged["requests"] == {"anonymize": 6, "stats": 1}
        assert merged["solved_instances"] == 5
        assert merged["cache"]["hits"] == 2
        assert merged["cache"]["misses"] == 5
        assert merged["cache"]["hit_rate"] == pytest.approx(2 / 7)
        assert merged["cache"]["entries"] == 5
        batches = merged["batches"]
        assert batches["count"] == 6 and batches["max_size"] == 3
        # size-weighted: (2*1.5 + 4*1.0) / 6
        assert batches["mean_size"] == pytest.approx(7 / 6)

    def test_empty_fleet_merges_to_zeroes(self):
        merged = merge_shard_stats({})
        assert merged["solved_instances"] == 0
        assert merged["cache"]["hit_rate"] == 0.0


# ----------------------------------------------------------------------
# The live fleet
# ----------------------------------------------------------------------


class TestFleet:
    def test_disjoint_ownership_no_duplicate_solves(self, fleet):
        _, addresses, router, front = fleet
        workload = tables(6)
        with ServiceClient(*front.address) as client:
            owners = {}
            for table in workload:
                response = client.anonymize(table, 2)
                assert response["cache"] == "miss"
                assert response["shard"] in addresses
                owners[table] = response["shard"]
            for table in workload:  # warm pass: same owner, cache hit
                response = client.anonymize(table, 2)
                assert response["cache"] == "hit"
                assert response["shard"] == owners[table]
            stats = client.stats()
        assert stats["solved_instances"] == len(workload)
        per_shard = [
            shard.get("solved_instances", 0)
            for shard in stats["shards"].values()
        ]
        assert sum(per_shard) == len(workload)  # nothing solved twice
        assert stats["cache"]["misses"] == len(workload)
        assert stats["cache"]["hits"] == len(workload)
        assert stats["router"]["shards_alive"] == 3

    def test_release_matches_direct_single_shard_answer(self, fleet):
        shards, _, _, front = fleet
        table = quasi_identifiers(census_table(24, seed=9))
        with ServiceClient(*front.address) as routed_client:
            routed = routed_client.anonymize(table, 3)
        with ServiceServer(port=0) as single:
            with ServiceClient(*single.address) as direct_client:
                direct = direct_client.anonymize(table, 3)
        assert routed["csv"] == direct["csv"]
        assert routed["stars"] == direct["stars"]

    def test_failover_reroutes_and_evicts(self, fleet):
        shards, addresses, router, front = fleet
        workload = tables(4)
        with ServiceClient(*front.address) as client:
            owners = {
                table: client.anonymize(table, 2)["shard"]
                for table in workload
            }
            victim = owners[workload[0]]
            for shard, address in zip(shards, addresses):
                if address == victim:
                    shard.stop()
            response = client.anonymize(workload[0], 2)
            assert response["rerouted"] is True
            assert response["shard"] != victim
            assert response["shard"] in addresses
            # the instance was re-solved on the new owner (the dead
            # shard's cache slice died with it) — still a valid release
            assert response["cache"] == "miss"
            stats = client.stats()
        assert stats["router"]["shards_alive"] == 2
        assert stats["router"]["counters"]["evicted"] >= 1
        assert stats["router"]["shards"][victim]["alive"] is False
        assert "error" in stats["shards"][victim]

    def test_health_sweep_evicts_and_rejoins(self):
        shard = ServiceServer(port=0)
        address = format_address(shard.start())
        router = ShardRouter([address], health_interval=0.05,
                             ping_timeout=0.5)
        front = RouterServer(router)
        front.start()
        try:
            with ServiceClient(*front.address, retries=0) as client:
                assert client.ping()["router"]["shards_alive"] == 1
                port = parse_address(address)[1]
                shard.stop()
                deadline = 50
                while router.shards[address].alive and deadline:
                    asyncio.run(asyncio.sleep(0.05))
                    deadline -= 1
                assert not router.shards[address].alive
                assert client.ping()["router"]["shards_alive"] == 0
                with pytest.raises(ServiceError) as excinfo:
                    client.anonymize(tables(1)[0], 2)
                assert excinfo.value.code == "unavailable"
                # the shard comes back on the SAME port: the sweep must
                # rejoin it without a router restart
                shard = ServiceServer(port=port)
                shard.start()
                deadline = 100
                while not router.shards[address].alive and deadline:
                    asyncio.run(asyncio.sleep(0.05))
                    deadline -= 1
                assert router.shards[address].alive
                assert router.counters["rejoined"] >= 1
                assert client.anonymize(tables(1)[0], 2)["ok"]
        finally:
            front.stop()
            shard.stop()

    def test_capped_shard_never_solves_auto_twice(self):
        """An ``auto`` request and its resolved explicit twin are one
        instance: a fleet whose owning shard has ``max_timeout=0.05``
        must solve it once, under the key the router routed on."""
        capped = AnonymizationService(max_timeout=0.05)
        shards = [ServiceServer(capped), ServiceServer(), ServiceServer()]
        addresses = [format_address(shard.start()) for shard in shards]
        router = ShardRouter(addresses, health_interval=0.0)
        front = RouterServer(router)
        front.start()
        try:
            # an instance on the tier boundary owned by the capped shard
            csv = next(
                csv for csv in map(boundary_csv, range(100))
                if router.ring.owners(router.routing_key(
                    {"op": "anonymize", "csv": csv, "k": 2,
                     "algorithm": "auto"}
                ))[0] == addresses[0]
            )
            resolved = plan(Table.from_csv(csv), 2).algorithm
            assert resolved != plan(Table.from_csv(csv), 2, budget=0.05).algorithm
            sent = [
                {"op": "anonymize", "csv": csv, "k": 2, "algorithm": "auto"},
                {"op": "anonymize", "csv": csv, "k": 2,
                 "algorithm": resolved},
            ]
            with ServiceClient(*front.address) as client:
                auto = client.request(sent[0])
                twin = client.request(sent[1])
                stats = client.stats()
        finally:
            front.stop()
            for shard in shards:
                shard.stop()
        assert auto["ok"] and twin["ok"]
        distinct = {router.routing_key(request) for request in sent}
        assert stats["solved_instances"] == len(distinct) == 1
        assert auto["algorithm"] == twin["algorithm"] == resolved
        assert auto["shard"] == twin["shard"] == addresses[0]

    def test_shutdown_fans_out_to_every_shard(self, fleet):
        """Regression (PR 9 satellite): ``shutdown`` through the router
        must stop the whole fleet, not one ring owner."""
        shards, addresses, router, front = fleet
        with ServiceClient(*front.address) as client:
            report = client.shutdown()
        assert report["shards"] == {addr: "ok" for addr in addresses}
        for shard in shards:  # every shard thread actually exited
            assert shard._thread is not None
            shard._thread.join(10.0)
            assert not shard._thread.is_alive()
            shard._thread = None  # joined here; make teardown a no-op
        # ... and the router stopped itself after answering
        assert front._thread is not None
        front._thread.join(10.0)
        assert not front._thread.is_alive()
        front._thread = None

    def test_delta_affinity_and_honest_unknown_state(self, fleet):
        shards, addresses, router, front = fleet
        base = quasi_identifiers(census_table(18, seed=3))
        grown = quasi_identifiers(census_table(24, seed=3))
        delta_rows = Table(grown.rows[18:], attributes=grown.attributes)
        with ServiceClient(*front.address) as client:
            first = client.anonymize(base, 2, algorithm="incremental")
            key = first["state_key"]
            assert key
            # the snapshot's shard is the ring owner of its key, so the
            # delta lands exactly where the state lives
            assert router.ring.owner(key) == first["shard"]
            second = client.delta(key, delta_rows, k=2)
            assert second["shard"] == first["shard"]
            assert "rerouted" not in second
            # kill the owner: the delta reroutes to a shard that never
            # saw the snapshot and must say so, not silently re-solve
            for shard, address in zip(shards, addresses):
                if address == first["shard"]:
                    shard.stop()
            with pytest.raises(ServiceError) as excinfo:
                client.delta(key, delta_rows, k=2)
            assert excinfo.value.code == "unknown-state"

    def test_unroutable_request_gets_the_shards_error(self, fleet):
        _, addresses, _, front = fleet
        with ServiceClient(*front.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.anonymize(tables(1)[0], 2, algorithm="nope")
            assert excinfo.value.code == "unknown-algorithm"

    def test_ping_reports_fleet_size(self, fleet):
        _, _, _, front = fleet
        with ServiceClient(*front.address) as client:
            response = client.ping()
        assert response["router"] == {"shards_alive": 3,
                                      "shards_total": 3}


# ----------------------------------------------------------------------
# Pooled shard streams
# ----------------------------------------------------------------------


@pytest.fixture
def accepts(monkeypatch):
    """Connections accepted per front-end handler."""
    counts: Counter = Counter()
    handle = wire._handle_connection

    def counting(handler, *args):
        counts[handler] += 1
        return handle(handler, *args)

    monkeypatch.setattr(wire, "_handle_connection", counting)
    return counts


@pytest.fixture
def shard():
    """One live shard (fault injection on, for delayed answers)."""
    server = ServiceServer(AnonymizationService(fault_injection=True))
    address = format_address(server.start())
    try:
        yield server, address
    finally:
        server.stop()


def solve_request(table: Table, **extra) -> dict:
    return {"op": "anonymize", "csv": table.to_csv(), "k": 2, **extra}


class _UnnoticedDeadWriter:
    """The writer of a pooled stream whose peer went away unnoticed."""

    def __init__(self):
        self.closed = False

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        pass

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


class TestStreamPool:
    def test_sequential_forwards_share_one_stream(self, shard, accepts):
        server, address = shard
        front = RouterServer(ShardRouter([address], health_interval=0.0))
        front.start()
        try:
            with ServiceClient(*front.address) as client:
                for table in tables(10, rows=8):
                    assert client.anonymize(table, 2)["cache"] == "miss"
            assert accepts[server.handler] == 1
        finally:
            front.stop()

    def test_a_shard_restarted_in_place_serves_its_next_request(self):
        server = ServiceServer()
        address = format_address(server.start())
        router = ShardRouter([address], health_interval=0.0)
        front = RouterServer(router)
        front.start()
        first, second = tables(2, rows=8)
        try:
            with ServiceClient(*front.address) as client:
                assert client.anonymize(first, 2)["cache"] == "miss"
                server.stop()
                server = ServiceServer(port=parse_address(address)[1])
                server.start()
                response = client.anonymize(second, 2)
            assert response["cache"] == "miss"
            assert response["shard"] == address
            assert "rerouted" not in response
            assert router.shards[address].alive
            assert router.counters["evicted"] == 0
            assert server.handler.requests == {"anonymize": 1}
        finally:
            front.stop()
            server.stop()

    def test_a_failed_reused_stream_is_resent_on_a_fresh_one(
        self, shard, accepts
    ):
        server, address = shard
        first, second = tables(2, rows=8)
        dead = _UnnoticedDeadWriter()

        async def scenario():
            router = ShardRouter([address], health_interval=0.0)
            await router.handle(solve_request(first))
            pooled = list(router._idle[address])
            stale = asyncio.StreamReader()
            stale.feed_data(b'{"ok": tr')  # cut off mid-response
            stale.feed_eof()
            router._idle[address].append((stale, dead))
            response = await router.handle(solve_request(second))
            await router.stop()
            return router, pooled, response

        router, pooled, response = asyncio.run(scenario())
        assert response["ok"] and response["shard"] == address
        assert "rerouted" not in response
        assert router.counters["evicted"] == router.counters["failovers"] == 0
        assert dead.closed
        # the other idle stream was dropped as stale too
        assert all(writer.is_closing() for _, writer in pooled)
        assert accepts[server.handler] == 2

    def test_a_burst_leaves_at_most_the_cap_idle(
        self, shard, accepts, monkeypatch
    ):
        server, address = shard
        monkeypatch.setattr(router_module, "MAX_IDLE_STREAMS", 2)
        requests = [solve_request(table) for table in tables(6, rows=8)]

        async def burst():
            router = ShardRouter([address], health_interval=0.0)
            responses = await asyncio.gather(
                *(router.handle(request) for request in requests)
            )
            idle = len(router._idle[address])
            await router.stop()
            return responses, idle

        responses, idle = asyncio.run(burst())
        assert all(response["ok"] for response in responses)
        assert accepts[server.handler] == len(requests)
        assert idle == 2

    def test_eviction_and_stop_close_idle_streams(self):
        servers = [ServiceServer() for _ in range(2)]
        addresses = [format_address(server.start()) for server in servers]
        ping = b'{"op": "ping"}\n'

        async def scenario():
            router = ShardRouter(addresses, health_interval=0.0)
            for address in addresses:
                await asyncio.gather(
                    *(router._send(address, ping) for _ in range(3))
                )
            pooled = {addr: list(router._idle[addr]) for addr in addresses}
            assert all(len(streams) == 3 for streams in pooled.values())
            victim, survivor = addresses
            router._evict(victim)
            assert router._idle[victim] == []
            assert all(w.is_closing() for _, w in pooled[victim])
            assert not any(w.is_closing() for _, w in pooled[survivor])
            await router.stop()
            assert all(not idle for idle in router._idle.values())
            assert all(w.is_closing() for _, w in pooled[survivor])

        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                asyncio.run(scenario())
                gc.collect()
        finally:
            for server in servers:
                server.stop()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_a_router_serves_a_second_event_loop(self, shard, accepts):
        """Streams pooled on another loop are closed and dropped, not
        reused.  The first loop stays open until its stream's transport
        is gone, and the second stops the router, so no socket leaks."""
        server, address = shard
        router = ShardRouter([address], health_interval=0.0)
        request = solve_request(tables(1, rows=8)[0])

        async def on_the_second_loop():
            response = await router.handle(request)
            await router.stop()
            return response

        first = asyncio.new_event_loop()
        try:
            assert first.run_until_complete(router.handle(request))["ok"]
            (stale,) = router._idle[address]
            assert asyncio.run(on_the_second_loop())["cache"] == "hit"
            assert stale[1].is_closing()
        finally:
            first.run_until_complete(asyncio.sleep(0))
            first.close()
        assert accepts[server.handler] == 2

    def test_a_cancelled_forward_never_returns_its_stream(self, shard):
        server, address = shard
        first, second = tables(2, rows=8)

        async def scenario():
            router = ShardRouter([address], health_interval=0.0)
            slow = asyncio.ensure_future(
                router.handle(solve_request(first, fault="delay:0.5"))
            )
            await asyncio.sleep(0.2)  # the request is at the shard
            slow.cancel()
            with pytest.raises(asyncio.CancelledError):
                await slow
            idle = len(router._idle[address])
            answer = await router.handle(solve_request(second))
            await router.stop()
            return idle, answer

        idle, answer = asyncio.run(scenario())
        assert idle == 0
        with ServiceClient(*parse_address(address)) as client:
            assert answer["csv"] == client.anonymize(second, 2)["csv"]
            assert answer["csv"] != client.anonymize(first, 2)["csv"]


class TestClientFallbacks:
    def test_client_fails_over_to_fallback_address(self, fleet):
        _, _, _, front = fleet
        host, port = front.address
        dead = ServiceServer(port=0)
        dead_address = format_address(dead.start())
        dead.stop()  # now guaranteed closed
        client = ServiceClient(
            *parse_address(dead_address),
            fallbacks=[f"{host}:{port}"], retries=2,
        )
        with client:
            response = client.anonymize(tables(1)[0], 2)
        assert response["ok"]
        assert client.counters["failovers"] >= 1
        assert (client.host, client.port) == (host, port)  # sticky

    def test_bad_fallback_address_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(fallbacks=["nonsense"])


# ----------------------------------------------------------------------
# CLI: kanon route / kanon submit against a router
# ----------------------------------------------------------------------


class TestRouteCli:
    def test_submit_stats_ping_shutdown_render_the_fleet(
        self, fleet, tmp_path, capsys
    ):
        shards, addresses, _, front = fleet
        host, port = front.address
        flags = ["--host", host, "--port", str(port)]
        path = tmp_path / "in.csv"
        write_csv(tables(1)[0], path)

        assert main(["submit", "--ping"] + flags) == 0
        assert "router 3/3 shards alive" in capsys.readouterr().out

        assert main(["submit", str(path), "-k", "2"] + flags) == 0
        err = capsys.readouterr().err
        assert "shard: " in err and "cache: miss" in err

        assert main(["submit", "--stats"] + flags) == 0
        out = capsys.readouterr().out
        assert "router: 3/3 shards alive" in out
        shard_lines = [line for line in out.splitlines()
                       if line.startswith("shard ")]
        assert len(shard_lines) == 3
        assert sum("1 solved instances" in line
                   for line in shard_lines) == 1

        assert main(["submit", "--shutdown"] + flags) == 0
        err = capsys.readouterr().err
        assert "server stopped" in err
        assert all(f"shard {addr}: ok" in err for addr in addresses)
        for shard in shards:
            assert shard._thread is not None
            shard._thread.join(10.0)
            shard._thread = None
        assert front._thread is not None
        front._thread.join(10.0)
        front._thread = None

    def test_route_rejects_a_bad_shard_list(self, capsys):
        assert main(["route", "--shard", "nonsense"]) == 2
        assert "host:port" in capsys.readouterr().err

"""Consistent-hash shard router: one front door over many shards.

One ``kanon serve`` process is the fleet's ceiling — its worker pool
parallelizes a batch, but its solution cache, its admission queue, and
its event loop all live in one process.  ``kanon route`` scales the
service *horizontally*: N independent ``kanon serve`` shards sit behind
a thin asyncio router that speaks the same protocol-v2 JSON-lines
dialect to clients and consistent-hashes every job onto the shard that
owns it, so each shard holds a disjoint slice of the solution cache and
**no instance is ever solved twice across the fleet**.

Routing keys (:meth:`ShardRouter.routing_key`) come from the shards'
own admission function, :func:`repro.service.server.admit`, so a
request lands on the shard that caches it:

* ``anonymize`` routes on the instance key of the parsed table, ``k``,
  the *resolved* algorithm (aliases canonicalized, ``auto`` planned
  from the request's own ``timeout`` — so an auto request and the
  explicit request it resolves to land on the same shard and share its
  cache entry), and the router's backend;
* ``anonymize`` with ``algorithm: "incremental"`` routes on the state
  key instead, placing the solve on the shard that must later serve
  ``delta`` requests against its snapshot;
* ``delta`` routes on the request's own ``state_key`` — snapshot
  affinity: the ring owner of that key is the shard that captured it.
  (See ``docs/service.md`` for the locality caveat on long chains: each
  delta's *response* carries a fresh key that may hash elsewhere, and a
  snapshot lives only on the shard that solved it, so a continuation
  landing on a different shard is answered with an honest
  ``unknown-state`` rather than a silent re-solve.)
* a request the router cannot key (malformed csv, unknown algorithm,
  missing fields) is still forwarded — to the first alive shard in
  ring order — so validation errors come from exactly one place: the
  shard's admission logic.

Fleet behaviour:

* **health checks** — a background task pings every shard each
  ``health_interval`` seconds; a failed ping evicts the shard from the
  ring (its keys flow to their next ring owners), a later successful
  ping rejoins it (the keys flow back — consistent hashing keeps both
  moves minimal);
* **stream reuse** — a forward checks an idle stream to its shard out
  of a small pool (at most :data:`MAX_IDLE_STREAMS` per shard), sends
  its line, reads one response line and checks the stream back in; no
  stream ever carries two in-flight requests.  A stream goes back only
  after a complete response; on any error or cancellation it is
  closed.  An evicted shard's idle streams are closed, and so are all
  of them when the router stops;
* **per-request failover** — a connection failure while forwarding
  evicts the shard immediately and retries the next owner in the key's
  ring preference order; the response then carries ``rerouted: true``.
  A failure on a *reused* stream is not such evidence (the shard may
  have restarted in place since the stream was opened): the request is
  sent once more on a fresh connection, and only that one's failure
  evicts.  Every proxied response carries ``shard: "host:port"``;
* **fan-out ops** — ``stats`` queries every alive shard concurrently
  and merges the counters (:func:`merge_shard_stats`), answering the
  single-server stats shape plus a ``router`` section and per-shard
  sections; ``shutdown`` stops **every** shard (alive or not — a dead
  one may have silently returned) and then the router itself;
* when every shard is gone, requests fail with code ``unavailable``.

The router holds no solve state of its own — routing is a pure function
of (request, ring membership), so a bounced router resumes correct
routing immediately and routers can be stacked for availability.  It
is served over TCP by the same front end as a shard
(:mod:`repro.service.wire`).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.backend import default_backend_name
from repro.instrument import Counters
from repro.service.hashring import DEFAULT_VNODES, HashRing
from repro.service.server import PROTOCOL_VERSION, admit
from repro.service.wire import MAX_LINE_BYTES, ServiceServer, _error

#: default router TCP port (one below a shard's default 7683 family)
DEFAULT_ROUTER_PORT = 7690

#: the background-thread front end serves a router like a shard
RouterServer = ServiceServer

#: most idle streams the router keeps open to one shard (a burst of
#: concurrent forwards opens more; the excess is closed on check-in)
MAX_IDLE_STREAMS = 8

_Stream = tuple[asyncio.StreamReader, asyncio.StreamWriter]


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` into ``(host, port)``.

    >>> parse_address("127.0.0.1:7683")
    ('127.0.0.1', 7683)
    >>> parse_address(("localhost", 7684))
    ('localhost', 7684)
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"shard address {address!r} is not of the form host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"shard address {address!r} has a non-numeric port"
        ) from None
    return host, port


def format_address(address: "str | tuple[str, int]") -> str:
    """The canonical ``host:port`` ring-node name for *address*."""
    host, port = parse_address(address)
    return f"{host}:{port}"


@dataclass
class ShardState:
    """The router's live view of one shard."""

    address: str
    alive: bool = True
    #: consecutive failed pings / forwards since the last success
    failures: int = 0
    #: monotonic timestamp of the last completed health check
    checked_at: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {"alive": self.alive, "failures": self.failures}


def merge_shard_stats(per_shard: dict[str, dict]) -> dict[str, Any]:
    """Aggregate per-shard ``stats`` payloads into the fleet view.

    Returns the single-server stats *shape* (so every existing stats
    consumer works unchanged against a router): summed ``cache`` /
    ``requests`` / ``rejected`` / ``coalesced`` / ``planned`` /
    ``solved_instances`` counters, summed ``jobs``, batch shape with a
    size-weighted mean, the fleet-wide ``hit_rate`` recomputed from the
    summed counters, and ``backend`` collapsed when uniform (else the
    sorted comma-joined set).  The ``privacy`` ledger sums per-dataset
    ε spends across shards (sequential composition holds fleet-wide)
    and keeps ``budget`` when uniform.  Pure and transport-free on
    purpose — unit-tested in isolation.
    """
    cache_sums = ("hits", "memory_hits", "disk_hits", "misses",
                  "evictions", "stores", "corrupt", "entries",
                  "max_entries")
    merged_cache: dict[str, Any] = {name: 0 for name in cache_sums}
    requests: dict[str, int] = {}
    merged: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "uptime_seconds": 0.0,
        "jobs": 0,
        "rejected": 0,
        "coalesced": 0,
        "planned": 0,
        "solved_instances": 0,
    }
    backends: set[str] = set()
    batch_count = 0
    batch_max = 0
    batch_jobs = 0.0
    privacy_budgets: set = set()
    privacy_spent: dict[str, float] = {}
    for stats in per_shard.values():
        privacy = stats.get("privacy") or {}
        privacy_budgets.add(privacy.get("budget"))
        for dataset, spent in (privacy.get("datasets") or {}).items():
            # ε spends sum across shards: each shard's ledger only saw
            # the releases it served (sequential composition fleet-wide)
            privacy_spent[dataset] = (
                privacy_spent.get(dataset, 0.0) + float(spent)
            )
        backends.add(str(stats.get("backend", "?")))
        merged["uptime_seconds"] = max(
            merged["uptime_seconds"], float(stats.get("uptime_seconds", 0.0))
        )
        merged["jobs"] += int(stats.get("jobs", 0))
        for name in ("rejected", "coalesced", "planned",
                     "solved_instances"):
            merged[name] += int(stats.get(name, 0))
        for op, count in (stats.get("requests") or {}).items():
            requests[op] = requests.get(op, 0) + int(count)
        cache = stats.get("cache") or {}
        for name in cache_sums:
            merged_cache[name] += int(cache.get(name, 0))
        batches = stats.get("batches") or {}
        count = int(batches.get("count", 0))
        batch_count += count
        batch_max = max(batch_max, int(batches.get("max_size", 0)))
        batch_jobs += count * float(batches.get("mean_size", 0.0))
    lookups = merged_cache["hits"] + merged_cache["misses"]
    merged_cache["hit_rate"] = (
        merged_cache["hits"] / lookups if lookups else 0.0
    )
    merged_cache["disk"] = None
    merged["backend"] = (
        backends.pop() if len(backends) == 1 else ",".join(sorted(backends))
    )
    merged["requests"] = requests
    merged["cache"] = merged_cache
    merged["batches"] = {
        "count": batch_count,
        "max_size": batch_max,
        "mean_size": batch_jobs / batch_count if batch_count else 0.0,
    }
    merged["privacy"] = {
        "budget": (
            privacy_budgets.pop() if len(privacy_budgets) == 1 else None
        ),
        "datasets": {
            dataset: round(spent, 12)
            for dataset, spent in sorted(privacy_spent.items())
        },
    }
    return merged


class ShardRouter:
    """The transport-free routing core (see the module docstring).

    :param shards: the fleet — ``host:port`` strings or tuples.
    :param vnodes: virtual nodes per shard on the hash ring.
    :param backend: backend name baked into routing keys; must match
        the shards' backend for router-side keys to equal shard-side
        cache keys (default: the process default, ``REPRO_BACKEND``).
    :param health_interval: seconds between background ping sweeps
        (0 disables the sweep; per-request failover still evicts).
    :param ping_timeout: budget for one health-check ping.
    :param connect_timeout: budget for opening a forward connection —
        forwards themselves are never timed out by the router (solver
        budgets belong to shard admission control).
    """

    #: front-end identity (see :mod:`repro.service.wire`)
    name = "router"
    default_port = DEFAULT_ROUTER_PORT

    def __init__(
        self,
        shards: Iterable[str | tuple[str, int]],
        *,
        vnodes: int = DEFAULT_VNODES,
        backend: str | None = None,
        health_interval: float = 1.0,
        ping_timeout: float = 2.0,
        connect_timeout: float = 5.0,
    ):
        addresses = [format_address(shard) for shard in shards]
        if not addresses:
            raise ValueError("a router needs at least one shard address")
        if len(set(addresses)) != len(addresses):
            raise ValueError("duplicate shard addresses")
        if health_interval < 0:
            raise ValueError("health_interval cannot be negative")
        self.ring = HashRing(addresses, vnodes=vnodes)
        self.shards = {addr: ShardState(addr) for addr in addresses}
        self.backend = backend or default_backend_name()
        self.health_interval = health_interval
        self.ping_timeout = ping_timeout
        self.connect_timeout = connect_timeout
        self.started_at = time.time()
        self.counters = Counters(
            "requests", "routed", "rerouted", "failovers", "unroutable",
            "health_checks", "evicted", "rejoined",
        )
        self._health_task: asyncio.Task | None = None
        #: idle forward streams per shard, and the event loop they
        #: belong to (a stream is useless to any other loop)
        self._idle: dict[str, list[_Stream]] = {
            addr: [] for addr in addresses
        }
        self._idle_loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------

    def banner(self, host: str, port: int) -> str:
        """The front end's startup line."""
        return (
            f"kanon router listening on {host}:{port} over "
            f"{len(self.shards)} shard(s) "
            f"(vnodes={self.ring.vnodes}, backend={self.backend})"
        )

    def connection_fault(self, request: Any) -> None:
        """Routers inject no faults (shards answer ``fault`` fields)."""
        return None

    async def start(self) -> None:
        """Start the periodic health sweep (idempotent)."""
        if self._health_task is None and self.health_interval > 0:
            self._health_task = asyncio.ensure_future(self._health_loop())

    async def stop(self) -> None:
        """Stop the health sweep and close every idle shard stream."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for address in self._idle:
            for _, writer in self._drop_idle(address):
                await _closed(writer)

    # -- routing keys --------------------------------------------------

    def routing_key(self, request: dict) -> str | None:
        """The consistent-hash key for *request*, or ``None``.

        The key :func:`~repro.service.server.admit` computes — the one a
        shard caches the request under.  ``None`` means the request
        cannot be keyed (malformed table, unknown algorithm, missing
        fields, a non-solve op) — the caller forwards it to a
        deterministic shard so the *shard's* admission logic produces
        the protocol error, keeping validation single-sourced.
        """
        try:
            return admit(request, self.backend).routing_key
        except Exception:  # noqa: BLE001 - unroutable, not invalid
            return None

    def _preference(self, key: str | None) -> list[str]:
        """Alive shards to try, in order, for routing key *key*."""
        if key is not None:
            return self.ring.owners(key)
        # unroutable: any deterministic alive shard will do — the ring
        # order for a fixed sentinel spreads nothing but stays stable
        return sorted(self.ring.nodes)

    # -- membership ----------------------------------------------------

    def _evict(self, address: str) -> None:
        state = self.shards[address]
        state.failures += 1
        self._drop_idle(address)
        if state.alive:
            state.alive = False
            self.ring.remove(address)
            self.counters.bump("evicted")

    def _rejoin(self, address: str) -> None:
        state = self.shards[address]
        state.failures = 0
        if not state.alive:
            state.alive = True
            self.ring.add(address)
            self.counters.bump("rejoined")

    @property
    def alive(self) -> list[str]:
        """Alive shard addresses, sorted."""
        return sorted(self.ring.nodes)

    # -- the wire to one shard -----------------------------------------

    async def _connect(self, address: str) -> _Stream:
        """A fresh stream to *address*, bounded by ``connect_timeout``."""
        host, port = parse_address(address)
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=MAX_LINE_BYTES),
                self.connect_timeout,
            )
        except asyncio.TimeoutError:
            raise ConnectionError(f"shard {address} timed out") from None
        except OSError as exc:
            raise ConnectionError(f"shard {address}: {exc}") from exc

    @staticmethod
    async def _round_trip(
        address: str, stream: _Stream, line: bytes,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Send *line* and read one response line on *stream*.

        *timeout*, when given (health pings), bounds the exchange;
        forwards are otherwise never timed out by the router, since
        solve budgets belong to shard admission control.  Raises
        ``ConnectionError`` on any transport, timeout or framing
        failure (an oversized line included).
        """
        reader, writer = stream

        async def exchange() -> bytes:
            writer.write(line)
            await writer.drain()
            return await reader.readline()

        try:
            if timeout is not None:
                raw = await asyncio.wait_for(exchange(), timeout)
            else:
                raw = await exchange()
            if not raw.endswith(b"\n"):
                raise ConnectionError(f"shard {address} closed the stream")
            response = json.loads(raw)
        except asyncio.TimeoutError:
            raise ConnectionError(f"shard {address} timed out") from None
        except (OSError, ValueError) as exc:
            raise ConnectionError(f"shard {address}: {exc}") from exc
        if not isinstance(response, dict):
            raise ConnectionError(
                f"shard {address} sent a malformed response"
            )
        return response

    async def _exchange(
        self, address: str, line: bytes, timeout: float | None = None
    ) -> dict[str, Any]:
        """One round trip with the shard at *address* on a fresh
        connection, closed afterwards.

        Health pings and the ``stats``/``shutdown`` fan-outs use it, so
        they test the shard's listener, not a stream opened before the
        shard last restarted.  Raises ``ConnectionError`` on failure.
        """
        stream = await self._connect(address)
        try:
            return await self._round_trip(address, stream, line, timeout)
        finally:
            await _closed(stream[1])

    async def _send(self, address: str, line: bytes) -> dict[str, Any]:
        """Forward *line* to *address* over a pooled stream.

        An idle stream is checked out, or a fresh one opened.  A reused
        stream that fails says nothing of the shard — it may have
        restarted since — so the shard's other idle streams are dropped
        as stale and the line is sent once more on a fresh connection,
        whose failure raises ``ConnectionError``.
        """
        stream = self._check_out(address)
        if stream is not None:
            try:
                return await self._use(address, stream, line)
            except ConnectionError:
                self._drop_idle(address)
        return await self._use(address, await self._connect(address), line)

    async def _use(
        self, address: str, stream: _Stream, line: bytes
    ) -> dict[str, Any]:
        """One exchange on *stream*, which is checked back in only after
        a complete response line and closed on any failure or
        cancellation, or when the shard already has
        :data:`MAX_IDLE_STREAMS` idle."""
        try:
            response = await self._round_trip(address, stream, line)
        except BaseException:
            stream[1].close()
            raise
        idle = self._idle[address]
        if len(idle) < MAX_IDLE_STREAMS and self.shards[address].alive:
            idle.append(stream)
        else:
            stream[1].close()
        return response

    def _check_out(self, address: str) -> _Stream | None:
        """An open idle stream to *address* on this loop, if any."""
        loop = asyncio.get_running_loop()
        if self._idle_loop is not loop:
            # streams of another (finished) loop can never be read
            # again; they are dropped, not reused
            self._idle = {addr: [] for addr in self._idle}
            self._idle_loop = loop
        idle = self._idle[address]
        while idle:
            reader, writer = idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()
        return None

    def _drop_idle(self, address: str) -> list[_Stream]:
        """Close and forget *address*'s idle streams; returns them."""
        dropped, self._idle[address] = self._idle[address], []
        for _, writer in dropped:
            writer.close()
        return dropped

    # -- request handling ----------------------------------------------

    async def handle(self, request: Any) -> dict[str, Any]:
        """Serve one client request object; never raises on bad input."""
        if not isinstance(request, dict):
            return _error("bad-request", "request must be a JSON object")
        self.counters.bump("requests")
        op = request.get("op", "anonymize")
        if op == "ping":
            response = self._ping_response()
        elif op == "stats":
            response = await self._stats_response()
        elif op == "shutdown":
            response = await self._shutdown_response()
        else:
            response = await self._forward(request)
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _ping_response(self) -> dict[str, Any]:
        return {
            "ok": True,
            "op": "ping",
            "protocol": PROTOCOL_VERSION,
            "router": {
                "shards_alive": len(self.ring),
                "shards_total": len(self.shards),
            },
        }

    def router_stats(self) -> dict[str, Any]:
        """The router's own section of the ``stats`` payload."""
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "backend": self.backend,
            "vnodes": self.ring.vnodes,
            "shards_alive": len(self.ring),
            "shards_total": len(self.shards),
            "health_interval": self.health_interval,
            "counters": self.counters.as_dict(),
            "shards": {
                addr: state.as_dict()
                for addr, state in sorted(self.shards.items())
            },
        }

    async def _fan_out(
        self, op: str, addresses: list[str], timeout: float | None = None
    ) -> list[Any]:
        """Send ``{"op": op}`` to every shard in *addresses* at once;
        one response dict or exception per address, in order."""
        line = json.dumps({"op": op}).encode("utf-8") + b"\n"
        return await asyncio.gather(
            *(self._exchange(addr, line, timeout) for addr in addresses),
            return_exceptions=True,
        )

    async def _stats_response(self) -> dict[str, Any]:
        """Fan ``stats`` out to every alive shard and merge."""
        alive = self.alive
        outcomes = await self._fan_out("stats", alive)
        per_shard: dict[str, dict] = {}
        reachable: dict[str, dict] = {}
        for addr, outcome in zip(alive, outcomes):
            if isinstance(outcome, BaseException):
                self._evict(addr)
                per_shard[addr] = {"error": str(outcome)}
            else:
                reachable[addr] = outcome
                per_shard[addr] = outcome
        for addr, state in self.shards.items():
            if not state.alive and addr not in per_shard:
                per_shard[addr] = {"error": "shard is marked dead"}
        merged = merge_shard_stats(reachable)
        return {
            "ok": True,
            "op": "stats",
            **merged,
            "router": self.router_stats(),
            "shards": per_shard,
        }

    async def _shutdown_response(self) -> dict[str, Any]:
        """Stop **every** shard — alive or marked dead — then report.

        A dead-marked shard may have come back without a health sweep
        noticing, and an orphaned shard keeps burning its cache and its
        port; shutdown is the one op that must reach the whole fleet,
        never just the ring owner of some key.  The transport stops the
        router itself after this response is written.
        """
        addresses = sorted(self.shards)
        outcomes = await self._fan_out("shutdown", addresses)
        report: dict[str, str] = {}
        for addr, outcome in zip(addresses, outcomes):
            if isinstance(outcome, BaseException):
                report[addr] = f"error: {outcome}"
            elif outcome.get("ok"):
                report[addr] = "ok"
            else:
                report[addr] = f"error: {outcome.get('error', 'refused')}"
        return {"ok": True, "op": "shutdown", "shards": report}

    async def _forward(self, request: dict) -> dict[str, Any]:
        """Route one solve-shaped request, failing over around the ring."""
        key = self.routing_key(request)
        if key is None:
            self.counters.bump("unroutable")
        preference = self._preference(key)
        if not preference:
            return _error(
                "unavailable",
                f"no shards alive (0/{len(self.shards)} reachable)",
            )
        line = json.dumps(request).encode("utf-8") + b"\n"
        first = preference[0]
        last_error = "unreachable"
        for address in preference:
            if address not in self.ring:
                continue  # evicted by a concurrent request's failover
            try:
                response = await self._send(address, line)
            except ConnectionError as exc:
                # connection-level failure only: a shard that ANSWERS
                # with an error is healthy and must not be evicted
                last_error = str(exc)
                self._evict(address)
                self.counters.bump("failovers")
                continue
            self.counters.bump("routed")
            self.shards[address].failures = 0
            response["shard"] = address
            if address != first:
                response["rerouted"] = True
                self.counters.bump("rerouted")
            return response
        return _error(
            "unavailable",
            f"all {len(preference)} ring owner(s) failed "
            f"(last: {last_error})",
        )

    # -- health checks -------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await self.check_shards()

    async def check_shards(self) -> dict[str, bool]:
        """Ping every shard once; evict the dead, rejoin the recovered.

        Returns ``{address: alive}`` after the sweep (also handy for
        tests as a deterministic membership check).
        """
        addresses = sorted(self.shards)
        outcomes = await self._fan_out("ping", addresses, self.ping_timeout)
        now = time.monotonic()
        verdict: dict[str, bool] = {}
        for addr, outcome in zip(addresses, outcomes):
            self.counters.bump("health_checks")
            self.shards[addr].checked_at = now
            healthy = (
                not isinstance(outcome, BaseException)
                and bool(outcome.get("ok"))
            )
            if healthy:
                self._rejoin(addr)
            else:
                self._evict(addr)
            verdict[addr] = healthy
        return verdict


async def _closed(writer: asyncio.StreamWriter) -> None:
    """Close *writer* and wait until its transport is gone."""
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, ConnectionError):
        pass

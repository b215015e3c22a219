"""Blocking client for the anonymization service.

Speaks the newline-delimited-JSON protocol of
:mod:`repro.service.server` over one persistent TCP connection.  Used
by the ``kanon submit`` CLI verb, the service tests, and the E19/E20
benchmarks; third-party callers only need a socket and ``json`` to
interoperate.

Robustness (protocol v2):

* every request carries an auto-incrementing ``id``; responses are
  matched by it, so a line left over from an earlier timed-out request
  is **discarded** instead of being mistaken for the current reply.
* a dead connection (reset, closed, failed write) is closed
  immediately — satellite of PR 5: the next call reconnects instead of
  failing forever on a half-dead socket.
* idempotent verbs (``anonymize``, ``delta``, ``ping``, ``stats``)
  retry through :class:`~repro.instrument.Backoff` with exponential
  delay and jitter; ``shutdown`` never retries (a retry could kill a
  freshly restarted server).
* route awareness (PR 9): ``fallbacks`` names alternate addresses —
  standby routers, or the shards themselves when no router runs — and
  a retry after a connection failure advances to the next address
  (sticky: later requests keep using the address that worked).

The counters on :attr:`ServiceClient.counters` (requests / retries /
reconnects / timeouts / failovers / stale lines discarded) make those
behaviours observable in tests and chaos runs.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Iterable

from repro.core.table import Table
from repro.instrument import Backoff
from repro.service.server import DEFAULT_PORT, ServiceError


class ServiceClient:
    """One connection to a running anonymization service.

    :param host: server address.
    :param port: server port.
    :param timeout: socket timeout in seconds for connect and replies
        (raise it for long solver budgets; ``None`` blocks forever).
    :param retries: reconnect-and-resend attempts (beyond the first)
        for **idempotent** requests that hit a connection error or
        timeout.  0 disables retrying; the dead socket is still closed
        so the next call reconnects.
    :param backoff: delay policy between retries (default
        ``Backoff()``: 50 ms doubling to 2 s, with jitter).
    :param rng: random source for the jitter (seed it in tests).
    :param fallbacks: alternate service addresses (``"host:port"``
        strings or ``(host, port)`` tuples) tried in order when the
        current address fails a connection attempt — e.g. a standby
        router, or the shard fleet itself when no router is running.
        Failover is sticky: once an address answers, later requests
        keep using it until it too fails.

    The connection opens lazily on the first request and is reused
    across calls; the client is also a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float | None = 60.0,
        *,
        retries: int = 2,
        backoff: Backoff | None = None,
        rng: random.Random | None = None,
        fallbacks: "Iterable[str | tuple[str, int]] | None" = None,
    ):
        if retries < 0:
            raise ValueError("retries cannot be negative")
        self._addresses: list[tuple[str, int]] = [(host, int(port))]
        for fallback in fallbacks or ():
            self._addresses.append(self._parse(fallback))
        self._current = 0
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff if backoff is not None else Backoff()
        self._rng = rng
        self._sock: socket.socket | None = None
        self._buffer = bytearray()
        self._next_id = 0
        self.counters: dict[str, int] = {
            "requests": 0,
            "retries": 0,
            "reconnects": 0,
            "timeouts": 0,
            "failovers": 0,
            "stale_lines_discarded": 0,
        }

    # -- plumbing ------------------------------------------------------

    @staticmethod
    def _parse(address: "str | tuple[str, int]") -> tuple[str, int]:
        if isinstance(address, tuple):
            return str(address[0]), int(address[1])
        host, separator, port_text = address.rpartition(":")
        if not separator or not host or not port_text.isdigit():
            raise ValueError(
                f"fallback address {address!r} is not of the form host:port"
            )
        return host, int(port_text)

    @property
    def host(self) -> str:
        """The host currently in use (moves on failover)."""
        return self._addresses[self._current][0]

    @property
    def port(self) -> int:
        """The port currently in use (moves on failover)."""
        return self._addresses[self._current][1]

    def _advance(self) -> None:
        """Fail over to the next configured address (round robin)."""
        if len(self._addresses) > 1:
            self.close()
            self._current = (self._current + 1) % len(self._addresses)
            self.counters["failovers"] += 1

    def _connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._buffer.clear()
            self.counters["reconnects"] += 1

    def _read_line(self) -> bytes:
        """One newline-terminated line from the socket.

        A manual buffer instead of ``socket.makefile`` so that a read
        timeout leaves the connection in a consistent state — the bytes
        received so far stay buffered, and the late response can be
        recognised (and discarded by ``id``) on the next request.
        """
        assert self._sock is not None
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError(
                    f"service at {self.host}:{self.port} closed the "
                    "connection"
                )
            self._buffer.extend(chunk)

    def _exchange(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One send/receive round-trip, matching the response by id.

        Raises ``ConnectionError`` (after closing the dead socket) on
        anything that warrants a reconnect; raises ``socket.timeout``
        (``TimeoutError``) with the connection *kept* when the server is
        simply slow — the stale reply will be discarded by id later.
        """
        request_id = self._next_id
        self._next_id += 1
        payload = {**payload, "id": request_id}
        self._connect()
        assert self._sock is not None
        self._sock.settimeout(self.timeout)
        try:
            self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        except socket.timeout:
            # a send timeout leaves an unknown number of bytes on the
            # wire: the connection is unusable, not merely slow
            self.close()
            self.counters["timeouts"] += 1
            raise ConnectionError(
                f"timed out sending to {self.host}:{self.port}"
            ) from None
        except OSError as exc:
            self.close()
            raise ConnectionError(
                f"lost connection to {self.host}:{self.port}: {exc}"
            ) from exc
        while True:
            try:
                line = self._read_line()
            except socket.timeout:
                self.counters["timeouts"] += 1
                raise
            except ConnectionError:
                self.close()
                raise
            except OSError as exc:
                self.close()
                raise ConnectionError(
                    f"lost connection to {self.host}:{self.port}: {exc}"
                ) from exc
            try:
                response = json.loads(line)
                if not isinstance(response, dict):
                    raise ValueError("response is not a JSON object")
            except ValueError:
                # a garbled line means framing is lost for good
                self.close()
                raise ConnectionError(
                    f"service at {self.host}:{self.port} sent a "
                    "malformed response line"
                ) from None
            if response.get("id") == request_id:
                return response
            if "id" not in response:
                # a v1 server echoes nothing; pairing is positional
                return response
            # a late answer to an earlier timed-out request: drop it
            # and keep reading for ours
            self.counters["stale_lines_discarded"] += 1

    def request(
        self, payload: dict[str, Any], *, idempotent: bool = True
    ) -> dict[str, Any]:
        """Send one request object, return the raw response object.

        Connection errors and send timeouts are retried (reconnect,
        backoff with jitter, fresh request id) up to ``retries`` times —
        but only when *idempotent*; a non-idempotent request fails on
        the first error.  With ``fallbacks`` configured, each retry
        also advances to the next address (round robin).  Read timeouts raise ``TimeoutError`` with the
        connection kept open (the late reply is discarded by id later).
        """
        self.counters["requests"] += 1
        attempts = (self.retries if idempotent else 0) + 1
        for attempt in range(attempts):
            try:
                return self._exchange(payload)
            except ConnectionError:
                if attempt + 1 >= attempts:
                    raise
                self.counters["retries"] += 1
                self._advance()
                time.sleep(self.backoff.delay(attempt, rng=self._rng))
        raise AssertionError("unreachable")  # pragma: no cover

    def _checked(
        self, payload: dict[str, Any], *, idempotent: bool = True
    ) -> dict[str, Any]:
        response = self.request(payload, idempotent=idempotent)
        if not response.get("ok"):
            raise ServiceError(
                response.get("code", "internal"),
                response.get("error", "service error"),
            )
        return response

    # -- the verbs -----------------------------------------------------

    def anonymize(
        self,
        table: "Table | str",
        k: int,
        *,
        algorithm: str = "center_cover",
        header: bool = True,
        timeout: float | None = None,
        use_cache: bool = True,
        trace: bool = False,
        fault: str | None = None,
        privacy: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Anonymize a :class:`Table` (or CSV text) on the server.

        Returns the response object; ``response["table"]`` is the
        released :class:`Table` parsed back from the wire, alongside
        ``stars``, ``cache`` (hit / coalesced / miss / bypass), and
        ``solve_seconds``.

        *privacy* is the optional protocol privacy block — a dict with
        any of ``sensitive`` (column index), ``l`` (distinct
        l-diversity), ``t`` (t-closeness), ``epsilon`` (ε-DP noisy
        class histogram, returned under ``response["dp"]``).  Privacy
        requests are cached under privacy-aware keys and ε-releases are
        charged against the server's privacy budget.

        ``algorithm="auto"`` lets the server pick: the planner runs at
        admission, ``response["algorithm"]`` names the solver that
        actually ran, and ``response["plan"]`` carries the full
        :class:`~repro.planner.PlanDecision` dict.  The job is cached
        under the *resolved* algorithm, so an auto request and an
        explicit one for the same resolution share a cache entry.

        *fault* asks a chaos-enabled server to misbehave on purpose
        (``kill-worker``, ``delay:SECONDS``, ``drop-connection``);
        servers without fault injection reject it.

        :raises ServiceError: on any rejected request (bad input,
            unknown algorithm, blown budget, infeasible instance).
        """
        csv = table.to_csv(header=header) if isinstance(table, Table) else table
        payload = {
            "op": "anonymize",
            "csv": csv,
            "header": header,
            "k": k,
            "algorithm": algorithm,
            "timeout": timeout,
            "use_cache": use_cache,
            "trace": trace,
        }
        if fault is not None:
            payload["fault"] = fault
        if privacy is not None:
            payload["privacy"] = privacy
        response = self._checked(payload)
        response["table"] = Table.from_csv(response["csv"], header=header)
        return response

    def delta(
        self,
        state_key: str,
        rows: "Table | str",
        *,
        k: int | None = None,
        header: bool = True,
        timeout: float | None = None,
        use_cache: bool = True,
        fault: str | None = None,
    ) -> dict[str, Any]:
        """Append rows to a previously-solved incremental stream.

        *state_key* is the key a prior ``anonymize(...,
        algorithm="incremental")`` or ``delta`` response carried; *rows*
        is the appended delta only (not the full table).  Returns the
        grown release — ``response["table"]`` parsed back from the
        wire, a fresh ``state_key`` to continue the chain, and a
        ``delta`` disposition (``rows_added`` / ``rows_total`` /
        ``groups`` / ``untouched_groups``) on an actual solve (cache
        hits answer without one).

        The request is idempotent — replaying the same delta against
        the same state key yields the same release and the same next
        ``state_key`` — so it retries like ``anonymize`` does.

        :raises ServiceError: ``unknown-state`` when no state lives
            under *state_key* (wrong key, evicted memory-only cache, or
            a corrupt entry); ``bad-request`` on a k / degree /
            attribute mismatch with the stored stream.
        """
        csv = rows.to_csv(header=header) if isinstance(rows, Table) else rows
        payload = {
            "op": "delta",
            "state_key": state_key,
            "csv": csv,
            "header": header,
            "timeout": timeout,
            "use_cache": use_cache,
        }
        if k is not None:
            payload["k"] = k
        if fault is not None:
            payload["fault"] = fault
        response = self._checked(payload)
        response["table"] = Table.from_csv(response["csv"], header=header)
        return response

    def stats(self) -> dict[str, Any]:
        """Server counters: cache hits/misses/evictions, batches, pool."""
        return self._checked({"op": "stats"})

    def ping(self) -> dict[str, Any]:
        """Health check (also reports the protocol version)."""
        return self._checked({"op": "ping"})

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to stop after acknowledging (never retried)."""
        try:
            return self._checked({"op": "shutdown"}, idempotent=False)
        finally:
            self.close()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the connection (reopens lazily on the next request)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._buffer.clear()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "connected" if self._sock is not None else "idle"
        return (
            f"ServiceClient({self.host}:{self.port}, {state}, "
            f"retries={self.retries})"
        )

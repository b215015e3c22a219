"""The JSON-lines TCP front end shared by ``kanon serve`` and ``kanon route``.

One request object per line in, one response object per line out, many
per connection.  The front end owns only the framing; a *handler*
supplies the behaviour —
:class:`~repro.service.server.AnonymizationService` on a shard,
:class:`~repro.service.router.ShardRouter` on a router:

* ``await handler.start()`` / ``await handler.stop()`` bracket the
  listener's life;
* ``await handler.handle(request)`` answers one parsed request; an
  exception escaping it is answered with code ``internal`` instead of
  dropping the connection;
* ``handler.connection_fault(request)`` is consulted after the response
  is built: ``("delay", seconds)`` postpones the write,
  ``("drop-connection", None)`` hangs up without answering (fault
  injection), ``None`` writes normally;
* ``handler.name``, ``handler.default_port`` and
  ``handler.banner(host, port)`` feed the startup line and the
  ``kanon <name> stopped`` shutdown line.

A ``shutdown`` request the handler answers ``ok`` stops the listener
once its response is written.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Any

#: refuse request lines beyond this size (64 MiB) instead of buffering
#: unbounded input from one connection
MAX_LINE_BYTES = 64 * 1024 * 1024


def _error(code: str, message: str) -> dict[str, Any]:
    return {"ok": False, "code": code, "error": message}


async def _handle_connection(
    handler: Any,
    stop: asyncio.Event,
    connections: set,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    connections.add(writer)
    try:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionResetError, ValueError):
                break  # reset, or a request line beyond MAX_LINE_BYTES
            if not line:
                break
            if not line.strip():
                continue
            request: Any = None
            try:
                request = json.loads(line)
                response = await handler.handle(request)
            except json.JSONDecodeError as exc:
                response = _error("bad-request", f"bad JSON: {exc}")
            except Exception as exc:  # noqa: BLE001 - answer, never drop
                logging.getLogger(__name__).exception("handler failed")
                response = _error("internal", f"{type(exc).__name__}: {exc}")
                if isinstance(request, dict) and "id" in request:
                    response["id"] = request["id"]
            fault = handler.connection_fault(request)
            if fault is not None:
                kind, seconds = fault
                if kind == "drop-connection":
                    break  # hang up without answering (chaos testing)
                if kind == "delay" and seconds:
                    await asyncio.sleep(seconds)
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
            if (
                isinstance(request, dict)
                and request.get("op") == "shutdown"
                and response.get("ok")
            ):
                stop.set()
                break
    except asyncio.CancelledError:
        pass  # server teardown closed this connection mid-read
    finally:
        connections.discard(writer)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve_async(
    handler: Any,
    host: str = "127.0.0.1",
    port: int | None = None,
    *,
    ready: "threading.Event | None" = None,
    bound: list | None = None,
    log=None,
) -> None:
    """Run the TCP front end for *handler* until a ``shutdown`` arrives.

    ``port=None`` listens on ``handler.default_port``; ``port=0`` on an
    ephemeral port.  ``ready`` / ``bound`` let an embedding thread learn
    the bound address; *log* is a text stream for the one-line startup
    and shutdown notices.
    """
    if port is None:
        port = handler.default_port
    stop = asyncio.Event()
    connections: set = set()
    await handler.start()
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(handler, stop, connections, r, w),
        host, port, limit=MAX_LINE_BYTES,
    )
    address = server.sockets[0].getsockname()[:2]
    if bound is not None:
        bound.extend(address)
    if ready is not None:
        ready.set()
    if log is not None:
        print(handler.banner(*address), file=log, flush=True)
    async with server:
        await stop.wait()
        # drop lingering idle connections so their reader tasks end
        # cleanly before the loop is torn down
        for open_writer in list(connections):
            open_writer.close()
        await asyncio.sleep(0)
    await handler.stop()
    if log is not None:
        print(f"kanon {handler.name} stopped", file=log, flush=True)


def serve(
    handler: Any,
    host: str = "127.0.0.1",
    port: int | None = None,
    **options: Any,
) -> None:
    """Blocking entry point: serve until shut down (``kanon serve`` /
    ``kanon route``); *options* as for :func:`serve_async`."""
    asyncio.run(serve_async(handler, host, port, **options))


class ServiceServer:
    """A front end on a background thread (tests, notebooks).

    Serves *handler* — a fresh
    :class:`~repro.service.server.AnonymizationService` when omitted, or
    a :class:`~repro.service.router.ShardRouter`, whose ``shutdown``
    also stops every shard behind it.

    >>> from repro.service import ServiceClient, ServiceServer
    >>> server = ServiceServer()
    >>> host, port = server.start()
    >>> client = ServiceClient(host, port)
    >>> client.ping()["ok"]
    True
    >>> server.stop()
    """

    def __init__(self, handler: Any = None, host: str = "127.0.0.1",
                 port: int = 0):
        if handler is None:
            from repro.service.server import AnonymizationService

            handler = AnonymizationService()
        self.handler = handler
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self.address: tuple[str, int] | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        if self._thread is not None:
            assert self.address is not None
            return self.address
        ready = threading.Event()
        bound: list = []
        self._thread = threading.Thread(
            target=serve,
            args=(self.handler, self._host, self._port),
            kwargs={"ready": ready, "bound": bound},
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError(f"{self.handler.name} thread failed to start")
        self.address = (bound[0], bound[1])
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown over the wire and join the thread."""
        if self._thread is None:
            return
        from repro.service.client import ServiceClient

        assert self.address is not None
        try:
            ServiceClient(*self.address).shutdown()
        except OSError:
            pass  # already gone
        self._thread.join(timeout)
        self._thread = None
        self.address = None

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

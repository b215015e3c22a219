"""Shared plumbing: statistics, server processes, the closed loop, the report."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: latency percentiles reported end to end, as (metric suffix, quantile)
PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

#: a percentile is backed by the data when this many samples lie beyond it
MIN_BEYOND = 10

#: client socket timeout; a request that takes longer counts as failed
CLIENT_TIMEOUT = 60.0

#: client connections of the service workloads (sized for a 2-core host)
CONNECTIONS = 2

#: setups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: windows of equal request counts the closed loop is cut into; each
#: end-to-end rate and latency of a service workload is the median of its
#: per-window values, so a few seconds in which other processes on the
#: host slow everything down do not move it
WINDOWS = 8


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentiles(values: list[float]) -> dict[str, float]:
    """p50/p90/p99 of *values* by inclusive linear interpolation."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {name: only for name, _ in PERCENTILES}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {name: cuts[round(q * 100) - 1] for name, q in PERCENTILES}


def samples_beyond(q: float, count: int) -> int:
    """How many of *count* samples lie above their *q* quantile."""
    return math.floor(count * (1.0 - q) + 1e-9)


def timed(fn: Callable, *args, **kwargs) -> tuple[float, Any]:
    """``(seconds, fn(*args, **kwargs))``."""
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - started, value


def child_env() -> dict[str, str]:
    """The environment for interpreters running the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def provenance(backend: str) -> str:
    """Backend, core count, interpreter and numpy versions, git commit."""
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        commit = out or commit
    return (
        f"backend={backend} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"commit={commit}"
    )


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


def split_address(address: str) -> tuple[str, int]:
    host, port = address.rsplit(":", 1)
    return host, int(port)


class Kanon:
    """One ``kanon serve`` or ``kanon route`` subprocess on an ephemeral port."""

    def __init__(self, *args: str):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args, "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        self.address = ""

    def wait_ready(self) -> str:
        """Block until the process reports its bound ``host:port``."""
        assert self.process.stderr is not None
        for line in self.process.stderr:
            match = _LISTENING.search(line)
            if match:
                self.address = f"{match.group(1)}:{match.group(2)}"
                return self.address
        raise RuntimeError(f"{self.process.args[3:]} exited before listening")

    def reap(self, timeout: float = 30.0) -> None:
        """Wait for the process to exit; kill it on overrun."""
        try:
            self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class Fleet:
    """The server processes of one setup, started and stopped together."""

    def __init__(self) -> None:
        self.members: list[Kanon] = []
        self.front = ""

    def launch(self, *commands: tuple[str, ...]) -> list[str]:
        """Start one process per command concurrently; their addresses."""
        started = [Kanon(*command) for command in commands]
        self.members.extend(started)
        return [member.wait_ready() for member in started]

    def pids(self) -> list[int]:
        """Every live server-side process: members and their descendants."""
        return descendants([member.process.pid for member in self.members])

    def shutdown(self) -> None:
        """``shutdown`` through the front door (a router stops its shards)."""
        from repro.service import ServiceClient

        ServiceClient(
            *split_address(self.front), timeout=CLIENT_TIMEOUT, retries=0
        ).shutdown()
        for member in self.members:
            member.reap()
        self.members = []

    def kill(self) -> None:
        """Kill whatever is still running (error path)."""
        for pid in self.pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for member in self.members:
            member.reap()
        self.members = []


def descendants(roots: list[int]) -> list[int]:
    """*roots* and every process below them, from ``/proc/<pid>/stat``."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while scanning
        # the command name may hold spaces: fields resume after ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, frontier = list(roots), list(roots)
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


#: ``prctl`` option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of every descendant that outlives its parent.

    A server's pool workers and its multiprocessing resource tracker
    are orphaned when the server exits and end a moment later; as their
    subreaper this process can wait for them in :func:`reap_all`.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_all(timeout: float = 30.0) -> None:
    """Wait until every child has ended; kill those left at *timeout*.

    Stops this process's own resource tracker first (it would otherwise
    live until the interpreter exits).
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)
    for pid in descendants([os.getpid()])[1:]:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def vmhwm_mb(pids: list[int]) -> float:
    """Summed peak resident memory (``VmHWM``) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


@dataclass
class Record:
    """One request as the client saw it."""

    op: Any
    payload: dict
    #: ``perf_counter()`` at send time
    started: float
    latency: float
    response: dict | None
    #: why the request failed, or None
    error: str | None = None

    @property
    def cache(self) -> str | None:
        """The response's cache disposition (hit, miss, coalesced, ...)."""
        return self.response.get("cache") if self.response else None


def send(client, op: Any, payload: dict, records: list[Record]) -> dict | None:
    """One timed request; the response when it succeeded, else None."""
    started = time.perf_counter()
    try:
        response = client.request(payload)
    except OSError as exc:  # timeouts and broken connections
        response, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None if response.get("ok") else (
            f"{response.get('code')}: {response.get('error')}"
        )
    records.append(Record(
        op, payload, started, time.perf_counter() - started, response, error,
    ))
    return response if error is None else None


@dataclass
class LoopResult:
    records: list[Record]
    #: ``perf_counter()`` when the loop started
    started: float
    #: wall seconds from the first send until every connection stopped
    elapsed: float
    #: summed per-connection seconds (the root of the layer tree)
    connection_seconds: float
    #: connections that ran out of operations before the deadline
    exhausted: int
    #: the probe's reading, or None when too few requests were sent
    probed: float | None


def closed_loop(
    address: str,
    streams: list[list],
    seconds: float,
    execute: Callable[[Any, Any, threading.Barrier, list[Record]], bool],
    probe: Callable[[], float] | None = None,
    probe_after: int = 0,
) -> LoopResult:
    """Drive one connection per stream for *seconds*; a closed loop.

    Each connection sends its next operation only after the previous
    one was answered.  ``execute(client, op, barrier, records)`` runs one
    operation (the barrier lines both connections up for simultaneous
    sends) and returns False to stop its connection.  *probe* is read
    once, when *probe_after* requests have been answered: a reading
    taken after a fixed amount of work does not grow with throughput.
    """
    from repro.service import ServiceClient

    barrier = threading.Barrier(len(streams))
    records: list[list[Record]] = [[] for _ in streams]
    busy = [0.0] * len(streams)
    exhausted = [False] * len(streams)
    errors: list[Exception] = []
    probed: list[float] = []
    probe_lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def maybe_probe() -> None:
        with probe_lock:
            if not probed and sum(map(len, records)) >= probe_after:
                probed.append(probe())

    def drive(index: int) -> None:
        try:
            with ServiceClient(
                *split_address(address), timeout=CLIENT_TIMEOUT, retries=0
            ) as client:
                for op in streams[index]:
                    if time.perf_counter() >= deadline:
                        break
                    if not execute(client, op, barrier, records[index]):
                        break
                    if probe is not None and not probed:
                        maybe_probe()
                else:
                    exhausted[index] = True
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
        finally:
            barrier.abort()  # a partner waiting for a paired send stops too
            busy[index] = time.perf_counter() - started

    threads = [
        threading.Thread(target=drive, args=(index,))
        for index in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return LoopResult(
        records=sorted(
            (record for chunk in records for record in chunk),
            key=lambda record: record.started,
        ),
        started=started,
        elapsed=time.perf_counter() - started,
        connection_seconds=sum(busy),
        exhausted=sum(exhausted),
        probed=probed[0] if probed else None,
    )


def window_medians(
    loop: LoopResult,
    ok: Callable[[Record], bool],
    rows: Callable[[Record], int],
) -> dict[str, float]:
    """Rates and latency percentiles per window, each the median over windows.

    The records, in send order, are cut into :data:`WINDOWS` runs of
    equal length; a window lasts from its first send to the next
    window's (the last one: to the end of the loop).  *ok* tells a
    completed request and *rows* the input rows it anonymized.
    """
    records = loop.records
    bounds = [len(records) * index // WINDOWS for index in range(WINDOWS + 1)]
    ends = [records[at].started for at in bounds[1:-1]]
    ends.append(loop.started + loop.elapsed)
    windows = []
    for first, last, end in zip(bounds, bounds[1:], ends):
        span = records[first:last]
        seconds = end - span[0].started
        done = [record for record in span if ok(record)]
        cuts = percentiles([record.latency * 1e3 for record in span])
        windows.append({
            "solve_rows_per_s": sum(map(rows, done)) / seconds,
            "requests_per_s": len(done) / seconds,
            **{f"latency_ms.{name}": cuts[name] for name, _ in PERCENTILES},
        })
    return {name: median(window[name] for window in windows)
            for name in windows[0]}


def run_concurrently(fn: Callable, chunks: list) -> list:
    """``[fn(chunk) for chunk in chunks]``, one thread per chunk."""
    results: list = [None] * len(chunks)
    errors: list[Exception] = []

    def work(index: int) -> None:
        try:
            results[index] = fn(chunks[index])
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(index,))
        for index in range(len(chunks))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


@dataclass
class Layer:
    """One node of a workload's layer tree; times in seconds."""

    name: str
    calls: int
    total: float
    children: list["Layer"] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return self.total - sum(child.total for child in self.children)

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def layer_report(root: Layer) -> list[str]:
    """Calls, total, self time and share of *root*'s total, per layer."""
    lines = [
        f"    {'layer':<40} {'calls':>7} {'total_ms':>12} "
        f"{'self_ms':>12} {'share':>7}"
    ]
    for depth, node in root.walk():
        name = "  " * depth + (node.name if depth else f"{node.name} (end to end)")
        share = node.self_time / root.total if root.total > 0 else 0.0
        lines.append(
            f"    {name:<40} {node.calls:>7} {node.total * 1e3:>12.2f} "
            f"{node.self_time * 1e3:>12.2f} {share:>7.1%}"
        )
    named = [node for depth, node in root.walk() if depth]
    if named:
        top = max(named, key=lambda node: node.self_time)
        lines.append(
            f"    no layer accounts for {root.self_time * 1e3:.2f} ms "
            f"({root.self_time / root.total:.1%}); largest self time: "
            f"{top.name} ({top.self_time / root.total:.1%})"
            if root.total > 0 else "    (empty run)"
        )
    return lines


@dataclass
class Result:
    """What one workload run measured."""

    attempted: int
    failed: int
    correct: bool
    #: metric name -> (value, unit)
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    #: the human-readable report printed before the JSON line
    lines: list[str]


def format_metric(name: str, value: float, unit: str, note: str = "") -> str:
    return f"    {name:<36} {value:>12.6g} {unit:<7} {note}".rstrip()


def latency_lines(latencies: list[float], label: str,
                  prefix: str = "latency_ms") -> list[str]:
    """The latency percentiles, each with the samples backing it."""
    count = len(latencies)
    cuts = percentiles([value * 1e3 for value in latencies])
    lines = []
    for name, q in PERCENTILES:
        beyond = samples_beyond(q, count)
        note = f"n={count} {label}, {beyond} beyond"
        if beyond < MIN_BEYOND:
            note += f" (fewer than {MIN_BEYOND}: not backed by the data)"
        lines.append(format_metric(f"{prefix}.{name}", cuts[name], "ms", note))
    return lines


def window_lines(windowed: dict[str, float], rows_note: str,
                 requests_note: str) -> list[str]:
    """The :func:`window_medians` metrics that end-to-end reports carry."""
    note = f"median of {WINDOWS} windows"
    return [
        format_metric("solve_rows_per_s", windowed["solve_rows_per_s"],
                      "rows/s", f"{note}; {rows_note} in the run"),
        format_metric("requests_per_s", windowed["requests_per_s"], "1/s",
                      f"{note}; {requests_note} in the run"),
        *(format_metric(f"latency_ms.{name}", windowed[f"latency_ms.{name}"],
                        "ms", note)
          for name in ("p50", "p90")),
    ]


def emit(result: Result, trace: bool) -> None:
    """The final stdout line: one JSON object (the driver's contract)."""
    metrics = result.per_layer if trace else result.end_to_end
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))

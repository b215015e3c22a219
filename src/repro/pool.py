"""Spawn-context worker processes, one task pipe and one result pipe each.

:class:`WorkerPool` is the one process pool of the codebase.  The
experiment runners (:mod:`repro.experiments`) fan trials out through
:func:`run_tasks`, which polls the pool's pipes from a selector; the
anonymization service (:mod:`repro.service.server`) drives the same
pool from its event loop, writing each cache miss to an idle worker as
soon as one is free.  Frames on both pipes are a length header and a
pickle; the owner's ends are non-blocking, so neither driver ever
blocks on a worker.
"""

from __future__ import annotations

import asyncio
import functools
import os
import pickle
import selectors
import struct
import threading
from collections import deque
from multiprocessing import get_context
from typing import Any, Callable


def _worker_init(backend_default: str | None) -> None:
    """Per-worker initialization under the spawn start method.

    The parent's ``REPRO_BACKEND`` choice is re-exported explicitly so
    the worker's lazily-resolved default backend matches the parent's
    even if the environment diverged between spawn and first use.
    """
    if backend_default:
        os.environ["REPRO_BACKEND"] = backend_default


#: ``done(ok, value)``: a task's result (``ok``) or the exception it hit
DoneCallback = Callable[[bool, Any], None]

#: every frame on a worker pipe is this length header, then a pickle
_HEADER = struct.Struct("!Q")

#: most bytes the owner reads from a result pipe per readiness event
_READ_CHUNK = 1 << 16


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload)) + payload


def _read_exactly(fd: int, size: int) -> bytes | None:
    """*size* bytes from a blocking pipe; ``None`` at end of file."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _worker_main(tasks, results, backend_default: str | None) -> None:
    """A pool worker process: run ``(fn, task)`` frames until EOF.

    Its first frame is empty and says the worker has booted; after that
    it writes one ``(ok, value)`` frame per task, *value* being the
    result or the exception the task raised.
    """
    _worker_init(backend_default)
    source, sink = tasks.fileno(), results.fileno()
    try:
        _write_all(sink, _frame(b""))
        while True:
            header = _read_exactly(source, _HEADER.size)
            payload = header and _read_exactly(
                source, _HEADER.unpack(header)[0]
            )
            if payload is None:
                return  # the owner closed the pool
            try:
                fn, task = pickle.loads(payload)
                outcome = (True, fn(task))
            except Exception as exc:  # noqa: BLE001 - sent to the owner
                outcome = (False, exc)
            try:
                reply = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 - unpicklable value
                reply = pickle.dumps(
                    (False, RuntimeError(f"unpicklable task value: {exc!r}"))
                )
            _write_all(sink, _frame(reply))
    except (BrokenPipeError, KeyboardInterrupt):
        pass  # the owner went away mid-task


class _Worker:
    """One spawn-context worker process and the owner's ends of its two
    pipes: ``tasks`` to write to and ``results`` to read from, both
    non-blocking."""

    def __init__(self, backend_default: str | None):
        context = get_context("spawn")
        task_reader, self.tasks = context.Pipe(duplex=False)
        self.results, result_writer = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main,
            args=(task_reader, result_writer, backend_default),
            daemon=True,
        )
        self.process.start()
        task_reader.close()
        result_writer.close()
        os.set_blocking(self.tasks.fileno(), False)
        os.set_blocking(self.results.fileno(), False)
        self.ready = False  # its empty first frame has arrived
        self.done: DoneCallback | None = None  # the task in flight
        self.written = 0  # tasks written to it
        self.unsent = memoryview(b"")  # the rest of a partly written frame
        self.received = bytearray()  # result bytes short of a whole frame

    @property
    def idle(self) -> bool:
        return self.ready and self.done is None


class _Selector:
    """The event loop's reader and writer calls over a selector, which
    :meth:`WorkerPool.run` polls when no event loop drives the pool."""

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()

    def add_reader(self, fd: int, callback: Callable, *args: Any) -> None:
        self._selector.register(fd, selectors.EVENT_READ, (callback, args))

    def add_writer(self, fd: int, callback: Callable, *args: Any) -> None:
        self._selector.register(fd, selectors.EVENT_WRITE, (callback, args))

    def remove_reader(self, fd: int) -> None:
        try:
            self._selector.unregister(fd)
        except KeyError:
            pass

    remove_writer = remove_reader  # a pipe end is read or written, never both

    def poll(self) -> None:
        """Wait for readiness and run the callbacks of the ready ends."""
        for key, _ in self._selector.select():
            # an earlier callback of this round may have dropped the end
            if self._selector.get_map().get(key.fd) is key:
                callback, args = key.data
                callback(*args)

    def close(self) -> None:
        self._selector.close()


class WorkerCrashError(RuntimeError):
    """A pool worker process died (hard exit, kill, segfault).

    The task it was running fails with this error; its slot in the pool
    is refilled with a fresh worker for the next task.
    """


class WorkerPool:
    """Spawn-context worker processes, each with a task and a result pipe.

    Each worker reads length-prefixed ``(fn, task)`` pickles from its
    task pipe and writes ``(ok, value)`` pickles to its result pipe, one
    task at a time.  The owner's ends of both pipes are non-blocking and
    one driver watches them: the running event loop (:meth:`ready`,
    :meth:`submit`, :attr:`on_idle`, used by the anonymization service)
    or a selector that :meth:`run` polls (used by :func:`run_tasks`).
    A task waits with its owner until a worker is idle, never inside a
    worker.  The pool keeps its workers across calls:

    * **reuse** — workers spawn lazily, when a task first needs one, and
      stay warm for the next;
    * **recycling** — with ``max_tasks_per_child=N`` a worker that has
      run ``N`` tasks is retired the next time the pool looks for an
      idle worker (:meth:`ready`, or :meth:`run` with a task to write),
      and its slot is refilled with a fresh one;
    * **crash recovery** — a worker dying (end of file on its result
      pipe) fails only the task it was running, with
      :class:`WorkerCrashError`; :meth:`ready` or the next :meth:`run`
      refills its slot.

    One driver at a time: a :meth:`run` call and an event loop must not
    use the pool concurrently.  Moving to another driver (a new event
    loop, or :meth:`run` after the loop) terminates the busy workers,
    whose callers wait on the old one.
    """

    def __init__(self, jobs: int, *, max_tasks_per_child: int | None = None):
        if jobs < 1:
            raise ValueError("jobs must be a positive integer")
        if max_tasks_per_child is not None and max_tasks_per_child < 1:
            raise ValueError("max_tasks_per_child must be a positive integer")
        self.jobs = jobs
        self.max_tasks_per_child = max_tasks_per_child
        #: one slot per worker, ``None`` while empty; a new tuple on
        #: every spawn, retirement or loss
        self._workers: tuple[_Worker | None, ...] = (None,) * jobs
        self._retired: list = []  # processes not yet reaped
        self._driver: Any = None  # the event loop or _Selector watching
        self._selector: _Selector | None = None
        self._lock = threading.Lock()
        #: called on the driver whenever a worker turns idle or is lost
        self.on_idle: Callable[[], None] | None = None
        self.batches = 0  # run() calls and submits
        self.tasks = 0
        self.rebuilds = 0  # workers lost (crashed or killed)
        self.recycled = 0  # workers retired after max_tasks_per_child

    # -- the workers ---------------------------------------------------

    def _live(self) -> list[_Worker]:
        return [worker for worker in self._workers if worker is not None]

    def _bind(self, driver: Any) -> None:
        """Watch the workers' result pipes from *driver*."""
        if driver is self._driver:
            return
        old, self._driver = self._driver, driver
        for worker in self._live():
            if old is not None:
                old.remove_reader(worker.results.fileno())
                old.remove_writer(worker.tasks.fileno())
            if worker.done is not None:
                self._drop(worker, kill=True)  # its caller waits on *old*
            else:
                driver.add_reader(
                    worker.results.fileno(), self._on_readable, worker
                )

    def _fill(self) -> None:
        """Spawn a worker into every empty slot."""
        if None not in self._workers:
            return
        backend = os.environ.get("REPRO_BACKEND") or None
        workers = list(self._workers)
        for slot, worker in enumerate(workers):
            if worker is None:
                workers[slot] = worker = _Worker(backend)
                self._driver.add_reader(
                    worker.results.fileno(), self._on_readable, worker
                )
        self._workers = tuple(workers)

    def _drop(self, worker: _Worker, *, kill: bool) -> None:
        """Empty *worker*'s slot and close its pipes; an idle worker then
        exits by itself, a busy one is terminated if *kill*."""
        if self._driver is not None:
            self._driver.remove_reader(worker.results.fileno())
            self._driver.remove_writer(worker.tasks.fileno())
        worker.tasks.close()
        worker.results.close()
        if kill:
            worker.process.terminate()
        self._workers = tuple(
            None if slot is worker else slot for slot in self._workers
        )
        self._retired.append(worker.process)
        self._retired = [p for p in self._retired if not _reaped(p, 0.0)]

    def _idle(self) -> _Worker | None:
        """An idle worker, after retiring every idle one that reached
        ``max_tasks_per_child``."""
        found = None
        for worker in self._workers:
            if worker is None or not worker.idle:
                continue
            if (
                self.max_tasks_per_child is not None
                and worker.written >= self.max_tasks_per_child
            ):
                self._drop(worker, kill=False)
                self.recycled += 1
            elif found is None:
                found = worker
        return found

    def _send(
        self, worker: _Worker, fn: Callable, task: Any, done: DoneCallback
    ) -> None:
        data = _frame(pickle.dumps((fn, task), pickle.HIGHEST_PROTOCOL))
        worker.done = done
        worker.written += 1
        self.tasks += 1
        try:
            sent = os.write(worker.tasks.fileno(), data)
        except BlockingIOError:
            sent = 0
        except BrokenPipeError:
            return  # the worker is gone: its result pipe reports it
        if sent < len(data):
            worker.unsent = memoryview(data)[sent:]
            self._driver.add_writer(
                worker.tasks.fileno(), self._on_writable, worker
            )

    def _on_writable(self, worker: _Worker) -> None:
        try:
            sent = os.write(worker.tasks.fileno(), worker.unsent)
        except BlockingIOError:
            return
        except BrokenPipeError:
            sent = len(worker.unsent)  # its result pipe reports the loss
        worker.unsent = worker.unsent[sent:]
        if not worker.unsent:
            self._driver.remove_writer(worker.tasks.fileno())

    def _on_readable(self, worker: _Worker) -> None:
        try:
            chunk = os.read(worker.results.fileno(), _READ_CHUNK)
        except BlockingIOError:
            return
        if not chunk:
            self._lost(worker)
            return
        received = worker.received
        received += chunk
        while len(received) >= _HEADER.size:
            end = _HEADER.size + _HEADER.unpack_from(received)[0]
            if len(received) < end:
                return
            payload = received[_HEADER.size:end]
            del received[:end]
            self._deliver(worker, payload)
            if worker.results.closed:
                return  # retired by the callback

    def _deliver(self, worker: _Worker, payload: bytearray) -> None:
        if not worker.ready:
            worker.ready = True  # the boot frame
        else:
            done, worker.done = worker.done, None
            try:
                ok, value = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - an unloadable value
                ok, value = False, exc
            if done is not None:
                done(ok, value)
        if self.on_idle is not None:
            self.on_idle()

    def _lost(self, worker: _Worker) -> None:
        """End of file on a result pipe: the worker died."""
        done = worker.done
        self._drop(worker, kill=False)
        self.rebuilds += 1
        if done is not None:
            done(False, WorkerCrashError(
                f"worker process {worker.process.pid} died mid-task; "
                "a fresh worker takes its slot for the next task"
            ))
        if self.on_idle is not None:
            self.on_idle()

    # -- the event-loop driver -----------------------------------------

    def ready(self) -> bool:
        """Whether a worker can take a task now, from the running loop.

        Watches the workers from the running event loop and spawns a
        worker into every empty slot, so after a ``False``
        :attr:`on_idle` is called once one is free.
        """
        self._bind(asyncio.get_running_loop())
        worker = self._idle()
        self._fill()
        return worker is not None

    def submit(self, fn: Callable[[Any], Any], task: Any,
               done: DoneCallback) -> None:
        """Write ``fn(task)`` to an idle worker (:meth:`ready` said one
        is); ``done(ok, value)`` is called on the loop with its result
        or its exception."""
        worker = self._idle()
        if worker is None:
            raise RuntimeError("no idle worker: submit after ready()")
        self.batches += 1
        self._send(worker, fn, task, done)

    # -- the synchronous driver ----------------------------------------

    def run(self, fn: Callable[[Any], Any], tasks: list) -> list:
        """``[fn(t) for t in tasks]`` on the pool's workers, in task order.

        Same contract as :func:`run_tasks`' pooled path: the first
        exception a task raises is re-raised at once, with no further
        task written (tasks still running finish and their results are
        dropped).  A worker lost during the call raises
        :class:`WorkerCrashError`; the pool stays usable.
        """
        if not tasks:
            return []
        results: list = [None] * len(tasks)
        queued = deque(range(len(tasks)))
        failures: list[BaseException] = []
        left = len(tasks)

        def finish(index: int, ok: bool, value: Any) -> None:
            nonlocal left
            if failures:
                return  # the call has failed; late results are dropped
            if not ok:
                failures.append(value)
                return
            results[index] = value
            left -= 1

        with self._lock:
            if self._selector is None:
                self._selector = _Selector()
            self._bind(self._selector)
            self.batches += 1
            while left and not failures:
                while queued and (worker := self._idle()) is not None:
                    index = queued.popleft()
                    self._send(worker, fn, tasks[index],
                               functools.partial(finish, index))
                self._fill()
                lost = self.rebuilds
                self._selector.poll()
                if self.rebuilds != lost and not failures:
                    failures.append(WorkerCrashError(
                        "a worker process died before it took a task"
                    ))
        if failures:
            raise failures[0]
        return results

    # -- lifecycle and introspection -----------------------------------

    def close(self) -> None:
        """Shut the workers down (idempotent; the pool can respawn).

        Idle workers exit when their task pipes close; busy ones are
        terminated and their tasks fail with ``RuntimeError``.
        """
        with self._lock:
            busy = [w.done for w in self._live() if w.done is not None]
            for worker in self._live():
                self._drop(worker, kill=worker.done is not None)
            for process in self._retired:
                if not _reaped(process, 5.0):
                    process.terminate()
                    process.join()
            self._retired = []
            if self._selector is not None:
                if self._driver is self._selector:
                    self._driver = None
                self._selector.close()
                self._selector = None
        for done in busy:
            done(False, RuntimeError("the worker pool was closed"))

    @property
    def alive(self) -> bool:
        """True iff any worker process is warm (or booting)."""
        return any(worker is not None for worker in self._workers)

    @property
    def _executor(self) -> tuple[_Worker | None, ...]:
        """The current workers as one object, the same until a worker
        is spawned, retired or lost."""
        return self._workers

    def stats(self) -> dict[str, Any]:
        """JSON-ready counters (surfaced by the service's ``stats`` op)."""
        return {
            "mode": "persistent",
            "workers": self.jobs,
            "alive": self.alive,
            "batches": self.batches,
            "tasks": self.tasks,
            "rebuilds": self.rebuilds,
            "recycled": self.recycled,
            "max_tasks_per_child": self.max_tasks_per_child,
        }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "warm" if self.alive else "cold"
        return (
            f"WorkerPool(jobs={self.jobs}, {state}, "
            f"batches={self.batches}, rebuilds={self.rebuilds})"
        )


def _reaped(process, timeout: float) -> bool:
    """Join *process* for up to *timeout* seconds; whether it ended."""
    process.join(timeout)
    return process.exitcode is not None


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: list,
    jobs: int = 1,
    *,
    pool: WorkerPool | None = None,
) -> list:
    """Run ``[fn(t) for t in tasks]``, optionally on a process pool.

    ``jobs=1`` (or a single task) executes inline; otherwise a
    throwaway :class:`WorkerPool`, spawned for this call and shut down
    when it returns, fans the tasks out (*fn* and every task must be
    picklable).  Results always come back in task order.  The first
    worker exception stops the dispatch, shuts the pool down
    (terminating tasks still running) and re-raises in the caller — a
    :class:`~repro.instrument.BudgetExceededError` in one trial surfaces
    exactly like it would serially, without orphaning worker processes.

    Passing a :class:`WorkerPool` as ``pool=`` dispatches onto that
    pool's warm workers instead —
    *every* task then runs out of process (even a batch of one: the
    isolation is part of the point), ``jobs`` is ignored in favour of
    the pool's worker count, and a crashed worker raises
    :class:`WorkerCrashError` while leaving the pool reusable.

    This is the one fan-out primitive of the experiment runners; the
    anonymization service (:mod:`repro.service.server`) does not call
    it, but drives a :class:`WorkerPool` from its event loop.
    """
    if pool is not None:
        return pool.run(fn, tasks)
    if jobs < 1:
        raise ValueError("jobs must be a positive integer")
    if jobs == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with WorkerPool(min(jobs, len(tasks))) as pool:
        return pool.run(fn, tasks)

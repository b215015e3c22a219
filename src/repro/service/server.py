"""The anonymization service: the asyncio front door for solvers.

Architecture (stdlib only — JSON lines over TCP):

* :class:`AnonymizationService` is the transport-free core.  It
  validates requests, resolves algorithms through the capability
  registry, enforces per-request :class:`~repro.instrument.TimeBudget`
  admission control, consults the two-tier
  :class:`~repro.service.cache.SolutionCache`, coalesces identical
  in-flight instances, and has the event loop hand each cache miss to
  an idle solver as soon as one is free: a worker of a
  :class:`repro.pool.WorkerPool` with ``jobs > 1``, or with ``jobs=1``
  one in-process solve slot that runs the solve on a thread.
* :func:`admit` is the one request → solver → key path: it validates
  and keys a request from its own fields, so the shard router
  (:mod:`repro.service.router`) places every request exactly where
  this core caches it.
* The TCP front end (:mod:`repro.service.wire`) serves the core as
  newline-delimited JSON.
* :class:`~repro.service.client.ServiceClient` (and the ``kanon
  submit`` CLI verb) is the matching caller.

Request objects
---------------

``{"op": "anonymize", "csv": "...", "k": 3}`` plus optional
``algorithm`` (name or alias, default ``center_cover``), ``header``
(default true), ``timeout`` (seconds), ``use_cache`` (default true) and
``trace``.  Tables travel as CSV text — the same representation the CLI
reads and writes, with ``*`` marking suppressed cells.  ``algorithm:
"auto"`` resolves through :mod:`repro.planner` at admission, planning
against the request's own ``timeout`` (or the planner's soft cap) and
never against a server's ``max_timeout``: the job is keyed and cached
under the *resolved* algorithm (so auto and explicit requests share
cache entries) and the response carries the
:class:`~repro.planner.PlanDecision` under ``plan`` with ``algorithm``
naming the solver that ran.

``{"op": "delta", "state_key": "...", "csv": "..."}`` (a protocol v2
extension) appends rows to a previously-solved **incremental** stream:
the server restores the stored
:class:`~repro.algorithms.incremental.IncrementalState` snapshot, feeds
only the delta through the streaming engine, and returns the grown
release — untouched groups keep their frozen images byte-identical,
and a fresh ``state_key`` on the response continues the chain.  A
plain ``anonymize`` with ``algorithm: "incremental"`` starts a chain:
its response carries the first ``state_key``.

An ``anonymize`` request may carry an optional **privacy block**:
``{"privacy": {"sensitive": 2, "l": 2, "t": 0.3, "epsilon": 1.0}}`` —
``sensitive`` is the sensitive column's index (default: the last
column when ``l``/``t`` is present), ``l`` asks for distinct
l-diversity, ``t`` for t-closeness (mutually exclusive), and
``epsilon`` additionally releases an ε-DP noisy equivalence-class
histogram under the response's ``dp`` key.  The block is normalized at
admission (:func:`normalize_privacy`) and threaded into
:func:`~repro.artifacts.instance_key`, so cached entries never cross
privacy configurations — and the DP noise is seeded by the instance
key, so a cache hit re-releases byte-identical noise (which is why
hits spend no extra ε).  Fresh ε-releases are charged against the
service-wide :class:`~repro.privacy.dp.PrivacyAccountant` (per-dataset
sequential composition, ``privacy_budget`` constructor knob / ``kanon
serve --privacy-budget``); an exhausted dataset is rejected with code
``privacy-budget-exhausted``.

``{"op": "stats"}`` returns cache / batch / pool / trace counters plus
the privacy accountant's ledger; ``{"op": "ping"}`` health-checks;
``{"op": "shutdown"}`` stops the server after responding.

Responses carry ``ok`` plus either the solution (``csv``, ``stars``,
``algorithm``, ``k``, ``cache`` ∈ {``hit``, ``coalesced``, ``miss``,
``bypass``}, and — for privacy requests — ``privacy`` and optionally
``dp``) or ``error`` and a machine-readable ``code``
(``bad-request``, ``unknown-algorithm``, ``unknown-state``,
``budget-exceeded``, ``infeasible``, ``privacy-budget-exhausted``,
``internal``).

Protocol v2 (requests without these fields behave exactly like v1):

* **request correlation** — a request may carry an ``id`` (any JSON
  value); every response to it, success or error, echoes that ``id``
  verbatim.  A client whose socket timed out mid-request can therefore
  discard the late response by its stale ``id`` instead of permanently
  desyncing request/response pairing on the connection.
* **fault injection** — when (and only when) the service was started
  with it enabled, a request may carry a ``fault`` field
  (``kill-worker``, ``delay:SECONDS``, ``drop-connection``) that makes
  the server misbehave on purpose; see :class:`AnonymizationService`.

Caching semantics: results that hit their deadline
(``extras["deadline_hit"]``) are returned but **never cached** — a
budget-truncated release reflects that request's budget, not the
instance.  Budgets are armed at admission, so time spent queued counts
against the request and an already-expired job is rejected instead of
dispatched.

Worker-pool semantics: with ``jobs > 1`` the service owns a persistent
:class:`repro.pool.WorkerPool` (spawn once, solve many) and
drives its pipes from the event loop, recycling each worker after
``max_tasks_per_child``-many tasks and surviving worker crashes — a
killed worker fails only its own job (code ``internal``) and its slot
is refilled for the next one.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import registry
from repro.algorithms.base import InfeasibleAnonymizationError
from repro.algorithms.incremental import (
    IncrementalAnonymizer,
    IncrementalState,
)
from repro.artifacts import _key_from_hash, table_hash
from repro.core.backend import default_backend_name
from repro.core.table import Table
from repro.instrument import BudgetExceededError, TimeBudget, summarize_traces
from repro.planner import InstanceFeatures, plan_features, sigma_of
from repro.pool import DoneCallback, WorkerPool
from repro.privacy.dp import BudgetExhaustedError, PrivacyAccountant
from repro.service.cache import SolutionCache, is_cache_key
from repro.service.wire import _error

#: default TCP port (chosen as an unassigned registered port)
DEFAULT_PORT = 7683

#: protocol revision, reported by ``ping`` and ``stats``.  v2 adds
#: request-``id`` echoing (and, opt-in, fault injection); v1 requests
#: — no ``id`` field — are served unchanged.
PROTOCOL_VERSION = 2

#: environment switch for fault injection (constructor overrides)
FAULTS_ENV = "REPRO_SERVICE_FAULTS"

_TRUTHY = ("1", "true", "yes", "on")


class ServiceError(Exception):
    """A request the service rejected, carrying a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# The solver task (runs in pool workers — must stay picklable)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SolveTask:
    #: the request's CSV, or ``None`` when ``table`` carries its rows
    csv: str | None
    header: bool
    k: int
    algorithm: str
    backend: str
    timeout: float | None
    trace: bool
    #: fault-injection marker (only ever set when the service was
    #: started with fault injection enabled)
    fault: str | None = None
    #: normalized privacy block as a sorted ``(field, value)`` tuple —
    #: tuple, not dict, so the frozen task stays hashable and picklable
    privacy: tuple | None = None
    #: deterministic DP noise seed, derived from the instance key so a
    #: re-solve of the same keyed instance re-releases the same noise
    dp_seed: int | None = None
    #: a ``delta`` task: the stored snapshot that ``csv`` extends, as
    #: admission already decoded it (tuples of cells, so the task stays
    #: picklable).  Delta solves run to completion — ``timeout`` governs
    #: queueing and coalescing, not the engine (not an anytime solver).
    state: IncrementalState | None = None
    #: the table admission already parsed, on the inline path only (then
    #: ``csv`` is ``None``), so the solve never parses the request a
    #: second time; a task for a worker process carries the text, which
    #: is cheaper to pickle
    table: Table | None = None
    #: export the continuation snapshot of an incremental or delta
    #: solve; off when no sharer of the job will store it (a request
    #: that bypasses the cache)
    keep_state: bool = True

    def parsed(self) -> Table:
        """The task's table, parsed here only if admission did not."""
        if self.table is not None:
            return self.table
        assert self.csv is not None
        return Table.from_csv(self.csv, header=self.header)


def _kill_worker() -> None:
    if multiprocessing.parent_process() is not None:
        # a real pool worker: die the hard way, mid-task, so the
        # owner sees end of file on its result pipe (chaos testing)
        os._exit(1)  # pragma: no cover - runs in a spawned worker
    # inline mode has no worker to kill; fail like a crash would
    raise RuntimeError("fault injection: kill-worker")


def _yield_to_the_server() -> None:
    """Run this pool worker at idle CPU priority (Linux ``SCHED_IDLE``).

    A solve then never holds a core that the server's event loop, which
    answers a cache hit in a fraction of a millisecond, is waiting for.
    Where the policy does not exist or is refused, nothing changes.
    """
    if hasattr(os, "SCHED_IDLE"):
        try:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        except OSError:
            pass


def _solve_task(task: _SolveTask) -> dict[str, Any]:
    """Solve one dispatched task; always returns a JSON-ready dict.

    Errors come back as ``{"error": ..., "code": ...}`` records instead
    of raising, so every sharer of the solve gets the error's own code
    (``budget-exceeded``, ``infeasible``, ...); an exception that does
    escape is answered ``internal``.  In a pool worker the solve yields
    the CPU to the server first (:func:`_yield_to_the_server`).
    """
    if multiprocessing.parent_process() is not None:
        _yield_to_the_server()
    if task.state is not None:
        return _solve_delta(task)
    return _solve_instance(task)


def _solve_with_privacy(
    table: Table, algorithm, task: _SolveTask
) -> tuple[Any, dict[str, Any] | None]:
    """Run one privacy-wrapped solve; returns (result, dp-histogram).

    The sensitive column (when configured) is split off before the
    solve and reattached untouched afterwards, so the release keeps the
    request's full schema.  The ε-DP histogram is computed over the
    released quasi-identifier columns only — the sensitive column never
    enters the counts.
    """
    from repro.privacy.dp import noisy_class_histogram
    from repro.privacy.ldiversity import LDiverseAnonymizer
    from repro.privacy.sensitive import (
        reattach_sensitive, replace_release, split_sensitive,
    )
    from repro.privacy.tcloseness import TCloseAnonymizer

    privacy = dict(task.privacy or ())
    sensitive = privacy.get("sensitive")
    if sensitive is not None:
        identifiers, values, index = split_sensitive(table, sensitive)
        if "l" in privacy:
            wrapper: Any = LDiverseAnonymizer(privacy["l"], inner=algorithm)
        elif "t" in privacy:
            wrapper = TCloseAnonymizer(privacy["t"], inner=algorithm)
        else:
            wrapper = None
        if wrapper is not None:
            result = wrapper.anonymize_with_sensitive(
                identifiers, task.k, values, backend=task.backend,
                timeout=task.timeout, trace=task.trace,
            )
        else:
            result = algorithm.anonymize(
                identifiers, task.k, backend=task.backend,
                timeout=task.timeout, trace=task.trace,
            )
        qi_release = result.anonymized
        result = replace_release(
            result,
            reattach_sensitive(qi_release, values, index, table.attributes),
        )
    else:
        result = algorithm.anonymize(
            table, task.k, backend=task.backend, timeout=task.timeout,
            trace=task.trace,
        )
        qi_release = result.anonymized
    dp = None
    if "epsilon" in privacy:
        dp = noisy_class_histogram(
            qi_release, privacy["epsilon"], seed=task.dp_seed
        )
    return result, dp


def _solve_instance(task: _SolveTask) -> dict[str, Any]:
    """Solve one full instance from scratch."""
    started = time.perf_counter()
    dp = None
    try:
        if task.fault == "kill-worker":
            _kill_worker()
        table = task.parsed()
        algorithm = registry.create(task.algorithm)
        if task.algorithm == "incremental":
            # export the pre-finalize snapshot the ``delta`` verb continues
            algorithm.capture_state = task.keep_state
        if task.privacy is not None:
            result, dp = _solve_with_privacy(table, algorithm, task)
        else:
            result = algorithm.anonymize(
                table, task.k, backend=task.backend, timeout=task.timeout,
                trace=task.trace,
            )
    except BudgetExceededError as exc:
        return {"error": str(exc), "code": "budget-exceeded"}
    except InfeasibleAnonymizationError as exc:
        return {"error": str(exc), "code": "infeasible"}
    except ValueError as exc:
        if task.privacy is not None:
            # e.g. "only 1 distinct sensitive value; no 2-diverse
            # release exists" — an infeasible *configuration*, not a bug
            return {"error": str(exc), "code": "infeasible"}
        return {"error": f"ValueError: {exc}", "code": "internal"}
    except Exception as exc:  # noqa: BLE001 - worker boundary
        return {"error": f"{type(exc).__name__}: {exc}", "code": "internal"}
    outcome = {
        "csv": result.anonymized.to_csv(header=task.header),
        "stars": result.stars,
        "algorithm": task.algorithm,
        "k": task.k,
        "backend": task.backend,
        "deadline_hit": bool(result.extras.get("deadline_hit")),
        "solve_seconds": time.perf_counter() - started,
        "trace": result.extras.get("trace"),
        "state": result.extras.get("incremental_state"),
        "cap_exceeded": bool(result.extras.get("cap_exceeded", False)),
    }
    if task.privacy is not None:
        outcome["privacy"] = dict(task.privacy)
        if dp is not None:
            outcome["dp"] = dp
    return outcome


def _solve_delta(task: _SolveTask) -> dict[str, Any]:
    """Continue a stored stream: restore, insert the delta, finalize.

    The engine is deterministic, so restoring the pre-finalize snapshot
    of the prefix and inserting the delta is replay-equivalent to one
    cold run over all rows — which is exactly why the result may be
    cached under the *full* table's instance key.  The fresh snapshot
    (again pre-finalize) continues the chain.
    """
    started = time.perf_counter()
    try:
        if task.fault == "kill-worker":
            _kill_worker()
        state = task.state
        assert state is not None
        engine = IncrementalAnonymizer.from_state(state)
        delta_table = task.parsed()
        engine.insert(delta_table.rows)
        new_state = engine.export_state() if task.keep_state else None
        engine.finalize()
        released = engine.released()
    except ValueError as exc:
        return {"error": str(exc), "code": "bad-request"}
    except Exception as exc:  # noqa: BLE001 - worker boundary
        return {"error": f"{type(exc).__name__}: {exc}", "code": "internal"}
    # group ids are stable (the group list only ever appends), so a
    # pre-delta group is untouched iff its released image — readable
    # off any of its original members — is byte-identical to the
    # frozen image the snapshot recorded
    untouched = sum(
        1 for gid, members in enumerate(state.groups)
        if released.rows[members[0]] == state.images[gid]
    )
    return {
        "csv": released.to_csv(header=task.header),
        "stars": engine.total_stars(),
        "algorithm": "incremental",
        "k": task.k,
        "backend": task.backend,
        "deadline_hit": False,
        "solve_seconds": time.perf_counter() - started,
        "trace": None,
        "state": new_state.as_dict() if new_state is not None else None,
        "cap_exceeded": engine.cap_exceeded,
        "delta": {
            "rows_added": delta_table.n_rows,
            "rows_total": engine.n_rows,
            "groups": len(engine.groups()),
            "untouched_groups": untouched,
        },
    }


# ----------------------------------------------------------------------
# The transport-free service core
# ----------------------------------------------------------------------

#: fields a request's ``privacy`` block may carry
PRIVACY_FIELDS = ("sensitive", "l", "t", "epsilon")


def normalize_privacy(privacy: Any, degree: int) -> dict[str, Any]:
    """Validate and canonicalize a request's ``privacy`` block.

    Returns a canonical dict (``sensitive`` resolved to a non-negative
    column index, ``t``/``epsilon`` as floats) that :func:`admit` feeds
    into the instance key.  Raises :class:`ServiceError` (code
    ``bad-request``) on malformed blocks.
    """
    if not isinstance(privacy, dict):
        raise ServiceError(
            "bad-request", "'privacy' must be a JSON object"
        )
    unknown = sorted(set(privacy) - set(PRIVACY_FIELDS))
    if unknown:
        raise ServiceError(
            "bad-request",
            f"unknown privacy fields {unknown}; "
            f"expected a subset of {list(PRIVACY_FIELDS)}",
        )
    normalized: dict[str, Any] = {}
    l = privacy.get("l")  # noqa: E741 - the literature's name
    if l is not None:
        if not isinstance(l, int) or isinstance(l, bool) or l < 2:
            raise ServiceError(
                "bad-request", "privacy 'l' must be an integer >= 2"
            )
        normalized["l"] = l
    t = privacy.get("t")
    if t is not None:
        if l is not None:
            raise ServiceError(
                "bad-request",
                "choose one of privacy 'l' (l-diversity) or 't' "
                "(t-closeness), not both",
            )
        if (isinstance(t, bool) or not isinstance(t, (int, float))
                or not 0.0 <= float(t) <= 1.0):
            raise ServiceError(
                "bad-request", "privacy 't' must be a number in [0, 1]"
            )
        normalized["t"] = float(t)
    epsilon = privacy.get("epsilon")
    if epsilon is not None:
        if (isinstance(epsilon, bool)
                or not isinstance(epsilon, (int, float))
                or float(epsilon) <= 0):
            raise ServiceError(
                "bad-request",
                "privacy 'epsilon' must be a positive number",
            )
        normalized["epsilon"] = float(epsilon)
    if not normalized:
        raise ServiceError(
            "bad-request",
            "privacy block needs at least one of 'l', 't', or 'epsilon'",
        )
    sensitive = privacy.get("sensitive")
    if sensitive is None:
        # l-diversity/t-closeness need a sensitive column; default to
        # the CSV convention (last column).  ε-only requests noise the
        # whole released table's class counts — no split needed.
        if "l" in normalized or "t" in normalized:
            sensitive = degree - 1
    if sensitive is not None:
        if not isinstance(sensitive, int) or isinstance(sensitive, bool):
            raise ServiceError(
                "bad-request",
                "privacy 'sensitive' must be an integer column index",
            )
        index = sensitive + degree if sensitive < 0 else sensitive
        if not 0 <= index < degree:
            raise ServiceError(
                "bad-request",
                f"privacy 'sensitive' column {sensitive} out of range "
                f"for a table of degree {degree}",
            )
        if degree < 2:
            raise ServiceError(
                "bad-request",
                "a privacy split needs at least one quasi-identifier "
                "plus the sensitive column",
            )
        normalized["sensitive"] = index
    return normalized


@dataclass(frozen=True)
class Admission:
    """One ``anonymize``/``delta`` request, validated and keyed by
    :func:`admit` from the request's own fields."""

    op: str
    #: where the router places the request: the instance key, the state
    #: key of an ``incremental`` solve, or a delta's own ``state_key``
    routing_key: str
    csv: str
    header: bool
    #: ``None`` on a delta that leaves ``k`` to its stored stream
    k: int | None
    #: canonical solver name, aliases and ``auto`` resolved
    algorithm: str
    #: the request's own validated ``timeout`` (no server cap applied)
    timeout: float | None
    trace: bool
    privacy: dict[str, Any] | None = None
    #: planner decision of an ``auto`` request
    plan: dict | None = None
    #: solution / continuation-state cache keys (``anonymize`` only: a
    #: delta's keys depend on the stored rows it extends)
    key: str | None = None
    state_key: str | None = None
    #: table hash an ε charge books against (ε requests only)
    dataset: str | None = None
    #: the parsed table when admission parsed one (a delta, or an
    #: ``anonymize`` whose facts missed the memo); ``None`` on a memo hit
    table: Table | None = None


#: most entries each admission memo keeps (least recently used leaves
#: first): the facts of distinct (CSV text, header) pairs, and the
#: unbudgeted ``auto`` plans of distinct instance features
ADMISSION_MEMO_SIZE = 256


@dataclass
class _TableFacts:
    """What :func:`admit` reads off a parsed table."""

    #: the canonical :func:`~repro.artifacts.table_hash` every key
    #: derives from, so memoized and parsed admissions key identically
    digest: str
    n_rows: int
    degree: int
    #: σ for the planner, filled by the first ``auto`` request
    sigma: int | None = None


#: table facts by (digest of the CSV text, header flag); digests, not
#: texts, because a request line may be 64 MiB
_table_memo: dict[tuple[bytes, bool], _TableFacts] = {}
_table_memo_lock = threading.Lock()


def _parse(csv: str, header: bool) -> Table:
    try:
        return Table.from_csv(csv, header=header)
    except ValueError as exc:
        raise ServiceError("bad-request", f"bad csv: {exc}") from None


def _table_facts(
    csv: str, header: bool, with_sigma: bool
) -> tuple[_TableFacts, Table | None]:
    """The request table's facts, parsed and hashed only on a memo miss
    (or for σ the first time an ``auto`` request needs it), and the
    parsed table when there was a parse.

    Only a successful parse is remembered, so a bad CSV is rejected
    every time.  ``surrogatepass`` lets a lone surrogate, which JSON
    may carry, into the digest instead of raising.
    """
    fingerprint = (
        hashlib.blake2b(
            csv.encode("utf-8", "surrogatepass"), digest_size=16
        ).digest(),
        header,
    )
    with _table_memo_lock:
        facts = _table_memo.pop(fingerprint, None)
    table = None
    if facts is None or (with_sigma and facts.sigma is None):
        table = _parse(csv, header)
        if facts is None:
            facts = _TableFacts(table_hash(table), table.n_rows, table.degree)
        if with_sigma:
            facts.sigma = sigma_of(table)
    with _table_memo_lock:
        _table_memo[fingerprint] = facts
        while len(_table_memo) > ADMISSION_MEMO_SIZE:
            del _table_memo[next(iter(_table_memo))]
    return facts, table


@functools.lru_cache(maxsize=ADMISSION_MEMO_SIZE)
def _unbudgeted_plan(features: InstanceFeatures) -> tuple[str, dict]:
    """The ``auto`` decision without a budget, a pure function of the
    features.  Every admission of the same features shares the one
    plan dict, which callers must treat as read-only."""
    decision = plan_features(features)
    return decision.algorithm, decision.to_dict()


def admit(request: Any, backend: str) -> Admission:
    """Validate, resolve and key one ``anonymize`` or ``delta`` request.

    The one request → solver → key path of the fleet: the shard router
    places a request by ``routing_key`` and the shard caches it under
    ``key`` / ``state_key``, both computed here from the request and the
    distance *backend* alone.  ``auto`` plans against the request's own
    ``timeout`` (or the planner's soft cap), never a server's cap, so
    router and shard resolve the same solver.  The table is parsed once
    and hashed once; every key derives from that one hash, and the
    parsed table rides on the admission so the solve need not parse it
    again.  A repeated ``anonymize`` skips even that: its hash, shape
    and σ are remembered by the digest of its CSV text, and an
    unbudgeted ``auto`` plan by its instance features (both memos hold
    :data:`ADMISSION_MEMO_SIZE` entries).  Every field is still
    validated on every request.

    Raises :class:`ServiceError` on an invalid request.
    """
    if not isinstance(request, dict):
        raise ServiceError("bad-request", "request must be a JSON object")
    op = request.get("op", "anonymize")
    if op not in ("anonymize", "delta"):
        raise ServiceError("bad-request", f"unknown op {op!r}")
    delta = op == "delta"
    if delta and not is_cache_key(request.get("state_key")):
        raise ServiceError(
            "bad-request",
            "delta needs a 'state_key' hex-digest string (the one a "
            "previous incremental solve returned)",
        )
    csv = request.get("csv")
    if not isinstance(csv, str) or not csv.strip():
        raise ServiceError(
            "bad-request", f"{op} needs a non-empty 'csv' string"
        )
    k = request.get("k")
    if (not delta or "k" in request) and (
        not isinstance(k, int) or isinstance(k, bool) or k < 1
    ):
        raise ServiceError("bad-request", "'k' must be a positive integer")
    timeout = request.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ServiceError(
                "bad-request", "'timeout' must be a number of seconds"
            ) from None
        if timeout < 0:
            raise ServiceError("bad-request", "'timeout' cannot be negative")
    header = bool(request.get("header", True))
    trace = bool(request.get("trace", False))
    if delta:
        table = _parse(csv, header)
        if table.n_rows == 0:
            raise ServiceError(
                "bad-request", "delta carries no rows (header-only csv)"
            )
        return Admission(
            op=op, routing_key=request["state_key"], csv=csv,
            header=header, table=table, k=k, algorithm="incremental",
            timeout=timeout, trace=trace,
        )
    name = request.get("algorithm", "center_cover")
    facts, table = _table_facts(csv, header, with_sigma=name == "auto")
    plan = None
    if name == "auto":
        # keyed (and cached) under the *resolved* algorithm, so an
        # explicit request for the same solver shares the entry
        assert facts.sigma is not None  # filled for ``auto``
        features = InstanceFeatures(
            n=facts.n_rows, m=facts.degree, sigma=facts.sigma, k=k
        )
        if timeout is None:
            algorithm, plan = _unbudgeted_plan(features)
        else:
            # a budget's remaining time moves, so its plan is not reused
            decision = plan_features(features, budget=timeout)
            algorithm, plan = decision.algorithm, decision.to_dict()
    else:
        try:
            algorithm = registry.get(name).name
        except (KeyError, TypeError):
            raise ServiceError(
                "unknown-algorithm",
                f"unknown algorithm {name!r}; see `kanon algorithms`",
            ) from None
    privacy = None
    if request.get("privacy") is not None:
        privacy = normalize_privacy(request["privacy"], facts.degree)
        if algorithm == "incremental":
            raise ServiceError(
                "bad-request",
                "the 'privacy' block is not supported with the "
                "incremental streaming algorithm",
            )
    digest = facts.digest
    key = _key_from_hash(digest, k, algorithm, backend, privacy)
    state = None
    if algorithm == "incremental":
        # snapshot affinity: the solve lands on the shard that later
        # ``delta`` requests (routed by this state key) reach
        state = _key_from_hash(digest, k, algorithm, backend, state=True)
    return Admission(
        op=op, routing_key=state or key, csv=csv, header=header,
        table=table, k=k, algorithm=algorithm, timeout=timeout,
        trace=trace, privacy=privacy, plan=plan, key=key, state_key=state,
        dataset=digest if privacy and "epsilon" in privacy else None,
    )


@dataclass
class _Job:
    """One admitted anonymize/delta request waiting for a solver."""

    key: str
    task: _SolveTask
    budget: TimeBudget
    future: asyncio.Future = field(repr=False)
    op: str = "anonymize"
    #: where this job's continuation snapshot lives (incremental only)
    state_key: str | None = None
    #: planner decision echoed on the response (``algorithm: "auto"``
    #: requests only); the cache entry itself stays plan-free so auto
    #: and explicit requests share it byte-for-byte
    plan: dict | None = None
    #: ε to charge the privacy accountant when this job actually
    #: dispatches (None: not a DP request), and the dataset (table
    #: hash) the charge books against
    epsilon: float | None = None
    dataset: str | None = None


class _InlineSlot:
    """The ``jobs=1`` solver: one solve at a time, in this process, on a
    thread of the event loop's default executor.

    It keeps the event-loop half of :class:`~repro.pool.WorkerPool`'s
    contract (:meth:`ready`, :meth:`submit`, :attr:`on_idle`,
    :meth:`stats`, :meth:`close`), so the service drives both alike.
    A thread cannot be stopped: :meth:`close` fails the solve in flight
    at once, and its result is dropped when it comes.
    """

    def __init__(self) -> None:
        #: called on the loop when the slot turns idle
        self.on_idle: Callable[[], None] | None = None
        self._running: asyncio.Future | None = None
        self._done: DoneCallback | None = None

    def ready(self) -> bool:
        """Whether the slot can take a solve now."""
        return self._running is None

    def submit(self, fn: Callable[[Any], Any], task: Any,
               done: DoneCallback) -> None:
        """Run ``fn(task)`` on a thread; ``done(ok, value)`` is called on
        the loop with its result or its exception."""
        if self._running is not None:
            raise RuntimeError("the solve slot is busy: submit after ready()")
        self._done = done
        self._running = asyncio.get_running_loop().run_in_executor(
            None, fn, task
        )
        self._running.add_done_callback(self._finished)

    def _finished(self, future: asyncio.Future) -> None:
        error = future.exception()  # read even when dropped
        if future is not self._running:
            return  # closed while it ran: the late result is dropped
        done, self._running, self._done = self._done, None, None
        assert done is not None
        done(error is None, future.result() if error is None else error)
        if self.on_idle is not None:
            self.on_idle()

    def close(self) -> None:
        """Fail the solve in flight, if any; the slot stays usable."""
        done = self._done
        self._running = self._done = None
        if done is not None:
            done(False, RuntimeError("the inline solver was closed"))

    def stats(self) -> dict[str, Any]:
        return {"mode": "inline", "workers": 1}


class AnonymizationService:
    """Validation, admission control, caching, coalescing, dispatch.

    :param cache: solution cache (a default in-memory one if omitted);
        ``max_entries`` / ``cache_dir`` configure the default.
    :param jobs: solvers.  With ``jobs > 1`` the service owns a
        :class:`~repro.pool.WorkerPool` of that many worker processes,
        driven from the event loop; a worker crash fails only its job
        (code ``internal``) and a fresh worker takes its slot.  With
        ``jobs=1`` each miss solves in this process, on a thread, one at
        a time.  Either way each queued miss goes to the next idle
        solver, oldest first.
    :param backend: distance backend for all solves (default: the
        process default, i.e. ``REPRO_BACKEND``).
    :param default_timeout: budget applied to requests that send none.
    :param max_timeout: admission cap — requests asking for more are
        rejected up front rather than allowed to occupy workers.
    :param max_tasks_per_child: recycle each pool worker after this
        many tasks (``None``: never).
    :param fault_injection: honour per-request ``fault`` fields
        (``kill-worker``, ``delay:SECONDS``, ``drop-connection``) —
        chaos-testing only, never enable in production.  ``None`` reads
        the ``REPRO_SERVICE_FAULTS`` environment variable.
    :param privacy_budget: per-dataset ε ceiling for the service-owned
        :class:`~repro.privacy.dp.PrivacyAccountant`; ``None`` tracks
        spends without enforcing a limit.
    """

    #: front-end identity (see :mod:`repro.service.wire`)
    name = "service"
    default_port = DEFAULT_PORT

    def __init__(
        self,
        cache: SolutionCache | None = None,
        *,
        max_entries: int = 256,
        cache_dir: str | None = None,
        jobs: int = 1,
        backend: str | None = None,
        default_timeout: float | None = None,
        max_timeout: float | None = None,
        max_tasks_per_child: int | None = None,
        fault_injection: bool | None = None,
        privacy_budget: float | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be a positive integer")
        self.cache = cache if cache is not None else SolutionCache(
            max_entries=max_entries, directory=cache_dir,
        )
        self.jobs = jobs
        self.backend = backend or default_backend_name()
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        if fault_injection is None:
            fault_injection = (
                os.environ.get(FAULTS_ENV, "").strip().lower() in _TRUTHY
            )
        self.fault_injection = bool(fault_injection)
        self.accountant = PrivacyAccountant(privacy_budget)
        #: the solvers misses are handed to
        self._pool: WorkerPool | _InlineSlot = (
            WorkerPool(jobs, max_tasks_per_child=max_tasks_per_child)
            if jobs > 1 else _InlineSlot()
        )
        self._pool.on_idle = self._pump
        self.started_at = time.time()
        self.requests: dict[str, int] = {}
        self.coalesced = 0
        self.rejected = 0
        self.planned = 0
        #: dispatches (one per solve written): how many, the most jobs
        #: one answered, and jobs in all
        self._batch_count = 0
        self._batch_max = 0
        self._batch_jobs = 0
        self.traces: list[dict[str, Any]] = []
        #: distinct instance keys this process actually solved (misses
        #: and bypasses — never hits or coalesced followers); the shard
        #: router's no-duplicate-solves guarantee is audited fleet-wide
        #: by summing this over shards and comparing to unique instances
        self._solved_keys: set[str] = set()
        self._inflight: dict[str, asyncio.Future] = {}
        #: misses waiting for an idle solver, oldest first
        self._pending: deque[_Job] = deque()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """The front end's start hook: nothing to do, the solvers start
        when the first miss needs one."""

    async def stop(self) -> None:
        """Fail queued and running jobs (code ``internal``) and shut the
        solvers down; a solve that ends later is dropped, and no queued
        job starts.  The service stays usable: pool workers respawn
        lazily."""
        pending, self._pending = self._pending, deque()
        for job in pending:
            if not job.future.done():
                job.future.set_exception(
                    ServiceError("internal", "service shut down")
                )
        self._pool.close()

    def banner(self, host: str, port: int) -> str:
        """The front end's startup line."""
        return (
            f"kanon service listening on {host}:{port} "
            f"(backend={self.backend}, jobs={self.jobs}, "
            f"cache={self.cache.max_entries} entries)"
        )

    # -- request handling ----------------------------------------------

    async def handle(self, request: Any) -> dict[str, Any]:
        """Serve one request object; never raises on bad input.

        Protocol v2: a request-supplied ``id`` is echoed verbatim on
        the response, success or error, so clients can correlate
        responses with requests across timeouts.  v1 requests (no
        ``id``) get exactly the v1 response shape.
        """
        if not isinstance(request, dict):
            return _error("bad-request", "request must be a JSON object")
        op = request.get("op", "anonymize")
        self.requests[op] = self.requests.get(op, 0) + 1
        try:
            response = await self._handle_op(op, request)
        except ServiceError as exc:
            self.rejected += 1
            response = _error(exc.code, str(exc))
        if "id" in request:
            response["id"] = request["id"]
        return response

    async def _handle_op(self, op: str, request: dict) -> dict[str, Any]:
        self._check_fault(request)
        if op in ("anonymize", "delta"):
            return await self._run_job(self._admit(request), request)
        if op == "stats":
            return {"ok": True, "op": "stats", **self.stats()}
        if op == "ping":
            return {"ok": True, "op": "ping",
                    "protocol": PROTOCOL_VERSION}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        raise ServiceError("bad-request", f"unknown op {op!r}")

    # -- fault injection (chaos testing) -------------------------------

    def _check_fault(self, request: dict) -> None:
        """Reject ``fault`` fields unless injection is switched on."""
        fault = request.get("fault")
        if fault is None:
            return
        if not self.fault_injection:
            raise ServiceError(
                "bad-request",
                "fault injection is not enabled on this server "
                "(start it with --inject-faults / fault_injection=True)",
            )
        self._parse_fault(fault)  # validates; raises on unknown kinds

    @staticmethod
    def _parse_fault(fault: Any) -> tuple[str, float | None]:
        if fault == "kill-worker":
            return ("kill-worker", None)
        if fault == "drop-connection":
            return ("drop-connection", None)
        if isinstance(fault, str) and fault.startswith("delay:"):
            try:
                seconds = float(fault.split(":", 1)[1])
            except ValueError:
                seconds = -1.0
            if seconds >= 0:
                return ("delay", seconds)
        raise ServiceError(
            "bad-request",
            f"unknown fault {fault!r}; expected kill-worker, "
            "delay:SECONDS, or drop-connection",
        )

    def connection_fault(self, request: Any) -> tuple[str, float | None] | None:
        """The connection-level fault a request asks for, if any.

        Consulted by the TCP front end *after* the response is built:
        ``("delay", seconds)`` postpones the write, ``("drop-connection",
        None)`` closes without answering.  Quietly ``None`` whenever
        injection is off or the field is absent/invalid (the request
        handler has already rejected those).
        """
        if not self.fault_injection or not isinstance(request, dict):
            return None
        fault = request.get("fault")
        if fault is None:
            return None
        try:
            kind, seconds = self._parse_fault(fault)
        except ServiceError:
            return None
        if kind in ("delay", "drop-connection"):
            return (kind, seconds)
        return None

    async def _run_job(self, job: _Job, request: dict) -> dict[str, Any]:
        """Cache-check, coalesce, or queue one admitted job.

        Shared by ``anonymize`` and ``delta``: a delta job is keyed by
        the **grown** table's instance key, so an identical delta — or
        a from-scratch solve of the same full table — hits and
        coalesces against it exactly like any repeated instance.
        """
        use_cache = bool(request.get("use_cache", True))
        if job.task.fault is not None:
            # a fault-injected request must reach the solver to matter
            use_cache = False
        if not use_cache:
            # nothing will store this job's snapshot
            job.task = replace(job.task, keep_state=False)

        if use_cache:
            cached = self.cache.get(job.key)
            if cached is not None:
                response = _solution(cached, cache="hit", op=job.op)
                if job.state_key is not None and job.state_key in self.cache:
                    response["state_key"] = job.state_key
                if job.plan is not None:
                    response["plan"] = job.plan
                return response
            inflight = self._inflight.get(job.key)
            if inflight is not None:
                # identical instance already being solved: wait for it
                # — but only within THIS request's remaining budget,
                # not the leader's (which may be unlimited)
                self.coalesced += 1
                try:
                    outcome = await asyncio.wait_for(
                        asyncio.shield(inflight), job.budget.remaining()
                    )
                except asyncio.TimeoutError:
                    raise ServiceError(
                        "budget-exceeded",
                        f"request spent its {job.budget.seconds:g}s "
                        "budget waiting on an identical in-flight solve",
                    ) from None
                return self._finish(job, dict(outcome), cache="coalesced")

        if job.epsilon is not None:
            # a queued solve is a *fresh* ε-release: charge it now (the
            # charge is refunded if the solve errors out).  Cache hits
            # and coalesced followers re-release byte-identical noise
            # (the DP seed is the instance key), so they cost nothing.
            assert job.dataset is not None
            try:
                self.accountant.charge(job.dataset, job.epsilon)
            except BudgetExhaustedError as exc:
                raise ServiceError(
                    "privacy-budget-exhausted", str(exc)
                ) from None

        if use_cache:
            self._inflight[job.key] = job.future
        try:
            self._pending.append(job)
            self._pump()
            outcome = await job.future
        finally:
            if self._inflight.get(job.key) is job.future:
                del self._inflight[job.key]
        return self._finish(
            job, dict(outcome), cache="miss" if use_cache else "bypass"
        )

    def _admit(self, request: dict) -> _Job:
        """Admit one anonymize/delta request; raises :class:`ServiceError`.

        :func:`admit` validates and keys the request; this adds what
        only this server knows: its timeout default and cap, fault
        markers, and the stored snapshot a delta continues.  The budget
        is armed *here*: queueing delay counts against the request, and
        :meth:`_pump` answers a job whose budget expired before it
        reached a solver.  A task for a worker process carries the CSV
        text; the inline solve takes the table admission parsed.
        """
        admission = admit(request, self.backend)
        timeout = (
            admission.timeout if "timeout" in request
            else self.default_timeout
        )
        if timeout is None:
            timeout = self.max_timeout
        elif self.max_timeout is not None and timeout > self.max_timeout:
            raise ServiceError(
                "bad-request",
                f"timeout {timeout:g}s exceeds the server cap of "
                f"{self.max_timeout:g}s",
            )
        k, key, state_key = admission.k, admission.key, admission.state_key
        state = None
        if admission.op == "delta":
            state, k, key, state_key = self._continuation(admission)
        if admission.plan is not None:
            self.planned += 1
        privacy = admission.privacy
        epsilon = privacy.get("epsilon") if privacy is not None else None
        assert k is not None and key is not None
        table = admission.table if self.jobs == 1 else None
        task = _SolveTask(
            csv=admission.csv if table is None else None,
            table=table, header=admission.header, k=k,
            algorithm=admission.algorithm, backend=self.backend,
            timeout=timeout, trace=admission.trace,
            fault=self._admitted_fault(request),
            privacy=(
                tuple(sorted(privacy.items()))
                if privacy is not None else None
            ),
            # seed the DP noise by the instance key: deterministic per
            # keyed instance, different across k/algorithm/privacy
            dp_seed=int(key[:16], 16) if epsilon is not None else None,
            state=state,
        )
        return _Job(
            key=key,
            task=task,
            budget=TimeBudget(timeout).start(),
            future=asyncio.get_running_loop().create_future(),
            op=admission.op,
            state_key=state_key,
            plan=admission.plan,
            epsilon=epsilon,
            dataset=admission.dataset,
        )

    def _continuation(
        self, admission: Admission
    ) -> tuple[IncrementalState, int, str, str]:
        """The stored snapshot a delta continues (decoded once, here),
        the stream's ``k``, and the **grown** table's instance and state
        keys.

        Stored prefix rows plus delta rows key exactly like a cold
        ``anonymize`` of the full table, so chains compose and repeated
        deltas hit.
        """
        key = admission.routing_key
        entry = self.cache.get(key)
        if entry is None:
            raise ServiceError(
                "unknown-state",
                f"no incremental state stored under {key!r} — solve the "
                "full table with algorithm 'incremental' first, or the "
                "state was evicted from a memory-only cache",
            )
        try:
            state = IncrementalState.from_dict(entry["state"])
            stored_backend = str(entry["backend"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                "unknown-state",
                f"state stored under {key!r} is unusable: {exc}",
            ) from None
        if stored_backend != self.backend:
            raise ServiceError(
                "unknown-state",
                f"state under {key!r} was computed under backend "
                f"{stored_backend!r}; this server runs {self.backend!r}",
            )
        k = state.k if admission.k is None else admission.k
        if k != state.k:
            raise ServiceError(
                "bad-request",
                f"delta k={k} does not match the stored stream's "
                f"k={state.k} — changing k means re-solving from scratch",
            )
        rows = admission.table
        assert rows is not None
        if rows.degree != state.degree:
            raise ServiceError(
                "bad-request",
                f"delta rows have degree {rows.degree}; the "
                f"stream expects {state.degree}",
            )
        if (
            admission.header
            and state.attributes is not None
            and rows.attributes != state.attributes
        ):
            raise ServiceError(
                "bad-request",
                f"delta attributes {rows.attributes!r} do not "
                f"match the stream's {state.attributes!r}",
            )
        digest = table_hash(
            Table(state.rows + rows.rows, attributes=state.attributes)
        )
        return (
            state, k,
            _key_from_hash(digest, k, "incremental", self.backend),
            _key_from_hash(
                digest, k, "incremental", self.backend, state=True
            ),
        )

    def _admitted_fault(self, request: dict) -> str | None:
        """The worker-level fault marker, when injection is enabled."""
        fault = request.get("fault")
        return "kill-worker" if (
            self.fault_injection and fault == "kill-worker"
        ) else None

    def _finish(
        self, job: _Job, outcome: dict[str, Any], cache: str
    ) -> dict[str, Any]:
        """Turn a solver outcome into a response; cache and trace it.

        Incremental solves carry a continuation snapshot in
        ``outcome["state"]``; it is stored as its own cache entry under
        ``job.state_key`` (never inside the solution entry — solutions
        stay byte-compatible with pre-delta cache files) and the
        response advertises that key.  Per-request delta dispositions
        (``outcome["delta"]``) are answered but never cached: they
        describe the request's delta, not the instance.
        """
        if "error" in outcome:
            self.rejected += 1
            if job.epsilon is not None and cache in ("miss", "bypass"):
                # nothing was released: give the ε back (followers that
                # coalesced on this failure never charged)
                self.accountant.refund(job.dataset or "", job.epsilon)
            return _error(outcome["code"], outcome["error"])
        if cache in ("miss", "bypass"):
            self._solved_keys.add(job.key)
        trace = outcome.pop("trace", None)
        if trace is not None and cache in ("miss", "bypass"):
            # one solve, one recorded trace — coalesced followers share
            # the leader's solve and must not re-append its trace
            self.traces.append(trace)
        state = outcome.pop("state", None)
        delta_info = outcome.pop("delta", None)
        if cache == "miss" and not outcome.get("deadline_hit"):
            # deadline-degraded releases reflect the budget, not the
            # instance — never let them answer future requests
            if state is not None and job.state_key is not None:
                self.cache.put(job.state_key, {
                    "state": state,
                    "k": job.task.k,
                    "algorithm": "incremental",
                    "backend": job.task.backend,
                })
            self.cache.put(job.key, outcome)
        response = _solution(outcome, cache=cache, op=job.op)
        if (
            job.state_key is not None
            and state is not None
            and cache in ("miss", "coalesced")
            and not outcome.get("deadline_hit")
        ):
            # never advertised on a bypass: nothing was stored, so the
            # key would dangle (chains need the cache by construction)
            response["state_key"] = job.state_key
        if delta_info is not None:
            response["delta"] = delta_info
        if trace is not None:
            response["trace"] = trace
        if job.plan is not None:
            response["plan"] = job.plan
        return response

    # -- dispatch --------------------------------------------------------

    @staticmethod
    def _dispatchable(jobs: list[_Job]) -> list[_Job]:
        """The jobs still to solve: a caller that went away is skipped,
        and one whose budget ran out in the queue is answered here."""
        ready: list[_Job] = []
        for job in jobs:
            if job.future.done():
                continue  # caller went away (connection dropped)
            if job.budget.expired():
                # admission control: the budget ran out in the queue
                job.future.set_result({
                    "error": (
                        f"request spent its {job.budget.seconds:g}s "
                        f"budget queued before dispatch"
                    ),
                    "code": "budget-exceeded",
                })
                continue
            ready.append(job)
        return ready

    def _pump(self) -> None:
        """Hand queued misses to idle solvers, oldest first.

        Runs on the event loop when a miss is queued and whenever a
        solver turns idle or is lost; :meth:`WorkerPool.ready` refills
        an emptied worker slot at once.  A job's budget is checked, and
        its solver timeout computed, as it is handed over; the queued
        jobs that share its key go with it and solve once
        (:meth:`_merge_jobs`).  Each hand-over is one dispatch in
        ``stats()["batches"]``.
        """
        while self._pool.ready() and self._pending:
            key = self._pending[0].key
            sharers = [job for job in self._pending if job.key == key]
            self._pending = deque(j for j in self._pending if j.key != key)
            sharers = self._dispatchable(sharers)
            if not sharers:
                continue
            self._batch_count += 1
            self._batch_max = max(self._batch_max, len(sharers))
            self._batch_jobs += len(sharers)
            self._pool.submit(
                _solve_task, self._merge_jobs(sharers),
                functools.partial(self._resolve, sharers),
            )

    @staticmethod
    def _resolve(sharers: list[_Job], ok: bool, outcome: Any) -> None:
        """Answer a solve's sharers; a lost or closed solver is
        ``internal``."""
        for job in sharers:
            if job.future.done():
                continue
            if ok:
                job.future.set_result(outcome)
            else:
                job.future.set_exception(ServiceError("internal", str(outcome)))

    @staticmethod
    def _merge_jobs(sharers: list[_Job]) -> _SolveTask:
        """The one task that solves for every queued job of one key.

        Key-sharers solve once, under the **loosest** budget in the
        group — unlimited if any sharer is unlimited, else the largest
        remaining allowance.  (Solving under the first arrival's budget
        would let a stranger's tight deadline fail, or
        deadline-degrade, everyone else's identical request.)  Tracing,
        fault markers and snapshot export are likewise merged with "any
        sharer asked" semantics.  The merge keeps the first task's other
        fields (``dataclasses.replace``), so anonymize and delta tasks
        both pass through — and since a delta job is keyed by its
        *grown* table, a delta can share a key with a cold solve of the
        same full table, in which case the first arrival's task shape
        wins (both produce the same release, by replay equivalence).
        """
        if any(not job.budget.limited for job in sharers):
            timeout = None
        else:
            timeout = max(job.budget.remaining() for job in sharers)
        return replace(
            sharers[0].task,
            timeout=timeout,
            trace=any(job.task.trace for job in sharers),
            fault=next(
                (job.task.fault for job in sharers if job.task.fault), None
            ),
            keep_state=any(job.task.keep_state for job in sharers),
        )

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for the ``stats`` endpoint (JSON-ready)."""
        count = self._batch_count
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "backend": self.backend,
            "jobs": self.jobs,
            "requests": dict(self.requests),
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "planned": self.planned,
            "solved_instances": len(self._solved_keys),
            "cache": self.cache.as_dict(),
            "privacy": self.accountant.as_dict(),
            "batches": {
                "count": count,
                "max_size": self._batch_max,
                "mean_size": self._batch_jobs / count if count else 0.0,
            },
            "pool": self._pool.stats(),
            "traces": summarize_traces(self.traces),
        }


def _solution(
    outcome: dict[str, Any], cache: str, op: str = "anonymize"
) -> dict[str, Any]:
    response = {
        "ok": True,
        "op": op,
        "cache": cache,
        "csv": outcome["csv"],
        "stars": outcome["stars"],
        "algorithm": outcome["algorithm"],
        "k": outcome["k"],
        "backend": outcome["backend"],
        "deadline_hit": outcome.get("deadline_hit", False),
        "solve_seconds": outcome.get("solve_seconds"),
    }
    if "cap_exceeded" in outcome:
        response["cap_exceeded"] = outcome["cap_exceeded"]
    for extra in ("privacy", "dp"):
        if extra in outcome:
            response[extra] = outcome[extra]
    return response

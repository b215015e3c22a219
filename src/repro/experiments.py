"""Programmatic experiment runners with a parallel trial executor.

The pytest benchmark harness (``benchmarks/``) regenerates the paper's
results under ``pytest-benchmark``; this module exposes the same
experiments as plain functions returning data structures, so users can
rerun them from notebooks or scripts (and the CLI's ``experiment``
command).  Each runner is deterministic given its seed.

Three orthogonal knobs thread through every runner:

* ``timeout=`` / ``trace=`` are applied *per call* to the
  algorithms — a caller-owned anonymizer instance is never reconfigured
  (or even reused: every trial runs on a fresh deep copy, so stateful
  algorithms like simulated annealing see identical RNG state no matter
  how trials are scheduled).  The copy keeps the instance's own
  ``backend``, so ``CenterCoverAnonymizer(backend="python")`` runs a
  sweep on the reference oracle.
* ``jobs=`` runs independent trials on a
  :class:`~repro.pool.WorkerPool` of **spawn**-context worker
  processes.  Per-trial seeds come from
  ``np.random.SeedSequence(base_seed, spawn_key=(trial,))`` — the spawn
  tree is indexed by trial, not by scheduling order, so ``jobs=1`` and
  ``jobs=N`` produce bit-identical results.  A
  :class:`~repro.instrument.BudgetExceededError` raised by any worker
  cancels the remaining trials and propagates.
* ``store=`` (a :class:`repro.artifacts.RunStore`) makes a sweep
  resumable: each finished trial appends a JSON record; on resume the
  workload is regenerated from its seed, its hash is checked against
  the record, and the stored result is reused without re-solving.

Proven approximation bounds come from the algorithm registry
(:mod:`repro.registry`), not from name string matching: an algorithm
without a registered guarantee yields ``bound=None`` and
``within_bound`` is undefined rather than silently borrowing
Theorem 4.2's bound.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import registry
from repro.algorithms.base import Anonymizer
from repro.artifacts import RunStore, table_hash
from repro.core.metrics import metric_report
from repro.core.table import Table
from repro.instrument import summarize_traces
# the process pool lives in repro.pool; its names stay importable here
from repro.pool import WorkerCrashError as WorkerCrashError
from repro.pool import WorkerPool as WorkerPool
from repro.pool import run_tasks


# ----------------------------------------------------------------------
# Seeded workload helpers (shared by fresh runs, workers, and resume)
# ----------------------------------------------------------------------


def trial_seed_sequence(base_seed: int, trial: int) -> np.random.SeedSequence:
    """The per-trial seed: child *trial* of ``SeedSequence(base_seed)``.

    Constructed directly via ``spawn_key`` so trial *t*'s stream depends
    only on ``(base_seed, t)`` — never on how many trials run, in which
    order, or in which process.  This is what makes serial, parallel,
    and resumed sweeps bit-identical.
    """
    return np.random.SeedSequence(base_seed, spawn_key=(trial,))


def ratio_table(
    base_seed: int, trial: int, n: int, m: int, sigma: int
) -> Table:
    """Trial *trial*'s random table for the ratio experiments."""
    rng = np.random.default_rng(trial_seed_sequence(base_seed, trial))
    data = rng.integers(0, sigma, size=(n, m))
    return Table([tuple(int(v) for v in row) for row in data])


def _random_table(seed: int, n: int, m: int, sigma: int) -> Table:
    """Plain seeded random table (kept for the benchmarks)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, sigma, size=(n, m))
    return Table([tuple(int(v) for v in row) for row in data])


def _fresh_copy(algorithm: Anonymizer) -> Anonymizer:
    """A per-trial private copy of *algorithm*.

    Used inside the worker function on both the serial and the parallel
    path, so every trial starts from the caller's exact construction
    state (RNG included) regardless of scheduling.
    """
    return copy.deepcopy(algorithm)


def resolve_algorithm(algorithm: "Anonymizer | str") -> Anonymizer:
    """An :class:`Anonymizer` from an instance, a registry name, or
    ``"auto"``.

    Strings resolve through the registry (canonical names and aliases
    both work); the one extra name is ``"auto"``, which builds a
    :class:`repro.planner.PlannedAnonymizer` so an experiment can
    exercise the planner's per-instance dispatch.  ``auto`` deliberately
    has no registry entry, so :func:`repro.registry.proven_bound`
    reports no guarantee for it — a planned run only *sometimes*
    inherits a bound, and the experiment bound checks must not credit it
    with one.

    :raises KeyError: for an unknown algorithm name.
    """
    if isinstance(algorithm, str):
        if algorithm == "auto":
            from repro.planner import PlannedAnonymizer

            return PlannedAnonymizer()
        return registry.create(algorithm)
    return algorithm


# ----------------------------------------------------------------------
# Approximation-ratio experiments (E3 / E4)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RatioRow:
    seed: int
    opt: int
    cost: int

    @property
    def ratio(self) -> float:
        if self.opt == 0:
            return 1.0 if self.cost == 0 else float("inf")
        return self.cost / self.opt


@dataclass(frozen=True)
class RatioExperiment:
    algorithm: str
    k: int
    m: int
    #: proven approximation guarantee at (k, m) from the registry, or
    #: ``None`` for algorithms without one.
    bound: float | None
    rows: tuple[RatioRow, ...] = field(default_factory=tuple)
    #: per-trial run traces (``RunTrace.to_dict()`` form) when the
    #: experiment ran with ``trace=True``; empty otherwise.
    traces: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def max_ratio(self) -> float:
        if not self.rows:
            raise ValueError(
                "max_ratio is undefined for an experiment with no rows"
            )
        return max(row.ratio for row in self.rows)

    @property
    def mean_ratio(self) -> float:
        if not self.rows:
            raise ValueError(
                "mean_ratio is undefined for an experiment with no rows"
            )
        return sum(row.ratio for row in self.rows) / len(self.rows)

    @property
    def has_bound(self) -> bool:
        """True iff the algorithm carries a proven guarantee."""
        return self.bound is not None

    @property
    def within_bound(self) -> bool:
        """Whether every measured ratio respects the proven bound.

        :raises ValueError: for algorithms without a proven guarantee —
            there is no bound to be within; check :attr:`has_bound`.
        """
        if self.bound is None:
            raise ValueError(
                f"{self.algorithm} has no proven approximation bound; "
                "within_bound is undefined (check has_bound first)"
            )
        return self.max_ratio <= self.bound


@dataclass(frozen=True)
class _RatioTask:
    algorithm: Anonymizer
    k: int
    n: int
    m: int
    sigma: int
    base_seed: int
    trial: int
    timeout: float | None
    trace: bool | None


def _ratio_trial(task: _RatioTask) -> dict[str, Any]:
    """One ratio trial: generate, solve exactly, run the algorithm."""
    from repro.algorithms.exact import optimal_anonymization

    table = ratio_table(task.base_seed, task.trial, task.n, task.m,
                        task.sigma)
    algorithm = _fresh_copy(task.algorithm)
    started = time.perf_counter()
    opt, _ = optimal_anonymization(table, task.k)
    opt_seconds = time.perf_counter() - started
    result = algorithm.anonymize(
        table, task.k, timeout=task.timeout, trace=task.trace,
    )
    return {
        "trial": task.trial,
        "seed": task.base_seed + task.trial,
        "algorithm": algorithm.name,
        "k": task.k,
        "opt": opt,
        "cost": result.stars,
        "opt_seconds": opt_seconds,
        "elapsed_seconds": time.perf_counter() - started,
        "instance_hash": table_hash(table),
        "deadline_hit": bool(result.extras.get("deadline_hit")),
        "trace": result.extras.get("trace"),
    }


def ratio_experiment(
    algorithm: "Anonymizer | str",
    k: int,
    n: int = 9,
    m: int = 4,
    sigma: int = 3,
    trials: int = 20,
    base_seed: int = 0,
    timeout: float | None = None,
    trace: bool | None = None,
    jobs: int = 1,
    store: RunStore | None = None,
) -> RatioExperiment:
    """Measured approximation ratios vs exact optima on random tables.

    Keep ``n <= ~12`` — every trial solves the instance exactly.

    *algorithm* may be an :class:`Anonymizer` instance, a registry name
    or alias, or ``"auto"`` (planner dispatch per trial; carries no
    proven bound — see :func:`resolve_algorithm`).  ``timeout`` /
    ``trace`` are passed per call to a fresh copy of the algorithm (the
    caller's *algorithm* instance is never mutated).  ``jobs`` fans
    trials out over processes; ``store`` makes the sweep resumable
    (completed trials are verified against their recorded instance
    hash, then reused).

    :raises ValueError: if ``trials < 1`` (the ratio statistics are
        undefined on an empty experiment).
    """
    if trials < 1:
        raise ValueError("ratio_experiment needs trials >= 1")
    algorithm = resolve_algorithm(algorithm)
    bound = registry.proven_bound(algorithm, k, m)

    rows: list[RatioRow | None] = [None] * trials
    traces: dict[int, dict] = {}
    pending: list[int] = []
    for t in range(trials):
        key = f"trial-{t:04d}"
        if store is not None and store.done(key):
            table = ratio_table(base_seed, t, n, m, sigma)
            store.check_instance(key, table_hash(table))
            record = store.get(key)
            rows[t] = RatioRow(seed=record["seed"], opt=record["opt"],
                               cost=record["cost"])
            continue
        pending.append(t)

    tasks = [
        _RatioTask(algorithm=algorithm, k=k, n=n, m=m, sigma=sigma,
                   base_seed=base_seed, trial=t, timeout=timeout,
                   trace=trace)
        for t in pending
    ]
    for t, outcome in zip(pending, run_tasks(_ratio_trial, tasks, jobs)):
        rows[t] = RatioRow(seed=outcome["seed"], opt=outcome["opt"],
                           cost=outcome["cost"])
        if outcome["trace"] is not None:
            traces[t] = outcome["trace"]
        if store is not None:
            store.record(
                f"trial-{t:04d}",
                **{name: value for name, value in outcome.items()
                   if name != "trace"},
                trace_summary=summarize_traces(
                    [outcome["trace"]] if outcome["trace"] else []
                ),
            )

    return RatioExperiment(
        algorithm=algorithm.name, k=k, m=m, bound=bound,
        rows=tuple(rows),  # type: ignore[arg-type]
        traces=tuple(trace for _, trace in sorted(traces.items())),
    )


# ----------------------------------------------------------------------
# Hardness-threshold experiments (E1 / E2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    kind: str
    n: int
    m: int
    threshold: int
    optimum: int
    has_matching: bool
    #: generator seed of this instance (identifies it within a sweep)
    seed: int = 0

    @property
    def hits_threshold(self) -> bool:
        return self.optimum == self.threshold

    @property
    def consistent_with_theorem(self) -> bool:
        """Theorem 3.1/3.2: threshold met exactly iff a matching exists."""
        return self.hits_threshold == self.has_matching


def threshold_instance(
    kind: str,
    n_groups: int,
    extra_edges: int,
    with_matching: bool,
    seed: int,
):
    """Seeded workload helper: build one reduction instance.

    Shared by fresh runs, pool workers, and resume verification, so a
    resumed sweep regenerates byte-identical instances.
    """
    from repro.workloads import (
        attribute_reduction_instance,
        entry_reduction_instance,
    )

    if kind == "entries":
        return entry_reduction_instance(
            n_groups, k=3, extra_edges=extra_edges,
            with_matching=with_matching, seed=seed,
        )
    if kind == "attributes":
        return attribute_reduction_instance(
            n_groups, k=3, extra_edges=extra_edges,
            with_matching=with_matching, seed=seed,
        )
    raise ValueError(f"unknown reduction kind {kind!r}")


@dataclass(frozen=True)
class _ThresholdTask:
    kind: str
    n_groups: int
    extra_edges: int
    with_matching: bool
    seed: int


def _threshold_trial(task: _ThresholdTask) -> dict[str, Any]:
    """One reduction instance end to end (exact solve included)."""
    from repro.algorithms.exact import (
        optimal_anonymization,
        optimal_attribute_suppression,
    )
    from repro.hardness.matching import has_perfect_matching

    red = threshold_instance(task.kind, task.n_groups, task.extra_edges,
                             task.with_matching, task.seed)
    started = time.perf_counter()
    if task.kind == "entries":
        optimum, _ = optimal_anonymization(red.table, 3)
    else:
        optimum, _ = optimal_attribute_suppression(red.table, 3)
    return {
        "kind": task.kind,
        "seed": task.seed,
        "with_matching": task.with_matching,
        "n": red.table.n_rows,
        "m": red.table.degree,
        "threshold": red.threshold,
        "optimum": optimum,
        "has_matching": has_perfect_matching(red.graph),
        "elapsed_seconds": time.perf_counter() - started,
        "instance_hash": table_hash(red.table),
    }


def _threshold_result(record: dict[str, Any]) -> ThresholdResult:
    return ThresholdResult(
        kind=record["kind"],
        n=record["n"],
        m=record["m"],
        threshold=record["threshold"],
        optimum=record["optimum"],
        has_matching=record["has_matching"],
        seed=record["seed"],
    )


def threshold_experiment(
    kind: str = "entries",
    n_groups: int = 2,
    extra_edges: int = 2,
    with_matching: bool = True,
    seed: int = 0,
    jobs: int = 1,
    store: RunStore | None = None,
) -> ThresholdResult:
    """Run one reduction instance end to end (exact solve included)."""
    return threshold_sweep(
        kind=kind, n_groups=n_groups, extra_edges=extra_edges,
        cases=((with_matching, seed),), jobs=jobs, store=store,
    )[0]


def threshold_sweep(
    kind: str = "entries",
    n_groups: int = 2,
    extra_edges: int = 2,
    cases: tuple[tuple[bool, int], ...] = ((True, 0), (False, 0)),
    jobs: int = 1,
    store: RunStore | None = None,
) -> list[ThresholdResult]:
    """Many reduction instances — the E1/E2 grid, parallel and resumable.

    :param cases: ``(with_matching, seed)`` pairs, one instance each.
    """
    if kind not in ("entries", "attributes"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    results: list[ThresholdResult | None] = [None] * len(cases)
    pending: list[int] = []
    for index, (with_matching, seed) in enumerate(cases):
        key = f"{kind}-g{n_groups}-x{extra_edges}-m{int(with_matching)}-s{seed}"
        if store is not None and store.done(key):
            red = threshold_instance(kind, n_groups, extra_edges,
                                     with_matching, seed)
            store.check_instance(key, table_hash(red.table))
            results[index] = _threshold_result(store.get(key))
            continue
        pending.append(index)

    tasks = [
        _ThresholdTask(kind=kind, n_groups=n_groups,
                       extra_edges=extra_edges,
                       with_matching=cases[index][0], seed=cases[index][1])
        for index in pending
    ]
    for index, outcome in zip(pending,
                              run_tasks(_threshold_trial, tasks, jobs)):
        results[index] = _threshold_result(outcome)
        if store is not None:
            with_matching, seed = cases[index]
            store.record(
                f"{kind}-g{n_groups}-x{extra_edges}"
                f"-m{int(with_matching)}-s{seed}",
                **outcome,
            )
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# k sweep (E10) and algorithm comparison (E8)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    k: int
    stars: int
    precision: float
    classes: int
    #: run trace (``RunTrace.to_dict()`` form) when run with trace=True
    trace: dict | None = None


@dataclass(frozen=True)
class _SweepTask:
    table: Table
    k: int
    algorithm: Anonymizer
    timeout: float | None
    trace: bool | None


def _sweep_point(task: _SweepTask) -> dict[str, Any]:
    algorithm = _fresh_copy(task.algorithm)
    started = time.perf_counter()
    result = algorithm.anonymize(
        task.table, task.k, timeout=task.timeout, trace=task.trace,
    )
    report = metric_report(result.anonymized, task.k)
    return {
        "k": task.k,
        "algorithm": algorithm.name,
        "stars": int(report["stars"]),
        "precision": float(report["precision"]),
        "classes": int(report["classes"]),
        "elapsed_seconds": time.perf_counter() - started,
        "instance_hash": table_hash(task.table),
        "trace": result.extras.get("trace"),
    }


def k_sweep(
    table: Table,
    ks: tuple[int, ...] = (2, 3, 4, 5, 6, 8),
    algorithm: "Anonymizer | str | None" = None,
    timeout: float | None = None,
    trace: bool | None = None,
    jobs: int = 1,
    store: RunStore | None = None,
) -> list[SweepPoint]:
    """Cost/utility across k — the E10 series on any table.

    *algorithm* may be an instance, a registry name, or ``"auto"``
    (planner dispatch per k cell).  ``timeout`` / ``trace`` apply per
    call to a fresh copy of the algorithm; the caller's instance is
    never mutated.  ``jobs`` runs the k cells concurrently; with a
    ``store`` each cell records the table's hash, and a resumed sweep
    verifies it before reusing the cell.
    """
    from repro.algorithms.center_cover import CenterCoverAnonymizer

    algorithm = (
        CenterCoverAnonymizer() if algorithm is None
        else resolve_algorithm(algorithm)
    )
    points: list[SweepPoint | None] = [None] * len(ks)
    pending: list[int] = []
    for index, k in enumerate(ks):
        key = f"k-{k}"
        if store is not None and store.done(key):
            store.check_instance(key, table_hash(table))
            record = store.get(key)
            points[index] = SweepPoint(
                k=record["k"], stars=record["stars"],
                precision=record["precision"], classes=record["classes"],
            )
            continue
        pending.append(index)

    tasks = [
        _SweepTask(table=table, k=ks[index], algorithm=algorithm,
                   timeout=timeout, trace=trace)
        for index in pending
    ]
    for index, outcome in zip(pending, run_tasks(_sweep_point, tasks, jobs)):
        points[index] = SweepPoint(
            k=outcome["k"], stars=outcome["stars"],
            precision=outcome["precision"], classes=outcome["classes"],
            trace=outcome["trace"],
        )
        if store is not None:
            store.record(
                f"k-{ks[index]}",
                **{name: value for name, value in outcome.items()
                   if name != "trace"},
                trace_summary=summarize_traces(
                    [outcome["trace"]] if outcome["trace"] else []
                ),
            )
    return points  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Privacy experiment (E25): re-identification vs k, plus DP overhead
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyPoint:
    """One k cell of :func:`privacy_experiment`."""

    k: int
    stars: int
    #: fraction of records an aux-knowing adversary re-identifies uniquely
    fraction_unique: float
    min_match: int
    mean_match: float
    #: majority-vote sensitive-value inference accuracy
    inference_accuracy: float
    #: median wall-clock of the solve, each run on a fresh table
    solve_seconds: float
    #: median wall-clock of the ε-DP noisy-histogram post-pass
    dp_seconds: float
    classes: int

    @property
    def dp_overhead(self) -> float:
        """DP post-pass time as a fraction of the solve time."""
        if self.solve_seconds <= 0:
            return 0.0
        return self.dp_seconds / self.solve_seconds


@dataclass(frozen=True)
class PrivacyExperiment:
    """Attack-vs-k curve for one algorithm on the census workload."""

    algorithm: str
    n: int
    epsilon: float
    points: tuple[PrivacyPoint, ...] = field(default_factory=tuple)

    def point(self, k: int) -> PrivacyPoint:
        for point in self.points:
            if point.k == k:
                return point
        raise KeyError(f"no point for k={k}")

    @property
    def reidentification_drop(self) -> float:
        """Unique re-identification at the smallest k over the largest.

        ``inf`` when the largest k leaves nobody uniquely identifiable.
        """
        if len(self.points) < 2:
            raise ValueError("need at least two k cells to compare")
        first = min(self.points, key=lambda p: p.k).fraction_unique
        last = max(self.points, key=lambda p: p.k).fraction_unique
        if last == 0.0:
            return float("inf") if first > 0 else 1.0
        return first / last


@dataclass(frozen=True)
class _PrivacyTask:
    n: int
    k: int
    algorithm: Anonymizer
    epsilon: float
    base_seed: int
    timeout: float | None
    trace: bool | None


#: timed runs behind each of E25's medians (solve and DP post-pass)
PRIVACY_TIMING_RUNS = 5


def _privacy_point(task: _PrivacyTask) -> dict[str, Any]:
    """One k cell: anonymize the QI columns, reattach the sensitive
    column, run the projection attack, and time the DP post-pass.

    Both timings are medians of :data:`PRIVACY_TIMING_RUNS` runs: the
    solve runs on a freshly generated table each time (so no per-table
    backend cache is reused), the seeded post-pass on the release."""
    from repro.privacy.attack import projection_attack
    from repro.privacy.dp import noisy_class_histogram
    from repro.privacy.sensitive import reattach_sensitive, split_sensitive
    from repro.workloads import census_table

    solve_times = []
    for _ in range(PRIVACY_TIMING_RUNS):
        table = census_table(task.n, seed=task.base_seed)
        identifiers, sensitive, index = split_sensitive(table, -1)
        algorithm = _fresh_copy(task.algorithm)
        started = time.perf_counter()
        result = algorithm.anonymize(
            identifiers, task.k, timeout=task.timeout, trace=task.trace,
        )
        solve_times.append(time.perf_counter() - started)
    released = reattach_sensitive(
        result.anonymized, sensitive, index, table.attributes
    )
    dp_times = []
    for _ in range(PRIVACY_TIMING_RUNS):
        started = time.perf_counter()
        dp = noisy_class_histogram(
            result.anonymized, task.epsilon, seed=task.base_seed + task.k
        )
        dp_times.append(time.perf_counter() - started)
    # adversary knows every quasi-identifier, never the sensitive value
    aux = [column for column in range(table.degree) if column != index]
    report = projection_attack(released, table, aux, sensitive=index)
    return {
        "k": task.k,
        "algorithm": algorithm.name,
        "stars": result.stars,
        "fraction_unique": report.fraction_unique,
        "min_match": report.min_match,
        "mean_match": report.mean_match,
        "inference_accuracy": report.inference_accuracy,
        "solve_seconds": statistics.median(solve_times),
        "dp_seconds": statistics.median(dp_times),
        "classes": len(dp["classes"]),
        "instance_hash": table_hash(table),
        "trace": result.extras.get("trace"),
    }


def _privacy_record_point(record: dict[str, Any]) -> PrivacyPoint:
    return PrivacyPoint(
        k=record["k"], stars=record["stars"],
        fraction_unique=record["fraction_unique"],
        min_match=record["min_match"], mean_match=record["mean_match"],
        inference_accuracy=record["inference_accuracy"],
        solve_seconds=record["solve_seconds"],
        dp_seconds=record["dp_seconds"], classes=record["classes"],
    )


def privacy_experiment(
    n: int = 120,
    ks: tuple[int, ...] = (1, 2, 3, 5),
    algorithm: "Anonymizer | str | None" = None,
    epsilon: float = 1.0,
    base_seed: int = 0,
    timeout: float | None = None,
    trace: bool | None = None,
    jobs: int = 1,
    store: RunStore | None = None,
) -> PrivacyExperiment:
    """E25: what k buys against a linkage adversary, and what DP costs.

    For each k, the census workload's quasi-identifiers are k-anonymized
    (the ``diagnosis`` column is held out as sensitive and reattached),
    a :func:`repro.privacy.attack.projection_attack` with full
    quasi-identifier auxiliary knowledge measures re-identification, and
    the ε-DP class-histogram post-pass is timed.  ``k=1`` is the
    no-anonymization baseline — every cell runs through the same solver
    path so the timing comparison is honest.

    *algorithm* defaults to ``center_cover``; a registry name, instance,
    or ``"auto"`` all work (see :func:`resolve_algorithm`).  ``jobs``
    runs k cells concurrently; ``store`` resumes a sweep, verifying each
    cell against the recorded workload hash.

    :raises ValueError: for an empty k tuple or a non-positive ε.
    """
    if not ks:
        raise ValueError("privacy_experiment needs at least one k")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    from repro.algorithms.center_cover import CenterCoverAnonymizer
    from repro.workloads import census_table

    algorithm = (
        CenterCoverAnonymizer() if algorithm is None
        else resolve_algorithm(algorithm)
    )
    points: list[PrivacyPoint | None] = [None] * len(ks)
    pending: list[int] = []
    workload_hash = table_hash(census_table(n, seed=base_seed))
    for index, k in enumerate(ks):
        key = f"k-{k}"
        if store is not None and store.done(key):
            store.check_instance(key, workload_hash)
            points[index] = _privacy_record_point(store.get(key))
            continue
        pending.append(index)

    tasks = [
        _PrivacyTask(n=n, k=ks[index], algorithm=algorithm,
                     epsilon=epsilon, base_seed=base_seed,
                     timeout=timeout, trace=trace)
        for index in pending
    ]
    for index, outcome in zip(pending,
                              run_tasks(_privacy_point, tasks, jobs)):
        points[index] = _privacy_record_point(outcome)
        if store is not None:
            store.record(
                f"k-{ks[index]}",
                **{name: value for name, value in outcome.items()
                   if name != "trace"},
                trace_summary=summarize_traces(
                    [outcome["trace"]] if outcome["trace"] else []
                ),
            )
    return PrivacyExperiment(
        algorithm=algorithm.name, n=n, epsilon=float(epsilon),
        points=tuple(points),  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class _ComparisonTask:
    table: Table
    k: int
    name: str
    factory: Callable[[], Anonymizer]
    timeout: float | None
    trace: bool | None


def _comparison_cell(task: _ComparisonTask) -> dict[str, Any]:
    algorithm = task.factory()
    started = time.perf_counter()
    result = algorithm.anonymize(
        task.table, task.k, timeout=task.timeout, trace=task.trace,
    )
    if not result.is_valid(task.table):
        raise AssertionError(f"{task.name} produced an invalid release")
    return {
        "name": task.name,
        "algorithm": algorithm.name,
        "k": task.k,
        "cost": result.stars,
        "elapsed_seconds": time.perf_counter() - started,
        "instance_hash": table_hash(task.table),
        "trace": result.extras.get("trace"),
    }


#: default E8 comparison line-up (registry names)
DEFAULT_COMPARISON_ALGORITHMS: tuple[str, ...] = (
    "center_cover", "mondrian", "kmember", "mst_forest", "datafly",
    "sorted_chunk", "random_partition",
)


def comparison(
    table: Table,
    k: int,
    algorithms: dict[str, Callable[[], Anonymizer]] | None = None,
    timeout: float | None = None,
    trace: bool | None = None,
    traces_out: dict[str, dict] | None = None,
    jobs: int = 1,
    store: RunStore | None = None,
) -> dict[str, int]:
    """Suppressed-cell counts per algorithm — one row of the E8 table.

    The default line-up is resolved through the registry
    (:data:`DEFAULT_COMPARISON_ALGORITHMS`); pass a ``{name: factory}``
    dict to override it (factories must be picklable for ``jobs > 1``).
    ``timeout`` / ``trace`` apply per call without
    mutating the constructed anonymizers; pass a dict as *traces_out*
    to collect each algorithm's run trace under its name.
    """
    if algorithms is None:
        algorithms = {
            name: registry.get(name).cls
            for name in DEFAULT_COMPARISON_ALGORITHMS
        }
    names = list(algorithms)
    costs: dict[str, int] = {}
    pending: list[str] = []
    for name in names:
        key = f"algorithm-{name}"
        if store is not None and store.done(key):
            store.check_instance(key, table_hash(table))
            costs[name] = store.get(key)["cost"]
            continue
        pending.append(name)

    tasks = [
        _ComparisonTask(table=table, k=k, name=name,
                        factory=algorithms[name], timeout=timeout,
                        trace=trace)
        for name in pending
    ]
    for name, outcome in zip(pending,
                             run_tasks(_comparison_cell, tasks, jobs)):
        costs[name] = outcome["cost"]
        if traces_out is not None and outcome["trace"] is not None:
            traces_out[name] = outcome["trace"]
        if store is not None:
            store.record(
                f"algorithm-{name}",
                **{key: value for key, value in outcome.items()
                   if key != "trace"},
                trace_summary=summarize_traces(
                    [outcome["trace"]] if outcome["trace"] else []
                ),
            )
    # report in the caller's order regardless of completion order
    return {name: costs[name] for name in names}

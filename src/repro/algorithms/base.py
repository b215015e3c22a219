"""Common interface for anonymization algorithms."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.core.anonymity import is_k_anonymous, suppressed_cell_count
from repro.core.partition import Cover, Partition, anonymize_partition
from repro.core.suppressor import Suppressor
from repro.core.table import Table


class InfeasibleAnonymizationError(ValueError):
    """Raised when no k-anonymization exists (fewer than k rows)."""


@dataclass(frozen=True)
class AnonymizationResult:
    """The output of an anonymization algorithm.

    :ivar anonymized: the released table ``t(V)``.
    :ivar suppressor: the suppressor ``t`` that produced it.
    :ivar partition: the (k, *)-partition inducing the suppression, when
        the algorithm is partition-based (None for e.g. Datafly).
    :ivar algorithm: the producing algorithm's name.
    :ivar k: the anonymity parameter.
    :ivar extras: algorithm-specific diagnostics (iteration counts,
        cover sizes, bound values, ...).
    """

    anonymized: Table
    suppressor: Suppressor
    partition: Partition | None
    algorithm: str
    k: int
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def stars(self) -> int:
        """Number of suppressed cells — the paper's objective value."""
        return suppressed_cell_count(self.anonymized)

    def is_valid(self, original: Table) -> bool:
        """True iff the output is a k-anonymous suppression of *original*."""
        try:
            Suppressor.from_tables(original, self.anonymized)
        except ValueError:
            return False
        return is_k_anonymous(self.anonymized, self.k)


class Anonymizer(abc.ABC):
    """Abstract base: produce a k-anonymous suppression of a table.

    Every anonymizer accepts a ``backend=`` argument — ``None`` (the
    numpy runtime backend), a backend name (``"python"`` names the
    reference oracle), or a
    :class:`repro.core.backend.DistanceBackend` instance — and routes
    all metric work (distances, diameters, ANON costs, group images)
    through it instead of ad-hoc tuple-level loops.

    :meth:`anonymize` is a template method: it resolves the backend,
    arms the wall-clock budget, opens a :class:`repro.instrument.Run`
    context, and delegates to the subclass's ``_anonymize``.  Tracing
    (``trace=True`` here or per call, or ``REPRO_TRACE=1`` in the
    environment) attaches a serializable run trace to
    ``result.extras["trace"]``; a budget (``budget=`` seconds or a
    :class:`repro.instrument.TimeBudget`) lets the iterative algorithms
    degrade gracefully on expiry (``extras["deadline_hit"]``) and makes
    the exact solvers raise
    :class:`repro.instrument.BudgetExceededError`.
    """

    #: short machine-readable identifier, overridden by subclasses
    name: str = "abstract"

    def __init__(self, backend=None, budget=None, trace=None):
        #: backend selector: None, a name, or a DistanceBackend instance
        self.backend = backend
        #: default wall-clock budget: None, seconds, or a TimeBudget
        self.budget = budget
        #: tracing default: None (honour REPRO_TRACE), True, or False
        self.trace = trace

    def anonymize(
        self,
        table: Table,
        k: int,
        *,
        backend=None,
        timeout=None,
        trace: bool | None = None,
    ) -> AnonymizationResult:
        """Return a k-anonymization of *table*.

        The keyword-only arguments override the instance defaults for
        this call only — the anonymizer itself is never mutated, so a
        caller-owned instance can safely be driven with different
        backends, budgets, or tracing per call.

        :param backend: per-call distance-backend selector.
        :param timeout: per-call wall-clock budget (seconds or a
            :class:`repro.instrument.TimeBudget`).
        :param trace: per-call tracing switch.
        :raises InfeasibleAnonymizationError: if ``0 < n < k``.
        :raises repro.instrument.BudgetExceededError: if an exact
            solver's budget expires with no feasible incumbent.
        """
        from repro.instrument import Run

        run = Run.start(
            algorithm=self.name,
            k=k,
            table=table,
            backend=self._backend_for(table, backend),
            budget=timeout if timeout is not None else getattr(self, "budget", None),
            trace=trace if trace is not None else getattr(self, "trace", None),
        )
        return run.finish(self._anonymize(table, k, run))

    @abc.abstractmethod
    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        """Subclass hook: produce the result using ``run.backend`` for
        metric work and polling ``run.budget`` at loop granularity."""

    # ------------------------------------------------------------------
    # Shared plumbing for subclasses
    # ------------------------------------------------------------------

    def _backend_for(self, table: Table, override=None):
        """The resolved :class:`DistanceBackend` for *table*."""
        from repro.core.backend import get_backend

        selector = override if override is not None else getattr(
            self, "backend", None
        )
        return get_backend(table, selector)

    def _check_feasible(self, table: Table, k: int) -> None:
        if k < 1:
            raise ValueError("k must be a positive integer")
        if 0 < table.n_rows < k:
            raise InfeasibleAnonymizationError(
                f"{table.n_rows} rows cannot be {k}-anonymized"
            )

    def _result_from_partition(
        self,
        table: Table,
        k: int,
        partition: Cover,
        extras: dict[str, Any] | None = None,
        run=None,
    ) -> AnonymizationResult:
        """Anonymize along a partition and wrap the result."""
        if not isinstance(partition, Partition):
            partition = Partition(
                partition.groups, partition.n_rows, partition.k,
                k_max=partition.k_max,
            )
        backend = run.backend if run is not None else self._backend_for(table)
        if run is not None:
            with run.phase("suppress"):
                anonymized, suppressor = anonymize_partition(
                    table, partition, backend=backend
                )
        else:
            anonymized, suppressor = anonymize_partition(
                table, partition, backend=backend
            )
        return AnonymizationResult(
            anonymized=anonymized,
            suppressor=suppressor,
            partition=partition,
            algorithm=self.name,
            k=k,
            extras=extras or {},
        )

    def _empty_result(self, table: Table, k: int) -> AnonymizationResult:
        """Result for the zero-row table (vacuously k-anonymous)."""
        suppressor = Suppressor({}, n_rows=0, degree=table.degree)
        return AnonymizationResult(
            anonymized=table,
            suppressor=suppressor,
            partition=None,
            algorithm=self.name,
            k=k,
            extras={},
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

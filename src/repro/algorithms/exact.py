"""Exact optimal k-anonymity (exponential time — for ground truth).

The problem is NP-hard (Theorem 3.1), so exact solvers necessarily take
exponential time; they exist to provide ``OPT(V)`` on the small instances
against which the approximation experiments measure ratios.

* :func:`optimal_anonymization` — dynamic programming over row subsets.
  Sound because WLOG optimal partitions use groups of size at most
  ``2k - 1`` (Section 4.1: splitting a group never increases ANON).
* :func:`brute_force_optimal` — enumerate *all* partitions into groups of
  size >= k (restricted-growth strings); cross-checks the DP on tiny n.
* :func:`optimal_attribute_suppression` — exact solver for
  k-ANONYMITY-ON-ATTRIBUTES (Theorem 3.2's problem): the minimum number
  of whole columns to suppress.
"""

from __future__ import annotations

from itertools import combinations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.distance import disagreeing_coordinates
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register
from repro.theory import exact_bound

_INF = float("inf")


def optimal_anonymization(
    table: Table, k: int, group_max: int | None = None, backend=None,
    budget=None,
) -> tuple[int, Partition]:
    """Exact ``OPT(V)`` and an optimal (k, 2k-1)-partition by subset DP.

    Delegates to the shared engine
    :func:`repro.algorithms.partition_dp.minimum_cost_partition` with
    ``ANON(S) = |S| * |disagreeing coordinates|`` as the group cost —
    sound because splitting a group never increases ANON (Section 4.1's
    WLOG), so groups of size at most ``2k - 1`` suffice.

    Runtime roughly ``O(2^n * C(n, 2k-1))`` — use only for n up to ~16.

    :param budget: optional wall-clock allowance (seconds or a
        :class:`~repro.instrument.TimeBudget`), forwarded to the DP
        engine.
    :raises ValueError: if ``0 < n < k``.
    :raises repro.instrument.BudgetExceededError: if *budget* expires
        before the optimum is proven.
    """
    from repro.algorithms.partition_dp import minimum_cost_partition
    from repro.core.backend import get_backend

    n = table.n_rows
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return 0, Partition([], 0, k)
    if n < k:
        raise ValueError(f"{n} rows cannot be {k}-anonymized")
    resolved = get_backend(table, backend)

    def group_cost(members: tuple[int, ...]) -> float:
        return resolved.anon_cost(members)

    opt, groups = minimum_cost_partition(n, k, group_cost,
                                         group_max=group_max, budget=budget)
    upper = min((2 * k - 1) if group_max is None else group_max, n)
    return int(opt), Partition(groups, n, k, k_max=upper)


def brute_force_optimal(table: Table, k: int) -> int:
    """``OPT(V)`` by enumerating every partition into groups of size >= k.

    Exponential in the worst way (Bell-number growth) — only for n <= 10,
    as an independent cross-check of :func:`optimal_anonymization`.
    """
    n = table.n_rows
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return 0
    if n < k:
        raise ValueError(f"{n} rows cannot be {k}-anonymized")
    rows = table.rows
    best = _INF

    def extend(assignment: list[int], n_blocks: int) -> None:
        nonlocal best
        i = len(assignment)
        if i == n:
            sizes = [0] * n_blocks
            for block in assignment:
                sizes[block] += 1
            if all(size >= k for size in sizes):
                cost = 0
                for block in range(n_blocks):
                    members = [rows[j] for j in range(n) if assignment[j] == block]
                    cost += len(members) * len(disagreeing_coordinates(members))
                if cost < best:
                    best = cost
            return
        for block in range(n_blocks):
            assignment.append(block)
            extend(assignment, n_blocks)
            assignment.pop()
        assignment.append(n_blocks)
        extend(assignment, n_blocks + 1)
        assignment.pop()

    extend([0], 1)
    assert best != _INF
    return int(best)


@register(
    "exact_dp",
    kind="exact",
    bound=exact_bound,
    bound_label="1 — provably optimal",
    aliases=("exact", "partition_dp"),
    summary="subset-DP exact optimum (the partition-DP engine); n <= ~16",
)
class ExactAnonymizer(Anonymizer):
    """Anonymizer facade over :func:`optimal_anonymization`.

    A time budget makes the solver fail fast instead of hanging: the
    subset DP has no feasible incumbent mid-flight, so on expiry it
    raises :class:`~repro.instrument.BudgetExceededError`.
    """

    name = "exact_dp"

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        with run.phase("dp"):
            opt, partition = optimal_anonymization(
                table, k, backend=run.backend, budget=run.budget
            )
        # the DP minimises the partition's ANON cost; on a table that
        # already holds ``*`` cells the release's star count differs
        assert partition.anon_cost(table, run.backend) == opt
        return self._result_from_partition(table, k, partition,
                                           {"opt": opt}, run=run)


def optimal_attribute_suppression(table: Table, k: int) -> tuple[int, frozenset[int]]:
    """Exact k-ANONYMITY-ON-ATTRIBUTES: fewest whole columns to star.

    Searches subsets of columns by increasing suppression count, checking
    whether the projection onto the *kept* columns is k-anonymous.
    ``O(2^m * n)`` — Theorem 3.2 says no polynomial algorithm is expected.
    For wider tables use
    :func:`optimal_attribute_suppression_branch_bound`, which prunes via
    the anti-monotonicity of feasibility.

    :returns: ``(count, suppressed_column_indices)``.
    :raises ValueError: if ``0 < n < k`` (even suppressing everything
        cannot reach k-anonymity).
    """
    from collections import Counter

    n, m = table.n_rows, table.degree
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return 0, frozenset()
    if n < k:
        raise ValueError(f"{n} rows cannot be {k}-anonymized")
    rows = table.rows
    for suppressed_count in range(m + 1):
        for suppressed in combinations(range(m), suppressed_count):
            hidden = set(suppressed)
            kept = [j for j in range(m) if j not in hidden]
            counts = Counter(tuple(row[j] for j in kept) for row in rows)
            if all(c >= k for c in counts.values()):
                return suppressed_count, frozenset(suppressed)
    raise AssertionError("suppressing all attributes is always k-anonymous for n >= k")


def optimal_attribute_suppression_branch_bound(
    table: Table, k: int
) -> tuple[int, frozenset[int]]:
    """Exact attribute suppression for wider tables, by branch and bound.

    Feasibility ("the projection onto this kept set is k-anonymous") is
    *downward-closed*: dropping kept columns coarsens the equivalence
    classes, so subsets of feasible kept-sets stay feasible.  The search
    therefore walks kept-sets depth-first (include/exclude the next
    column), pruning branches whose kept set is already infeasible —
    no superset can recover — and branches that cannot beat the
    incumbent's kept-count.

    Columns are ordered by ascending distinct-value count so cheap,
    likely-keepable columns are decided first (better early incumbents).

    :returns: same contract as :func:`optimal_attribute_suppression`.
    """
    from collections import Counter

    n, m = table.n_rows, table.degree
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return 0, frozenset()
    if n < k:
        raise ValueError(f"{n} rows cannot be {k}-anonymized")
    rows = table.rows
    order = sorted(
        range(m), key=lambda j: (len({row[j] for row in rows}), j)
    )

    def feasible(kept: tuple[int, ...]) -> bool:
        counts = Counter(tuple(row[j] for j in kept) for row in rows)
        return all(c >= k for c in counts.values())

    best_kept: tuple[int, ...] = ()
    assert feasible(())  # the empty projection is always k-anonymous

    def dfs(index: int, kept: tuple[int, ...]) -> None:
        nonlocal best_kept
        if len(kept) + (m - index) <= len(best_kept):
            return  # cannot beat the incumbent
        if index == m:
            if len(kept) > len(best_kept):
                best_kept = kept
            return
        column = order[index]
        extended = kept + (column,)
        if feasible(extended):
            dfs(index + 1, extended)
        dfs(index + 1, kept)

    dfs(0, ())
    suppressed = frozenset(range(m)) - frozenset(best_kept)
    return len(suppressed), suppressed

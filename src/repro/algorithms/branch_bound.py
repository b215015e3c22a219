"""Exact optimal k-anonymity by branch and bound.

A depth-first search over canonical partitions (the lowest-indexed
ungrouped row always seeds the next group, so each partition is visited
once), pruned with:

* an incumbent from the strongly polynomial Theorem 4.2 algorithm, and
* a Lemma 4.1-flavoured lower bound: a row ``v`` grouped with at least
  ``k - 1`` others pays at least its distance to its ``(k-1)``-th nearest
  neighbour among the still-ungrouped rows (its group is drawn entirely
  from them under canonical seeding).

Slower per node than the subset DP of :mod:`repro.algorithms.exact`, but
the pruning usually reaches somewhat larger ``n``, and it provides an
independent exact implementation for cross-checks.

The search honours a real wall-clock budget (``timeout=`` on
``anonymize`` or ``budget=`` on the constructor): the deadline is
checked at every node and candidate group, and on expiry the best
incumbent found so far — always a valid k-anonymous release, never
worse than the Theorem 4.2 seed — is returned with
``extras["deadline_hit"]`` set and ``extras["proven_optimal"]`` False.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.algorithms.center_cover import CenterCoverAnonymizer
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register
from repro.theory import exact_bound


class _OutOfTime(Exception):
    """Internal unwind signal: the budget expired mid-search."""


@register(
    "branch_bound",
    kind="exact",
    anytime=True,
    bound=exact_bound,
    bound_label="1 — provably optimal (anytime under a budget)",
    summary="Lemma 4.1-pruned exact DFS; returns incumbent on deadline",
    applicable=lambda n, m, sigma, k: k <= n <= 18,
    # Lemma 4.1 pruning buys roughly a constant factor over the raw
    # 2^n * n^2 subset-DP model on random tables
    cost_model=lambda n, m, sigma, k: (2.0 ** n) * n * n / 8.0,
)
class BranchBoundAnonymizer(Anonymizer):
    """Exact solver; practical up to roughly n = 18 with small k.

    With a time budget the solver becomes an anytime algorithm: it
    returns the best incumbent when the clock runs out instead of the
    proven optimum.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 0), (0, 1), (1, 1)])
    >>> BranchBoundAnonymizer().anonymize(t, 2).stars
    2
    """

    name = "branch_bound"

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        best, partition, nodes, proven = self._search(table, k, run)
        run.count("nodes", nodes)
        if proven:
            extras = {"opt": best, "nodes": nodes, "proven_optimal": True}
        else:
            extras = {
                "incumbent": best, "nodes": nodes, "proven_optimal": False,
            }
        # the search minimises the partition's ANON cost; on a table
        # that already holds ``*`` cells the release's star count differs
        assert partition.anon_cost(table, run.backend) == best
        return self._result_from_partition(table, k, partition, extras,
                                           run=run)

    # ------------------------------------------------------------------

    def _search(
        self, table: Table, k: int, run
    ) -> tuple[int, Partition, int, bool]:
        n = table.n_rows
        resolved = run.backend
        budget = run.budget
        with run.phase("bound_setup"):
            dist = resolved.distance_matrix()
        upper_size = min(2 * k - 1, n)

        # Incumbent from the polynomial approximation algorithm.
        with run.phase("incumbent"):
            incumbent = CenterCoverAnonymizer(backend=resolved).anonymize(
                table, k
            )
        best_cost = incumbent.stars
        assert incumbent.partition is not None
        best_groups: list[frozenset[int]] = list(incumbent.partition.groups)

        def group_cost(members: tuple[int, ...]) -> int:
            return resolved.anon_cost(members)

        def lower_bound(unassigned: list[int]) -> int:
            if not unassigned:
                return 0
            bound = 0
            for v in unassigned:
                others = [dist[v][u] for u in unassigned if u != v]
                if len(others) >= k - 1 and k > 1:
                    bound += heapq.nsmallest(k - 1, others)[-1]
            return bound

        nodes = 0
        current: list[tuple[int, ...]] = []

        def dfs(unassigned: list[int], cost: int) -> None:
            nonlocal best_cost, best_groups, nodes
            if budget.expired():
                raise _OutOfTime
            nodes += 1
            if not unassigned:
                if cost < best_cost:
                    best_cost = cost
                    best_groups = [frozenset(g) for g in current]
                return
            if cost + lower_bound(unassigned) >= best_cost:
                return
            seed, rest = unassigned[0], unassigned[1:]
            remaining = len(unassigned)
            for size in range(k, min(upper_size, remaining) + 1):
                if 0 < remaining - size < k:
                    continue
                for mates in combinations(rest, size - 1):
                    if budget.expired():
                        raise _OutOfTime
                    members = (seed, *mates)
                    added = group_cost(members)
                    if cost + added >= best_cost:
                        continue
                    mate_set = set(mates)
                    current.append(members)
                    dfs([u for u in rest if u not in mate_set], cost + added)
                    current.pop()

        proven = True
        with run.phase("search"):
            try:
                dfs(list(range(n)), 0)
            except _OutOfTime:
                proven = False
                run.mark_deadline_hit()
        partition = Partition(best_groups, n, k,
                              k_max=max([2 * k - 1] + [len(g) for g in best_groups]))
        return best_cost, partition, nodes, proven

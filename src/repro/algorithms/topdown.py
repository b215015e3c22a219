"""Top-down greedy splitting (in the spirit of Xu et al. 2006's TDS).

Mondrian cuts on attribute medians; top-down greedy cuts on *cost*:
starting from one all-rows group, repeatedly bisect a group by picking
two far-apart seed rows and assigning every other member to the nearer
seed, accepting the split only if it is feasible (both sides >= k) and
strictly reduces the total ANON cost.  Groups that cannot be profitably
split stay whole.

Compared to Mondrian this follows the objective directly (no axis
alignment), and compared to k-member it is top-down, so early decisions
see the whole table.  O(n^2) per level in the worst case.
"""

from __future__ import annotations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register


def _bisect(backend, members: list[int], k: int
            ) -> tuple[list[int], list[int]] | None:
    """Seed-based bisection; None if no feasible improving split exists."""
    if len(members) < 2 * k:
        return None

    def sweep(center: int) -> tuple[int, dict[int, int]]:
        """The member farthest from *center* (ties to the largest index)
        and every member's distance to *center*, from one vector call."""
        dists = backend.distances_from(center, members)
        return max(zip(dists, members))[1], dict(zip(members, dists))

    # seeds: the (approximate) diameter pair, found by double sweep
    seed_a, _ = sweep(members[0])
    seed_b, dist_a = sweep(seed_a)
    if seed_a == seed_b:
        return None  # all rows identical; splitting gains nothing
    _, dist_b = sweep(seed_b)
    side_a, side_b = [seed_a], [seed_b]
    rest = [i for i in members if i not in (seed_a, seed_b)]
    # decide the most polarized rows first for stability
    rest.sort(key=lambda i: (-abs(dist_a[i] - dist_b[i]), i))
    for i in rest:
        da, db = dist_a[i], dist_b[i]
        if da < db or (da == db and len(side_a) <= len(side_b)):
            side_a.append(i)
        else:
            side_b.append(i)
    # rebalance undersized sides by moving the nearest non-seed members
    # from the other side (total >= 2k guarantees this terminates)
    while len(side_a) < k:
        mover = min(side_b[1:], key=lambda i: (dist_a[i], i))
        side_b.remove(mover)
        side_a.append(mover)
    while len(side_b) < k:
        mover = min(side_a[1:], key=lambda i: (dist_b[i], i))
        side_a.remove(mover)
        side_b.append(mover)
    # Accept any split that does not increase total cost.  Equal-cost
    # splits matter: with several clusters per side the disagreement set
    # stays maximal until clusters are fully separated, so insisting on
    # strict improvement would freeze at the root.  Termination is by
    # size: both sides are strictly smaller.
    if (backend.anon_cost(side_a) + backend.anon_cost(side_b)
            > backend.anon_cost(members)):
        return None
    return side_a, side_b


@register(
    "topdown_greedy",
    kind="heuristic",
    aliases=("topdown",),
    summary="cost-driven top-down bisection (TDS-style)",
)
class TopDownGreedyAnonymizer(Anonymizer):
    """Cost-driven top-down bisection.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (9, 9), (9, 8)])
    >>> TopDownGreedyAnonymizer().anonymize(t, 2).stars
    4
    """

    name = "topdown_greedy"

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        n = table.n_rows
        if n == 0:
            return self._empty_result(table, k)
        backend = run.backend
        final: list[list[int]] = []
        stack: list[list[int]] = [list(range(n))]
        splits = 0
        with run.phase("split"):
            while stack:
                members = stack.pop()
                division = _bisect(backend, members, k)
                if division is None:
                    final.append(members)
                else:
                    splits += 1
                    stack.extend(division)
        run.count("splits", splits)
        k_max = max([2 * k - 1] + [len(g) for g in final])
        partition = Partition(
            [frozenset(g) for g in final], n, k, k_max=k_max
        )
        return self._result_from_partition(
            table, k, partition, {"splits": splits, "groups": len(final)},
            run=run,
        )

"""The Reduce procedure (Section 4.2.2): cover -> partition.

``Reduce`` repeatedly eliminates double coverage: if a vector ``v`` lies
in two chosen sets, either it is removed from a set that has more than
``k`` members (removal only shrinks diameters), or — when both sets have
exactly ``k`` members — the two sets are merged (the union has at most
``2k - 1`` members since ``v`` is shared, and by the triangle inequality
of Figure 1 the union's diameter is at most the sum of the two
diameters).  Either way the diameter sum never increases, and each step
removes a membership or a set, so at most ``|V|`` repetitions suffice.
"""

from __future__ import annotations

from collections import deque

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.partition import Cover, Partition
from repro.core.table import Table
from repro.registry import register


def reduce_cover(cover: Cover) -> Partition:
    """Convert a (k, *)-cover into a (k, *)-partition per Section 4.2.2.

    The resulting partition covers the same rows, has groups of size at
    least ``k``, and (as the paper proves and the tests verify) its
    diameter sum never exceeds the cover's.

    >>> from repro.core.partition import Cover
    >>> c = Cover([{0, 1}, {1, 2}], n_rows=3, k=2)
    >>> sorted(len(g) for g in reduce_cover(c).groups)
    [3]
    """
    k = cover.k
    groups: list[set[int] | None] = [set(g) for g in cover.groups]
    owners: dict[int, set[int]] = {}
    for gid, group in enumerate(groups):
        assert group is not None
        for v in group:
            owners.setdefault(v, set()).add(gid)

    worklist: deque[int] = deque(
        v for v in sorted(owners) if len(owners[v]) >= 2
    )

    while worklist:
        v = worklist.popleft()
        gids = owners[v]
        if len(gids) < 2:
            continue
        i, j = sorted(gids)[:2]
        set_i, set_j = groups[i], groups[j]
        assert set_i is not None and set_j is not None
        if len(set_i) > k or len(set_j) > k:
            # Remove v from the larger set (ties resolved toward the
            # later set); the larger set strictly exceeds k, so it stays
            # feasible, and removing an element never grows a diameter.
            target = i if len(set_i) > len(set_j) else j
            target_set = groups[target]
            assert target_set is not None
            target_set.remove(v)
            owners[v].discard(target)
        else:
            # Both sets have exactly k members: replace them with their
            # union (size <= 2k - 1 because v is in both).
            for u in set_j:
                owners[u].discard(j)
                if u not in set_i:
                    set_i.add(u)
                    owners[u].add(i)
                if len(owners[u]) >= 2:
                    worklist.append(u)
            groups[j] = None
        if len(owners[v]) >= 2:
            worklist.append(v)

    final = [frozenset(g) for g in groups if g]
    k_max = max(
        [2 * k - 1] + [len(g) for g in final]
    )
    return Partition(final, cover.n_rows, k, k_max=k_max)


def reduce_and_shrink(table: Table, cover: Cover, backend=None) -> Partition:
    """Reduce, then split any group larger than ``2k - 1``.

    The splitting step implements the Section 4.1 WLOG argument so the
    output is a genuine (k, 2k-1)-partition, as Corollary 4.1's cost
    accounting requires.  Splitting never increases ANON cost (subgroups
    disagree on no more coordinates than the parent group).
    """
    from repro.core.partition import split_into_small_groups

    partition = reduce_cover(cover)
    if all(len(g) <= 2 * cover.k - 1 for g in partition.groups):
        return Partition(partition.groups, cover.n_rows, cover.k)
    small = split_into_small_groups(table, partition.groups, cover.k,
                                    backend=backend)
    return Partition(small, cover.n_rows, cover.k)


@register(
    "reduce_cover",
    kind="heuristic",
    summary="every row's tightest k-ball, then Reduce — no greedy phase",
)
class ReduceCoverAnonymizer(Anonymizer):
    """Showcase Reduce as a standalone algorithm.

    Phase 1 of the paper's cover algorithms picks balls *greedily*; this
    heuristic skips the greedy selection entirely: it takes **every**
    row's tightest ball of at least ``k`` members (the row plus its
    ``k - 1`` nearest neighbours, extended through distance ties) as a
    massively redundant cover, and lets the Section 4.2.2 ``Reduce``
    procedure do all the work of eliminating the double coverage.
    ``O(n^2 m)`` for the distances plus near-linear Reduce — cheaper
    than the greedy cover's lazy-ratio loop, with no approximation
    guarantee.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (5, 5), (5, 5)])
    >>> result = ReduceCoverAnonymizer().anonymize(t, 2)
    >>> result.is_valid(t)
    True
    """

    name = "reduce_cover"

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        n = table.n_rows
        backend = run.backend
        with run.phase("cover"):
            # each center's tightest ball of >= k members is its first
            # candidate: candidates come in (center, radius) order
            balls: set[frozenset[int]] = set()
            previous = -1
            centers, radii, _ = backend.ball_candidates(k)
            for c, r in zip(centers.tolist(), radii.tolist()):
                if c != previous:
                    balls.add(frozenset(backend.neighbors_within(c, r)))
                    previous = c
            groups = sorted(balls, key=sorted)
            k_max = max([2 * k - 1] + [len(g) for g in groups])
            cover = Cover(groups, n, k, k_max=k_max)
        with run.phase("reduce"):
            partition = reduce_and_shrink(table, cover, backend=backend)
        run.count("cover_sets", len(groups))
        extras = {
            "cover_sets": len(groups),
            "partition_groups": len(partition.groups),
        }
        return self._result_from_partition(table, k, partition, extras,
                                           run=run)

"""Greedy k-member clustering (Byun et al. 2007), suppression flavour.

A locality-aware baseline: repeatedly seed a cluster with the record
farthest from the previous seed, then grow it one record at a time,
always adding the record that increases the cluster's ANON cost least,
until the cluster has ``k`` members.  Remaining records (fewer than k)
are each appended to the cluster whose ANON cost they increase least.

Cluster growth runs on the backend's incremental
:class:`~repro.core.backend.MutableGroupStats` — each candidate is
scored by an O(m) what-if query instead of re-scanning the cluster.
"""

from __future__ import annotations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register


@register(
    "kmember",
    kind="heuristic",
    summary="greedy k-member clustering (furthest-first seeding)",
)
class KMemberAnonymizer(Anonymizer):
    """Greedy k-member clustering.

    Deterministic: the first seed is row 0; later seeds are the
    unassigned record farthest from the last cluster's seed (ties to the
    smallest index).

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (5, 5), (5, 6)])
    >>> result = KMemberAnonymizer().anonymize(t, 2)
    >>> result.stars
    4
    """

    name = "kmember"

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        n = table.n_rows
        if n == 0:
            return self._empty_result(table, k)
        backend = run.backend
        unassigned = set(range(n))
        clusters = []
        seeds: list[int] = []
        while len(unassigned) >= k:
            if clusters:
                # farthest from the previous seed, ties to the smallest index
                candidates = sorted(unassigned)
                dists = backend.distances_from(seeds[-1], candidates)
                seed = candidates[dists.index(max(dists))]
            else:
                seed = min(unassigned)
            stats = backend.group_stats([seed])
            seeds.append(seed)
            unassigned.remove(seed)
            while len(stats) < k:
                best = min(
                    unassigned,
                    key=lambda i: (stats.cost_if_add(i), i),
                )
                stats.add(best)
                unassigned.remove(best)
            clusters.append(stats)
        for leftover in sorted(unassigned):
            target = min(
                range(len(clusters)),
                key=lambda c: (
                    clusters[c].cost_if_add(leftover) - clusters[c].cost,
                    c,
                ),
            )
            clusters[target].add(leftover)
        k_max = max([2 * k - 1] + [len(c) for c in clusters])
        partition = Partition(
            [c.members for c in clusters], n, k, k_max=k_max
        )
        run.count("clusters", len(clusters))
        return self._result_from_partition(
            table, k, partition, {"clusters": len(clusters)}, run=run
        )

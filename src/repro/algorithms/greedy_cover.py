"""Theorem 4.1: greedy cover over all small subsets.

Phase 1 (Section 4.2.1) runs the classical greedy set-cover algorithm on
the collection ``C`` of *all* subsets of ``V`` with cardinality in
``[k, 2k-1]``, repeatedly choosing the set minimizing the ratio

    r(S) = d(S) / |S \\ D|

(diameter per newly covered vector).  Phase 2 applies Reduce.  Phase 3
suppresses each group to its common image.  The result is a
``3k(1 + ln 2k)``-approximation to optimal k-anonymity; the runtime is
``O(|V|^{2k})`` — exponential in k, so this algorithm is practical only
for small k (the paper notes k of 5 or 6 suffices in practice) and
modest n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.algorithms.reduce_cover import reduce_and_shrink
from repro.core.backend import get_backend
from repro.core.partition import Cover
from repro.core.table import Table
from repro.registry import register
from repro.theory import theorem_4_1_bound


def build_greedy_cover(
    table: Table, k: int, k_max: int | None = None, backend=None
) -> Cover:
    """Run ``Cover(V, C)`` over the full small-subset collection.

    :param table: the relation to cover.
    :param k: anonymity parameter; sets have cardinality in
        ``[k, k_max]`` with ``k_max`` defaulting to ``2k - 1``.
    :param backend: distance-backend selector (see
        :func:`repro.core.backend.get_backend`).
    :returns: a (k, k_max)-cover chosen greedily by diameter-per-new-vector.
    :raises ValueError: if ``0 < n < k`` (no valid cover exists).

    Deterministic: ties are broken toward smaller diameter, then
    lexicographically smaller member tuples.
    """
    n = table.n_rows
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return Cover([], 0, k, k_max=k_max)
    if n < k:
        raise ValueError(f"{n} rows cannot be covered by sets of size >= {k}")
    upper = (2 * k - 1) if k_max is None else k_max
    upper = min(upper, n)

    # Lazy per-row distances: subsets only ever index rows of their own
    # members, so the backend fills distance rows on demand instead of
    # materializing the full n x n nested-list matrix up front.
    metric = get_backend(table, backend)
    diameter_cache: dict[tuple[int, ...], int] = {}

    def subset_diameter(members: tuple[int, ...]) -> int:
        cached = diameter_cache.get(members)
        if cached is not None:
            return cached
        best = 0
        for a in range(len(members)):
            row = metric.distance_row(members[a])
            for b in range(a + 1, len(members)):
                d = row[members[b]]
                if d > best:
                    best = d
        diameter_cache[members] = best
        return best

    uncovered = set(range(n))
    chosen: list[frozenset[int]] = []
    iterations = 0
    while uncovered:
        iterations += 1
        best_key: tuple[Fraction, int, tuple[int, ...]] | None = None
        for size in range(k, upper + 1):
            for members in combinations(range(n), size):
                newly = sum(1 for v in members if v in uncovered)
                if newly == 0:
                    continue
                d = subset_diameter(members)
                key = (Fraction(d, newly), d, members)
                if best_key is None or key < best_key:
                    best_key = key
        assert best_key is not None, "uncovered rows imply a candidate exists"
        chosen.append(frozenset(best_key[2]))
        uncovered.difference_update(best_key[2])
    cover = Cover(chosen, n, k, k_max=upper)
    return cover


def _greedy_cover_applicable(n: int, m: int, sigma: int, k: int) -> bool:
    # the candidate collection has ~C(n, 2k-1) subsets; past a couple
    # million even enumerating them once is slower than every other tier
    return n >= k and math.comb(n, min(2 * k - 1, n)) <= 2_000_000


def _greedy_cover_cost(n: int, m: int, sigma: int, k: int) -> float:
    # ~35 ops per candidate subset per the E9 greedy series
    # (test_e9_greedy_scaling_in_n: n=14, k=3 -> C(14,5)=2002 -> 5.6 ms)
    return math.comb(n, min(2 * k - 1, n)) * 35.0 * k


@register(
    "greedy_cover",
    kind="approx",
    bound=theorem_4_1_bound,
    bound_label="3k(1+ln 2k) — Theorem 4.1",
    aliases=("greedy",),
    summary="greedy cover over all [k, 2k-1]-subsets; exponential in k",
    applicable=_greedy_cover_applicable,
    cost_model=_greedy_cover_cost,
)
class GreedyCoverAnonymizer(Anonymizer):
    """The full Theorem 4.1 pipeline: Cover -> Reduce -> suppress.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (1, 0), (1, 1)])
    >>> result = GreedyCoverAnonymizer().anonymize(t, 2)
    >>> result.is_valid(t)
    True
    """

    name = "greedy_cover"

    def __init__(self, k_max: int | None = None, backend=None,
                 budget=None, trace=None):
        super().__init__(backend=backend, budget=budget, trace=trace)
        self._k_max = k_max

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        resolved = run.backend
        with run.phase("cover"):
            cover = build_greedy_cover(
                table, k, k_max=self._k_max, backend=resolved
            )
        with run.phase("reduce"):
            partition = reduce_and_shrink(table, cover, backend=resolved)
        run.count("cover_sets", len(cover))
        with run.phase("stats"):
            extras = {
                "cover_sets": len(cover),
                "cover_diameter_sum": cover.diameter_sum(table, backend=resolved),
                "partition_diameter_sum": partition.diameter_sum(
                    table, backend=resolved
                ),
            }
        return self._result_from_partition(table, k, partition, extras, run=run)

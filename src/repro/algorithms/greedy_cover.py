"""Theorem 4.1: greedy cover over all small subsets, and the lazy greedy
set cover it shares with Theorem 4.2.

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

Theorem 4.2 (:mod:`repro.algorithms.center_cover`) runs the same greedy
over balls: both call :func:`lazy_greedy_cover`.  A candidate's diameter
is fixed and ``|S \\ D|`` only falls, so its ratio only rises: popping
candidates by first ratio and re-queueing those that rose past the next
one makes exactly the eager greedy's picks.
"""

from __future__ import annotations

import abc
import heapq
import math
from collections.abc import Callable
from fractions import Fraction
from itertools import chain, combinations
from operator import truediv
from typing import Any

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.algorithms.reduce_cover import reduce_and_shrink
from repro.core.backend import get_backend
from repro.core.partition import Cover
from repro.core.table import Table
from repro.registry import register
from repro.theory import theorem_4_1_bound

#: candidates turned into heap entries (and re-keyed) at a time
_CHUNK = 1024


def ratio_key(m: int, n: int) -> Callable[[int, int], float | Fraction]:
    """The greedy heap's key for a ratio ``d / q`` on an n-row, m-column table.

    Ratios have ``0 <= d <= m`` and ``1 <= q <= n``, so two distinct ones
    differ by at least ``1/n^2``, while rounding ``d / q`` to a float
    moves it by at most ``m * 2^-53``.  When ``m * n^2 < 2^52`` the float
    order is therefore exactly the ``Fraction`` order, ties included.
    Breaking that bound takes over 100 GB of distance matrix or table
    cells, so the ``Fraction`` branch is only a guard.
    """
    return truediv if m * n * n < 2 ** 52 else Fraction


def lazy_greedy_cover(
    m: int, n: int, d: Any, sizes: Any,
    members_of: Callable[[int], list[int]],
    rescore: Callable[[list[int]], int] | None = None,
    member_rows: Any = None,
) -> list[frozenset[int]]:
    """Greedy set cover of rows ``0..n-1`` by least ``d(S) / |S \\ D|``.

    Candidate ``i`` (indexed in tie-break order) has diameter or estimate
    ``d[i]`` and ``sizes[i]`` members, listed by ``members_of(i)``.  On
    its first pop *rescore*, if given, maps them to its exact diameter.
    With *member_rows* (members padded with ``-1``, one row each) each
    chunk is re-keyed by ``d`` before it is popped.  Returns the chosen
    sets in pick order.
    """
    import numpy as np

    ratio = ratio_key(m, n)
    ratios = d / sizes if ratio is truediv else np.array(
        list(map(ratio, d.tolist(), sizes.tolist())), dtype=object)
    uncovered = [True] * n
    # Candidates re-queued with a larger ratio go to a side heap, and a
    # pop takes the smaller of the two heads: the least stored key of
    # all, as one heap holding every candidate would.
    requeued: list[tuple] = []

    def ordered():
        # heap entries are (ratio, d, i): the index breaks ties, so a
        # stable lexsort on (ratio, d) of indices in ascending order
        # orders them.  Every ratio up to the _CHUNK-th least comes before
        # every larger one, so those are sorted first and the rest only
        # if the greedy gets that far.
        if ratio is not truediv or len(ratios) <= _CHUNK:
            yield np.lexsort((d, ratios))
            return
        head = ratios <= np.partition(ratios, _CHUNK - 1)[_CHUNK - 1]
        for part in (np.flatnonzero(head), np.flatnonzero(~head)):
            yield part[np.lexsort((d[part], ratios[part]))]

    def candidates():
        for order in ordered():
            for start in range(0, len(order), _CHUNK):
                taken = order[start:start + _CHUNK]
                if member_rows is not None:
                    # a candidate with no uncovered member is dropped, and one
                    # with some covered goes to the side heap under its
                    # current ratio; the last flag is the row a -1 pad reads
                    flags = np.array(uncovered + [False])
                    newly = np.count_nonzero(flags[member_rows[taken]], axis=1)
                    whole = newly == sizes[taken]
                    partly = ~whole & (newly > 0)
                    cut = d[taken[partly]].tolist()
                    for entry in zip(map(ratio, cut, newly[partly].tolist()), cut,
                                     taken[partly].tolist()):
                        heapq.heappush(requeued, entry)
                    taken = taken[whole]
                yield from zip(ratios[taken].tolist(), d[taken].tolist(),
                               taken.tolist())

    stream = candidates()
    upcoming = next(stream, None)
    remaining = n
    chosen: list[frozenset[int]] = []
    while remaining:
        first = not requeued or (upcoming is not None and upcoming < requeued[0])
        if first:
            _, diameter, i = upcoming
            upcoming = next(stream, None)
        else:
            _, diameter, i = heapq.heappop(requeued)
        members = members_of(i)
        newly = sum(1 for v in members if uncovered[v])
        if newly == 0:
            continue
        if first and rescore is not None:
            diameter = rescore(members)
        entry = (ratio(diameter, newly), diameter, i)
        if (requeued and entry > requeued[0]) or (
            upcoming is not None and entry > upcoming
        ):
            heapq.heappush(requeued, entry)
            continue
        chosen.append(frozenset(members))
        for v in members:
            uncovered[v] = False
        remaining -= newly
    return chosen


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
    :raises ValueError: if ``0 < n < k`` (no valid cover exists) or
        ``k_max < k``.

    Deterministic: ties are broken toward smaller diameter, then
    lexicographically smaller member tuples.
    """
    import numpy as np

    n = table.n_rows
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return Cover([], 0, k, k_max=k_max)
    if n < k:
        raise ValueError(f"{n} rows cannot be covered by sets of size >= {k}")
    upper = min((2 * k - 1) if k_max is None else k_max, n)
    if upper < k:  # n >= k here, so k_max < k
        raise ValueError("k_max must be at least k")

    # row and column n stay 0: the -1 that pads a small subset reads them
    dist = np.zeros((n + 1, n + 1), dtype=np.int64)
    dist[:n, :n] = get_backend(table, backend).distance_matrix()
    dtype = np.min_scalar_type(-n)
    rows = np.concatenate([np.pad(
        np.fromiter(chain.from_iterable(combinations(range(n), size)), dtype)
        .reshape(-1, size), ((0, 0), (0, upper - size)), constant_values=-1,
    ) for size in range(k, upper + 1)])
    # lexicographic order of member tuples: -1 pads sort first, so a
    # tuple comes before its extensions; a subset's rank is its tie-break
    rows = rows[np.lexsort(rows.T[::-1])]
    d = np.zeros(len(rows), dtype=dist.dtype)
    for a, b in combinations(range(upper), 2):
        np.maximum(d, dist[rows[:, a], rows[:, b]], out=d)
    sizes = np.count_nonzero(rows >= 0, axis=1)
    chosen = lazy_greedy_cover(
        table.degree, n, d, sizes, lambda i: rows[i, :sizes[i]].tolist(),
        member_rows=rows,
    )
    return Cover(chosen, n, k, k_max=upper)


class CoverReduceAnonymizer(Anonymizer):
    """Cover -> Reduce -> suppress, the pipeline of Theorems 4.1 and 4.2."""

    @abc.abstractmethod
    def _cover(self, table: Table, k: int, backend) -> tuple[Cover, dict]:
        """Phase 1: a (k, *)-cover, and the settings to report in extras."""

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        resolved = run.backend
        with run.phase("cover"):
            cover, settings = self._cover(table, k, resolved)
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
                **settings,
            }
        return self._result_from_partition(table, k, partition, extras, run=run)


def _greedy_cover_applicable(n: int, m: int, sigma: int, k: int) -> bool:
    # the candidate collection has ~C(n, 2k-1) subsets; past a couple
    # million even enumerating them once is slower than every other tier
    return n >= k and math.comb(n, min(2 * k - 1, n)) <= 2_000_000


def _greedy_cover_cost(n: int, m: int, sigma: int, k: int) -> float:
    # the distance matrix, priced as center_cover prices it, plus ~4k ops
    # per largest-size subset for the enumeration and the lazy greedy
    # (k=3 census and binary solves: n=20 14-26 ms, n=30 0.09-0.15 s,
    # n=40 0.49-0.62 s, against estimates of 16 ms, 0.14 s and 0.66 s)
    return float(n) * n * m + math.comb(n, min(2 * k - 1, n)) * 4.0 * k


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
class GreedyCoverAnonymizer(CoverReduceAnonymizer):
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

    def _cover(self, table: Table, k: int, backend) -> tuple[Cover, dict]:
        return build_greedy_cover(table, k, k_max=self._k_max, backend=backend), {}

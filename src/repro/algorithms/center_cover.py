"""Theorem 4.2: the strongly polynomial center/ball algorithm.

Instead of all ``O(|V|^{2k-1})`` small subsets, Phase 1 greedily covers
``V`` using only *balls*

    S_{c,r} = { v in V : d(c, v) <= r }

with centers ``c in V``.  The paper offers two parameterizations — radii
``i in {1..m}`` (``m |V|`` sets) or radii ``d(c, c')`` for ``c' in V``
(``|V|^2`` sets) — and advises using whichever is smaller.  As *set
families* the two coincide: ball membership only changes at radii that
are realized distances, so this module enumerates one candidate per
(center, realized radius) pair with at least ``k`` members.

Lemma 4.2 bounds ``d(S_{c,r}) <= 2r``, and Lemma 4.3 shows restricting to
balls costs at most a factor 2 in diameter sum; greedy then yields a
``6k(1 + ln m)``-approximation overall, in strongly polynomial time.

The greedy loop uses lazy evaluation (a priority queue of stale ratios,
re-evaluated on pop), exploiting that ``r(S) = d(S)/|S \\ D|`` only grows
as coverage ``D`` grows — the practical speedup the paper anticipates
("we are confident that this time bound can be significantly improved
using appropriate data structures").  A candidate ball is keyed by its
size alone, so candidates come from per-center radius counts
(:meth:`~repro.core.backend.DistanceBackend.ball_candidates`): on the
numpy backend one ``bincount`` over the cached distance matrix, a
``cumsum`` and a ``nonzero``, with no neighbour order sorted.  The
candidates are sorted once by the heap key (one ``lexsort``) and
consumed as a stream; only re-queued balls enter a heap, and a popped
ball reads its members back from one matrix row
(:meth:`~repro.core.backend.DistanceBackend.neighbors_within`).  The split of
oversized groups and the diameter statistics read the same matrix.  Heap
keys are float ratios ``d / p``, which order exactly like
``Fraction(d, p)`` for every table the solver can hold (see
:func:`ratio_key`).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator
from fractions import Fraction
from operator import truediv

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.algorithms.reduce_cover import reduce_and_shrink
from repro.core.backend import get_backend
from repro.core.partition import Cover
from repro.core.table import Table
from repro.registry import register
from repro.theory import theorem_4_2_bound


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


def _candidate_stream(m: int, ratio, centers, radii, sizes) -> Iterator[tuple]:
    """The ball candidates as greedy heap entries ``(ratio, diameter
    estimate, center, size, radius)``, in ascending order.

    *centers*, *radii* and *sizes* are arrays in (center, size) order,
    which is the key's tie-break order, so float ratios (see
    :func:`ratio_key`) need one stable ``lexsort`` on ``(ratio, diameter
    estimate)``; ``Fraction`` ratios sort in Python.  Entries are
    converted to Python tuples a chunk at a time as they are consumed.
    """
    import numpy as np

    d_est = np.minimum(2 * radii, m)
    if ratio is truediv:
        ratios = d_est / sizes
        order = np.lexsort((d_est, ratios))
    else:
        ratios = np.array(list(map(ratio, d_est.tolist(), sizes.tolist())),
                          dtype=object)
        order = sorted(range(len(ratios)),
                       key=lambda i: (ratios[i], d_est[i]))
    columns = (ratios, d_est, centers, sizes, radii)
    start, chunk = 0, 256
    while start < len(order):
        taken = order[start:start + chunk]
        yield from zip(*(column[taken].tolist() for column in columns))
        start += chunk
        chunk *= 2


def build_ball_cover(
    table: Table,
    k: int,
    diameter_mode: str = "radius_bound",
    backend=None,
) -> Cover:
    """Greedy set cover over center/radius balls (Phase 1 of Theorem 4.2).

    :param diameter_mode: how a candidate ball's diameter enters the
        greedy ratio: ``"radius_bound"`` uses Lemma 4.2's ``min(2r, m)``
        surrogate (strongly polynomial, the paper's accounting);
        ``"exact"`` computes true diameters (slower, sometimes better
        covers).
    :param backend: distance-backend selector (see
        :func:`repro.core.backend.get_backend`).
    :returns: a (k, n)-cover of the table by balls.
    :raises ValueError: on ``0 < n < k`` or an unknown mode.
    """
    if diameter_mode not in ("radius_bound", "exact"):
        raise ValueError(f"unknown diameter_mode {diameter_mode!r}")
    n = table.n_rows
    m = table.degree
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return Cover([], 0, k)
    if n < k:
        raise ValueError(f"{n} rows cannot be covered by sets of size >= {k}")

    metric = get_backend(table, backend)
    ratio = ratio_key(m, n)
    # Every candidate in heap-key order (ratio, diameter estimate, center,
    # size), plus the radius a popped ball's members are read back at;
    # tuples are built only as the stream is consumed.  Balls re-queued
    # with a larger ratio go to a side heap, and a pop takes the smaller
    # of the two heads.  Every (center, size) pair is unique, so these
    # are exactly the pops of one heap holding every candidate.
    stream = _candidate_stream(m, ratio, *metric.ball_candidates(k))
    upcoming = next(stream, None)
    requeued: list[tuple[float | Fraction, int, int, int, int]] = []

    # exact diameters of popped balls, kept out of the backend's memo:
    # that memo lives as long as the table, and most popped balls are
    # never chosen
    exact_diams: dict[tuple[int, int], int] = {}

    uncovered = [True] * n
    remaining = n
    chosen: list[frozenset[int]] = []
    while remaining:
        if requeued and (upcoming is None or requeued[0] < upcoming):
            _, d_est, c, p, r = heapq.heappop(requeued)
        else:
            _, d_est, c, p, r = upcoming
            upcoming = next(stream, None)
        members = metric.neighbors_within(c, r)
        newly = sum(1 for v in members if uncovered[v])
        if newly == 0:
            continue
        if diameter_mode == "exact":
            d_est = exact_diams.get((c, p))
            if d_est is None:
                d_est = metric._compute_diameter(tuple(members)) if p > 1 else 0
                exact_diams[(c, p)] = d_est
        entry = (ratio(d_est, newly), d_est, c, p, r)
        if (requeued and entry > requeued[0]) or (
            upcoming is not None and entry > upcoming
        ):
            heapq.heappush(requeued, entry)
            continue
        chosen.append(frozenset(members))
        for v in members:
            uncovered[v] = False
        remaining -= newly
    k_max = max([2 * k - 1] + [len(g) for g in chosen])
    return Cover(chosen, n, k, k_max=k_max)


@register(
    "center_cover",
    kind="approx",
    bound=theorem_4_2_bound,
    bound_label="6k(1+ln m) — Theorem 4.2",
    aliases=("center",),
    summary="greedy ball cover + Reduce; strongly polynomial workhorse",
)
class CenterCoverAnonymizer(Anonymizer):
    """The full Theorem 4.2 pipeline: ball Cover -> Reduce -> suppress.

    Strongly polynomial; the workhorse algorithm for non-toy tables.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (1, 0), (1, 1)] * 3)
    >>> result = CenterCoverAnonymizer().anonymize(t, 3)
    >>> result.is_valid(t)
    True
    """

    name = "center_cover"

    def __init__(self, diameter_mode: str = "radius_bound", backend=None,
                 budget=None, trace=None):
        super().__init__(backend=backend, budget=budget, trace=trace)
        if diameter_mode not in ("radius_bound", "exact"):
            raise ValueError(f"unknown diameter_mode {diameter_mode!r}")
        self._diameter_mode = diameter_mode

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        resolved = run.backend
        with run.phase("cover"):
            cover = build_ball_cover(
                table, k, diameter_mode=self._diameter_mode, backend=resolved
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
                "diameter_mode": self._diameter_mode,
            }
        return self._result_from_partition(table, k, partition, extras, run=run)

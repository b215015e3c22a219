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

The greedy is Theorem 4.1's lazy engine
(:func:`~repro.algorithms.greedy_cover.lazy_greedy_cover`): ratios only
grow as coverage ``D`` grows, the practical speedup the paper anticipates
("we are confident that this time bound can be significantly improved
using appropriate data structures").  A candidate ball is keyed by its
size alone, so candidates come from per-center radius counts
(:meth:`~repro.core.backend.DistanceBackend.ball_candidates`, one
``bincount`` over the cached distance matrix on numpy), and a popped
ball reads its members back from one matrix row
(:meth:`~repro.core.backend.DistanceBackend.neighbors_within`).
"""

from __future__ import annotations

from repro.algorithms.greedy_cover import (  # noqa: F401  (re-exports ratio_key)
    CoverReduceAnonymizer, lazy_greedy_cover, ratio_key,
)
from repro.core.backend import get_backend
from repro.core.partition import Cover
from repro.core.table import Table
from repro.registry import register
from repro.theory import theorem_4_2_bound


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
    centers, radii, sizes = metric.ball_candidates(k)  # in tie-break order
    chosen = lazy_greedy_cover(
        m, n, (2 * radii).clip(max=m), sizes,
        lambda i: metric.neighbors_within(centers.item(i), radii.item(i)),
        # not metric.diameter: its memo lives as long as the table, and
        # most popped balls are never chosen
        (lambda members: metric._compute_diameter(tuple(members)))
        if diameter_mode == "exact" else None,
    )
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
class CenterCoverAnonymizer(CoverReduceAnonymizer):
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

    def _cover(self, table: Table, k: int, backend) -> tuple[Cover, dict]:
        mode = self._diameter_mode
        cover = build_ball_cover(table, k, diameter_mode=mode, backend=backend)
        return cover, {"diameter_mode": mode}

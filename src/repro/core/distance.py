"""Distances, diameters, and the ANON cost (Definition 4.1 and Section 4.1).

* ``distance(u, v)`` — the number of coordinates where ``u`` and ``v``
  differ; a metric on ``Sigma^m`` (the Hamming distance for categorical
  vectors).
* ``diameter(S)`` — the maximum pairwise distance within a group.
* ``anon_cost(S)`` (paper: ``ANON(S)``) — the total number of cells that
  must be suppressed to make all vectors of ``S`` textually identical.

The key structural facts used throughout the paper, all of which the test
suite checks, are:

* ``anon_cost(S) == |S| * |disagreeing_coordinates(S)|`` — a coordinate
  either agrees across the whole group and survives, or disagrees
  somewhere and must be starred in *every* member.
* ``diameter(S) <= |disagreeing_coordinates(S)| <= (|S|-1) * diameter(S)``
  — which yields Lemma 4.1's sandwich between optimal anonymity cost and
  minimum diameter sums.
* the triangle inequality on diameters of overlapping sets (Figure 1):
  ``diameter(S1 | S2) <= diameter(S1) + diameter(S2)`` when they share a
  vector.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from repro.core.alphabet import STAR

Row = tuple[Hashable, ...]


def distance(u: Sequence[Hashable], v: Sequence[Hashable]) -> int:
    """Number of coordinates in which *u* and *v* differ (Definition 4.1).

    >>> distance((1, 0, 1, 0), (0, 1, 1, 0))
    2
    """
    if len(u) != len(v):
        raise ValueError(f"vectors of degrees {len(u)} and {len(v)} are incomparable")
    return sum(1 for a, b in zip(u, v) if a != b)


def differing_coordinates(u: Sequence[Hashable], v: Sequence[Hashable]) -> list[int]:
    """The coordinate positions where *u* and *v* differ."""
    if len(u) != len(v):
        raise ValueError(f"vectors of degrees {len(u)} and {len(v)} are incomparable")
    return [j for j, (a, b) in enumerate(zip(u, v)) if a != b]


def diameter(rows: Sequence[Sequence[Hashable]]) -> int:
    """Maximum pairwise distance within the group (the paper's ``d(S)``).

    Empty and singleton groups have diameter 0.  Short-circuits as soon
    as the running best reaches the degree ``m`` — the maximum possible
    Hamming distance — instead of finishing the O(|S|^2) scan.
    """
    rows = list(rows)
    if not rows:
        return 0
    degree = len(rows[0])
    best = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = distance(rows[i], rows[j])
            if d > best:
                best = d
                if best == degree:
                    return best
    return best


def radius_from(center: Sequence[Hashable], rows: Iterable[Sequence[Hashable]]) -> int:
    """Maximum distance from *center* to any row (used by ball covers)."""
    return max((distance(center, row) for row in rows), default=0)


def disagreeing_coordinates(rows: Sequence[Sequence[Hashable]]) -> list[int]:
    """Coordinates on which the group does not unanimously agree.

    These are exactly the coordinates a suppressor must star in every
    member to render the group textually identical.
    """
    rows = list(rows)
    if not rows:
        return []
    degree = len(rows[0])
    first = rows[0]
    return [
        j
        for j in range(degree)
        if any(row[j] != first[j] for row in rows[1:])
    ]


def group_image(rows: Sequence[Sequence[Hashable]]) -> Row:
    """The common anonymized vector of a group under minimal suppression.

    Agreeing coordinates keep their value; disagreeing ones become
    :data:`~repro.core.alphabet.STAR`.

    >>> group_image([(1, 0, 1, 0), (1, 1, 1, 0)])
    (1, *, 1, 0)
    """
    rows = list(rows)
    if not rows:
        raise ValueError("a group image needs at least one vector")
    starred = set(disagreeing_coordinates(rows))
    return tuple(
        STAR if j in starred else value for j, value in enumerate(rows[0])
    )


def anon_cost(rows: Sequence[Sequence[Hashable]]) -> int:
    """``ANON(S)``: cells that must be starred to make the group identical.

    Equals ``|S|`` times the number of disagreeing coordinates — optimal,
    because a disagreeing coordinate must be starred in every member and
    an agreeing one need not be starred at all.
    """
    rows = list(rows)
    return len(rows) * len(disagreeing_coordinates(rows))


# ----------------------------------------------------------------------
# Index-set variants (groups as sets of row indices into a table)
#
# These delegate to the table's shared DistanceBackend
# (:mod:`repro.core.backend`), so repeated queries about the same group
# hit the backend's memo.  Pass ``backend=`` to pin one explicitly.
# ----------------------------------------------------------------------


def group_rows(table, indices: Iterable[int]) -> list[Row]:
    """Materialize the rows of a group given by table-row indices."""
    rows = table.rows
    return [rows[i] for i in indices]


def diameter_of(table, indices: Iterable[int], backend=None) -> int:
    """``d(S)`` for a group of row indices of *table*."""
    from repro.core.backend import get_backend

    return get_backend(table, backend).diameter(indices)


def anon_cost_of(table, indices: Iterable[int], backend=None) -> int:
    """``ANON(S)`` for a group of row indices of *table*."""
    from repro.core.backend import get_backend

    return get_backend(table, backend).anon_cost(indices)


def group_image_of(table, indices: Iterable[int], backend=None) -> Row:
    """Anonymized common image for a group of row indices of *table*."""
    from repro.core.backend import get_backend

    return get_backend(table, backend).group_image(indices)


def pairwise_distance_matrix(table) -> list[list[int]]:
    """The full ``n x n`` distance matrix of a table's rows.

    Plain Python lists; for heavy numeric workloads prefer the backend
    layer's cached ``get_backend(table).distance_matrix()``.
    """
    rows = table.rows
    n = len(rows)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(rows[i], rows[j])
            matrix[i][j] = d
            matrix[j][i] = d
    return matrix


def is_consistent_suppression(original: Sequence[Hashable],
                              anonymized: Sequence[Hashable]) -> bool:
    """True iff *anonymized* is *original* with some cells starred.

    This is the per-vector condition ``t(v)[j] in {v[j], *}`` of
    Definition 2.1.
    """
    if len(original) != len(anonymized):
        return False
    return all(b is STAR or a == b for a, b in zip(original, anonymized))

"""Semantics of the radius-bucketed neighbor index on every backend.

``neighbor_order``/``neighbors_within`` are public ball queries, so
these tests pin down their contract: balls agree exactly with
brute-force filtering of the distance matrix, grow monotonically in the
radius, and are served from one cached distance row per center.  The
Theorem 4.2 solvers take ball sizes from ``ball_candidates`` and read
only popped balls' members back; the last two tests pin that they build
no neighbour order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.center_cover import build_ball_cover
from repro.algorithms.reduce_cover import ReduceCoverAnonymizer
from repro.core.backend import available_backends, make_backend
from repro.core.table import Table

from .conftest import count_scalar_distance, random_table

ALL_BACKENDS = list(available_backends())


def _example_table(n: int = 14, m: int = 4, sigma: int = 3) -> Table:
    return random_table(np.random.default_rng(5), n, m, sigma)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_neighbors_within_matches_brute_force(name):
    table = _example_table()
    backend = make_backend(table, name)
    matrix = [
        [backend.distance(i, j) for j in range(table.n_rows)]
        for i in range(table.n_rows)
    ]
    for center in range(table.n_rows):
        for r in range(-1, table.degree + 2):
            expected = sorted(
                v for v in range(table.n_rows) if matrix[center][v] <= r
            )
            assert sorted(backend.neighbors_within(center, r)) == expected


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_neighbors_within_is_monotone_in_radius(name):
    table = _example_table()
    backend = make_backend(table, name)
    for center in range(table.n_rows):
        previous: set[int] = set()
        for r in range(table.degree + 1):
            ball = set(backend.neighbors_within(center, r))
            assert previous <= ball
            previous = ball
        assert previous == set(range(table.n_rows))


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_neighbor_order_sorted_by_distance_then_index(name):
    table = _example_table()
    backend = make_backend(table, name)
    for center in range(table.n_rows):
        order, dists = backend.neighbor_order(center)
        assert len(order) == len(dists) == table.n_rows
        assert sorted(order) == list(range(table.n_rows))
        keyed = [(backend.distance(center, v), v) for v in order]
        assert keyed == sorted(keyed)
        assert list(dists) == [d for d, _ in keyed]
        assert order[0] == center and dists[0] == 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_neighbor_order_is_memoized(name):
    table = _example_table(n=9)
    backend = make_backend(table, name)
    first = backend.neighbor_order(3)
    built = backend.counters["neighbor_orders"]
    assert built == 1
    assert backend.neighbor_order(3) is first
    assert backend.counters["neighbor_orders"] == built
    assert backend.counters["neighbor_queries"] == 0
    backend.neighbors_within(3, 1)
    assert backend.counters["neighbor_queries"] == 1


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_ball_cover_never_materializes_full_matrix(name):
    """Theorem 4.2 enumeration: ball sizes from radius counts, no sorting.

    The cover reads every candidate ball's size off per-center radius
    counts and its members off one distance row, so it builds no
    neighbour order, makes no scalar ``distance`` call and never builds
    the nested-list matrix: the counters show exactly n distance rows
    (one numpy matrix on the accelerated backends).
    """
    table = _example_table(n=16)
    n = table.n_rows
    backend = make_backend(table, name)
    calls = count_scalar_distance(backend)
    cover = build_ball_cover(table, 3, backend=backend)
    assert set().union(*cover.groups) == set(range(n))
    assert backend._matrix is None
    assert backend.counters["neighbor_orders"] == 0
    assert calls[0] == 0
    assert backend.counters["matrix_rows"] == n


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_reduce_cover_uses_bucketed_balls(name):
    table = _example_table(n=15)
    backend = make_backend(table, name)
    calls = count_scalar_distance(backend)
    result = ReduceCoverAnonymizer(backend=backend).anonymize(table, 3)
    assert result.is_valid(table)
    assert backend._matrix is None
    assert backend.counters["neighbor_orders"] == 0
    assert calls[0] == 0
    assert backend.counters["matrix_rows"] == table.n_rows
    assert backend.counters["neighbor_queries"] == table.n_rows

"""Tests for the vectorized distance matrix fast path.

These exercise the backend layer's cached ``distance_matrix()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import STAR
from repro.core.backend import get_backend
from repro.core.distance import pairwise_distance_matrix
from repro.core.table import Table

from .conftest import random_table


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fast_matches_reference(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 12))
    m = int(rng.integers(1, 5))
    table = random_table(rng, n, m, 4)
    assert get_backend(table).distance_matrix() == pairwise_distance_matrix(
        table
    )


def test_starred_tables_fall_back_correctly():
    table = Table([(STAR, 1), (2, 1), (STAR, 3)])
    assert get_backend(table).distance_matrix() == pairwise_distance_matrix(
        table
    )


def test_mixed_type_values():
    table = Table([("a", 1), ("b", 1), ("a", 2)])
    fast = get_backend(table).distance_matrix()
    assert fast == [[0, 1, 1], [1, 0, 2], [2, 2, 0]] or fast == (
        pairwise_distance_matrix(table)
    )
    assert fast == pairwise_distance_matrix(table)


def test_degenerate_shapes():
    assert get_backend(Table([])).distance_matrix() == []
    assert get_backend(Table([(), ()])).distance_matrix() == [[0, 0], [0, 0]]
    assert get_backend(Table([(1,)])).distance_matrix() == [[0]]


def test_returns_plain_python_ints():
    table = Table([(0,), (1,)])
    matrix = get_backend(table).distance_matrix()
    assert type(matrix) is list
    assert type(matrix[0][1]) is int


"""The vectorised Theorem 4.2 solve path: operation counts and exact orders.

The solve path reads ball candidates off per-center radius counts (no
neighbour order is sorted), splits oversized groups with one vector
distance call per peel, and orders the greedy's candidates by float
ratios.
These tests pin down that the work really moved off per-element scalar
calls and that every shortcut orders exactly like the reference it
replaced (prefixes of ``sorted`` with a ``(distance, index)`` key, a
scalar-keyed split, ``Fraction`` ratios).
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.center_cover import (
    CenterCoverAnonymizer,
    build_ball_cover,
    ratio_key,
)
from repro.core.backend import available_backends, make_backend
from repro.core.partition import split_into_small_groups
from repro.core.table import Table
from repro.workloads import census_table, quasi_identifiers, uniform_table

from .conftest import count_scalar_distance, random_table

ALL_BACKENDS = list(available_backends())


# -- operation counts ----------------------------------------------------


@pytest.mark.parametrize("name", ALL_BACKENDS)
@pytest.mark.parametrize("shape", ["census", "binary"])
def test_center_cover_solve_makes_no_scalar_distance_calls(name, shape):
    if shape == "census":
        table, k = quasi_identifiers(census_table(200, seed=11)), 5
    else:
        table, k = uniform_table(200, 48, alphabet_size=2, seed=11), 4
    backend = make_backend(table, name)
    calls = count_scalar_distance(backend)
    result = CenterCoverAnonymizer(backend=backend).anonymize(table, k)
    assert result.is_valid(table)
    assert calls[0] == 0
    assert backend.counters["neighbor_orders"] == 0
    assert backend._matrix is None
    if name != "python":
        assert backend.counters["matrix_rows"] == table.n_rows


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_split_makes_one_vector_call_per_peel(name, monkeypatch):
    table = quasi_identifiers(census_table(120, seed=3))
    backend = make_backend(table, name)
    calls = count_scalar_distance(backend)
    vector_calls = [0]
    vector = backend._distances_array

    def counting(center, indices):
        vector_calls[0] += 1
        return vector(center, indices)

    monkeypatch.setattr(backend, "_distances_array", counting)
    groups = split_into_small_groups(table, [range(120)], 4, backend=backend)
    if name != "python":  # the reference backend's fallback is scalar
        assert calls[0] == 0
    # 120 rows peel 29 groups of 4 before the last 4..7 rows remain
    assert vector_calls[0] == len(groups) - 1 == 29


# -- distances_from ------------------------------------------------------


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_distances_from_matches_scalar_and_is_not_memoized(name):
    table = random_table(np.random.default_rng(2), 40, 6, 3)
    backend = make_backend(table, name)
    reference = make_backend(table, "python")
    for indices in ([], [7], [3, 1, 4, 1, 5], list(range(40)),
                    list(range(39, -1, -3))):
        expected = [reference.distance(5, i) for i in indices]
        assert backend.distances_from(5, indices) == expected
        assert backend.distances_from(5, iter(indices)) == expected
    assert backend._row_memo == {}
    assert backend.counters["matrix_rows"] == 0
    # a memoized row serves later calls
    row = backend.distance_row(5)
    assert backend.distances_from(5, [0, 39, 5]) == [row[0], row[39], 0]
    assert backend.radius_from(5, range(40)) == max(row)
    assert backend.radius_from(5, []) == 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_diameters_batch_equals_one_group_at_a_time(name):
    table = random_table(np.random.default_rng(4), 40, 6, 3)
    backend = make_backend(table, name)
    if name == "numpy":
        backend.matrix_array()  # the batched gather reads the cached matrix
    reference = make_backend(table, "python")
    groups = [range(40), [3], [], [1, 2], [5, 9, 11], [0, 7, 8], [8, 7, 0],
              [2, 4, 6, 8], range(0, 40, 3)]
    expected = [
        reference._compute_diameter(tuple(sorted(set(g)))) if len(set(g)) > 1
        else 0
        for g in groups
    ]
    assert backend.diameters(groups) == expected
    scans = backend.counters["full_group_scans"]
    assert backend.diameters(groups) == expected
    assert backend.counters["full_group_scans"] == scans  # all memo hits
    assert [backend.diameter(g) for g in groups] == expected


# -- orders equal the references they replaced ---------------------------


def _reference_split(table, groups, k, backend):
    """The scalar-keyed split: re-sort by ``distance(anchor, i)`` per peel."""
    result = []
    for raw in groups:
        members = sorted(raw)
        while len(members) >= 2 * k:
            anchor = members[0]
            members.sort(key=lambda i: backend.distance(anchor, i))
            result.append(frozenset(members[:k]))
            members = members[k:]
        result.append(frozenset(members))
    return result


def _reference_ball_cover(table, k, diameter_mode, backend):
    """The per-prefix boundary scan with ``Fraction`` heap keys."""
    n, m = table.n_rows, table.degree
    orders, heap = [], []
    for c in range(n):
        row = backend.distance_row(c)
        order = sorted(range(n), key=lambda v: (row[v], v))
        dists = [row[v] for v in order]
        orders.append(order)
        for p in range(k, n + 1):
            if p == n or dists[p] > dists[p - 1]:
                d_est = min(2 * dists[p - 1], m)
                heapq.heappush(heap, (Fraction(d_est, p), d_est, c, p, p))
    uncovered, remaining, chosen = [True] * n, n, []
    while remaining:
        _, d_est, c, p, _ = heapq.heappop(heap)
        newly = sum(1 for v in orders[c][:p] if uncovered[v])
        if newly == 0:
            continue
        if diameter_mode == "exact":
            d_est = backend.diameter(orders[c][:p])
        current = Fraction(d_est, newly)
        if heap and (current, d_est, c, p) > heap[0][:4]:
            heapq.heappush(heap, (current, d_est, c, p, newly))
            continue
        chosen.append(frozenset(orders[c][:p]))
        for v in orders[c][:p]:
            uncovered[v] = False
        remaining -= newly
    return chosen


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 8))
    sigma = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    return random_table(np.random.default_rng(seed), n, m, sigma)


@given(_tables(), st.integers(1, 5), st.sampled_from(["radius_bound", "exact"]))
@settings(max_examples=60, deadline=None)
def test_ball_cover_equals_reference(table, k, mode):
    if table.n_rows < k:
        return
    reference = _reference_ball_cover(
        table, k, mode, make_backend(table, "python")
    )
    for name in ALL_BACKENDS:
        cover = build_ball_cover(table, k, diameter_mode=mode,
                                 backend=make_backend(table, name))
        assert list(cover.groups) == reference


@given(_tables(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_split_equals_reference(table, k):
    n = table.n_rows
    if n < k:
        return
    # one group of everything, plus a scrambled partition into two
    halves = [range(n)] if n < 2 * k else [range(0, n, 2), range(1, n, 2)]
    for groups in ([range(n)], halves):
        if any(len(g) < k for g in groups):
            continue
        expected = _reference_split(
            table, groups, k, make_backend(table, "python")
        )
        for name in ALL_BACKENDS:
            got = split_into_small_groups(table, groups, k,
                                          backend=make_backend(table, name))
            assert got == expected


# -- the float ratio key -------------------------------------------------


@st.composite
def _ratio_pairs(draw):
    """``(m, n, (d1, p1), (d2, p2))`` inside the float key's bound."""
    n = draw(st.integers(1, 2 ** 26))
    m = draw(st.integers(0, (2 ** 52 - 1) // (n * n)))
    d1 = draw(st.integers(0, m))
    p1 = draw(st.integers(1, n))
    if draw(st.booleans()):
        # an equal ratio with another denominator
        scale = draw(st.integers(1, max(1, min(n // p1, m // max(d1, 1)))))
        d2, p2 = d1 * scale, p1 * scale
    else:
        d2 = draw(st.integers(0, m))
        p2 = draw(st.integers(1, n))
    return m, n, (d1, p1), (d2, p2)


@given(_ratio_pairs())
@settings(max_examples=500, deadline=None)
def test_ratio_key_orders_like_fraction(case):
    m, n, (d1, p1), (d2, p2) = case
    key = ratio_key(m, n)
    a, b = key(d1, p1), key(d2, p2)
    exact_a, exact_b = Fraction(d1, p1), Fraction(d2, p2)
    assert (a < b) == (exact_a < exact_b)
    assert (a == b) == (exact_a == exact_b)


def test_ratio_key_at_its_bound():
    n = 2 ** 20
    m = (2 ** 52 - 1) // (n * n)
    key = ratio_key(m, n)
    assert key is not Fraction
    # Farey neighbours: each pair differs by exactly 1 / (p1 * p2)
    assert key(m - 1, n - 1) > key(m - 1, n)
    assert key(1, n - 1) > key(1, n)
    assert key(m, n) == key(m * 2, n * 2)
    assert ratio_key(m + 1, n) is Fraction


def test_encoding_is_row_and_column_major():
    """Both layouts of the code matrix decode back to every cell."""
    table = Table([(0, "a", None), (1, "a", 2.5), (0, "b", None)])
    encoded = make_backend(table, "numpy").encoded
    assert encoded.codes.flags.c_contiguous
    assert encoded.columns.flags.c_contiguous
    assert (encoded.columns == encoded.codes.T).all()
    for i, row in enumerate(table.rows):
        for j, value in enumerate(row):
            assert encoded.decode(j, int(encoded.codes[i, j])) == value


@given(_tables(), st.integers(1, 5), st.sampled_from(["radius_bound", "exact"]))
@settings(max_examples=30, deadline=None)
def test_fraction_candidate_stream_equals_float(table, k, mode):
    """The ``Fraction`` guard branch of the candidate sort picks the same
    sets as the float ``lexsort``, for balls and for small subsets."""
    from repro.algorithms import greedy_cover

    if table.n_rows < k:
        return
    backend = make_backend(table, "numpy")

    def covers():
        balls = build_ball_cover(table, k, diameter_mode=mode, backend=backend)
        groups = [list(balls.groups)]
        if table.n_rows <= 12 and k <= 3:
            subsets = greedy_cover.build_greedy_cover(table, k, backend=backend)
            groups.append(list(subsets.groups))
        return groups

    expected = covers()
    original = greedy_cover.ratio_key
    greedy_cover.ratio_key = lambda m, n: Fraction
    try:
        got = covers()
    finally:
        greedy_cover.ratio_key = original
    assert got == expected

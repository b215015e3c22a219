"""Tests for the Theorem 4.1 greedy-cover algorithm."""

from fractions import Fraction
from itertools import combinations
from operator import truediv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import InfeasibleAnonymizationError
from repro.algorithms.exact import optimal_anonymization
from repro.algorithms.greedy_cover import GreedyCoverAnonymizer, build_greedy_cover
from repro.core.anonymity import is_k_anonymous
from repro.core.backend import available_backends, make_backend
from repro.core.table import Table
from repro.theory import theorem_4_1_ratio

from .conftest import random_table


def eager_greedy_cover(table, k, k_max=None, backend="python"):
    """The reference Theorem 4.1 greedy: every pick scans every
    ``[k, k_max]``-subset for the least ``(d / newly, d, members)``."""
    n = table.n_rows
    upper = min(2 * k - 1 if k_max is None else k_max, n)
    metric = make_backend(table, backend)

    def diameter(members):
        return max((metric.distance(a, b)
                    for a, b in combinations(members, 2)), default=0)

    uncovered = set(range(n))
    chosen = []
    while uncovered:
        best = None
        for size in range(k, upper + 1):
            for members in combinations(range(n), size):
                newly = sum(1 for v in members if v in uncovered)
                if newly == 0:
                    continue
                d = diameter(members)
                key = (Fraction(d, newly), d, members)
                if best is None or key < best:
                    best = key
        chosen.append(frozenset(best[2]))
        uncovered.difference_update(best[2])
    return chosen


@st.composite
def _small_instances(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 14))
    m = draw(st.integers(0, 6))
    sigma = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    k_max = draw(st.sampled_from([None, k, k + 1]))
    return random_table(np.random.default_rng(seed), n, m, sigma), k, k_max


@given(_small_instances(), st.sampled_from([None, 1, 7]))
@settings(max_examples=60, deadline=None)
def test_greedy_cover_equals_eager_reference(instance, chunk):
    """The lazy greedy makes exactly the eager greedy's picks, in order
    and as the same frozensets, on every backend.  Small chunks re-key
    candidates between picks, which the default chunk rarely does on
    tables this small."""
    from repro.algorithms import greedy_cover

    table, k, k_max = instance
    expected = [list(g) for g in eager_greedy_cover(table, k, k_max)]
    original = greedy_cover._CHUNK
    greedy_cover._CHUNK = chunk or original
    try:
        for name in available_backends():
            cover = build_greedy_cover(table, k, k_max=k_max,
                                       backend=make_backend(table, name))
            assert [list(g) for g in cover.groups] == expected
    finally:
        greedy_cover._CHUNK = original


def full_sort_greedy_cover(m, n, d, sizes, members_of, rescore=None,
                           member_rows=None):
    """The lazy greedy as it was before the head-only sort: one lexsort
    of every candidate up front, streamed ``_CHUNK`` at a time."""
    import heapq

    from repro.algorithms import greedy_cover

    chunk = greedy_cover._CHUNK
    ratio = greedy_cover.ratio_key(m, n)
    ratios = d / sizes if ratio is truediv else np.array(
        list(map(ratio, d.tolist(), sizes.tolist())), dtype=object)
    order = np.lexsort((d, ratios))
    uncovered = [True] * n
    requeued = []

    def candidates():
        for start in range(0, len(order), chunk):
            taken = order[start:start + chunk]
            if member_rows is not None:
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
    chosen = []
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


def _synthetic_candidates(seed, n, count, spread):
    """``(d, sizes, member_rows)`` of *count* random subsets of ``0..n-1``
    plus the whole set last.  Diameters in ``0..spread`` and sizes in
    ``1..4`` give few distinct ratios, so ties straddle any cut."""
    rng = np.random.default_rng(seed)
    width = max(4, n)
    rows = np.full((count + 1, width), -1, dtype=np.int64)
    sizes = rng.integers(1, min(4, n) + 1, size=count + 1)
    sizes[-1] = n
    for i, size in enumerate(sizes.tolist()):
        rows[i, :size] = rng.permutation(n)[:size] if i < count else range(n)
    d = rng.integers(0, spread + 1, size=count + 1)
    d[-1] = spread + 1
    return d, sizes, rows


@given(st.integers(0, 2 ** 16), st.sampled_from([3, 12, 40]),
       st.sampled_from([1, 30, 1500]), st.sampled_from([0, 2, 6]),
       st.sampled_from([1024, 7, 1]), st.sampled_from(["ball", "subset"]),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_head_sort_equals_full_sort(seed, n, count, spread, chunk, mode,
                                    rescored):
    """Sorting only the candidates up to the ``_CHUNK``-th least ratio
    picks exactly what one full lexsort picks, in ball mode (with and
    without a first-pop rescore) and in subset mode."""
    from repro.algorithms import greedy_cover

    d, sizes, rows = _synthetic_candidates(seed, n, count, spread)
    kwargs = {"member_rows": rows} if mode == "subset" else {
        "rescore": (lambda members: max(members) % 3) if rescored else None}

    def members_of(i):
        return rows[i, :sizes[i]].tolist()

    original = greedy_cover._CHUNK
    greedy_cover._CHUNK = chunk
    try:
        expected = full_sort_greedy_cover(8, n, d, sizes, members_of, **kwargs)
        got = greedy_cover.lazy_greedy_cover(8, n, d, sizes, members_of,
                                             **kwargs)
    finally:
        greedy_cover._CHUNK = original
    assert got == expected


@pytest.mark.parametrize("chunk", [1024, 7, 1])
def test_head_sort_with_every_ratio_tied(chunk):
    """One ratio for every candidate: the cut ties with all of them, so
    the whole stream is the head, ordered by diameter then index."""
    from repro.algorithms import greedy_cover

    n = 40
    d = np.array([2, 4, 6, 8] * 600, dtype=np.int64)
    sizes = d // 2
    rng = np.random.default_rng(7)
    members = [rng.permutation(n)[:size].tolist() for size in sizes.tolist()]
    members[-1] = list(range(n))
    sizes[-1], d[-1] = n, 2 * n
    original = greedy_cover._CHUNK
    greedy_cover._CHUNK = chunk
    try:
        expected = full_sort_greedy_cover(8, n, d, sizes, members.__getitem__)
        got = greedy_cover.lazy_greedy_cover(8, n, d, sizes,
                                             members.__getitem__)
    finally:
        greedy_cover._CHUNK = original
    assert got == expected


class TestBuildGreedyCover:
    def test_cover_is_valid(self):
        t = Table([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        cover = build_greedy_cover(t, 2)
        cover.validate()
        assert all(2 <= len(g) <= 3 for g in cover.groups)

    def test_prefers_zero_diameter_groups(self):
        t = Table([(7, 7), (7, 7), (0, 1), (1, 0)])
        cover = build_greedy_cover(t, 2)
        assert frozenset({0, 1}) in cover.groups

    def test_single_group_table(self):
        t = Table([(1,), (2,), (3,)])
        cover = build_greedy_cover(t, 3)
        assert cover.groups == (frozenset({0, 1, 2}),)

    def test_deterministic(self):
        import numpy as np

        t = random_table(np.random.default_rng(7), 8, 3, 3)
        assert build_greedy_cover(t, 2).groups == build_greedy_cover(t, 2).groups

    def test_empty_table(self):
        assert len(build_greedy_cover(Table([]), 3)) == 0

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            build_greedy_cover(Table([(1,)]), 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_greedy_cover(Table([(1,)]), 0)

    def test_k_max_below_k_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            build_greedy_cover(Table([(1,), (2,)]), 2, k_max=1)

    def test_k_max_override(self):
        t = Table([(i,) for i in range(6)])
        cover = build_greedy_cover(t, 2, k_max=2)
        assert all(len(g) == 2 for g in cover.groups)


class TestGreedyAnonymizer:
    def test_output_valid(self):
        t = Table([(0, 0), (0, 1), (1, 0), (1, 1)])
        result = GreedyCoverAnonymizer().anonymize(t, 2)
        assert result.is_valid(t)
        assert result.algorithm == "greedy_cover"

    def test_k1_is_free(self):
        t = Table([(0, 5), (1, 6), (2, 7)])
        result = GreedyCoverAnonymizer().anonymize(t, 1)
        assert result.stars == 0

    def test_identical_rows_cost_zero(self):
        t = Table([(3, 1, 4)] * 6)
        assert GreedyCoverAnonymizer().anonymize(t, 3).stars == 0

    def test_planted_pairs_found(self):
        t = Table([(0, 0), (9, 9), (0, 0), (9, 9)])
        result = GreedyCoverAnonymizer().anonymize(t, 2)
        assert result.stars == 0

    def test_infeasible(self):
        with pytest.raises(InfeasibleAnonymizationError):
            GreedyCoverAnonymizer().anonymize(Table([(1,)]), 2)

    def test_empty_table(self):
        result = GreedyCoverAnonymizer().anonymize(Table([]), 3)
        assert result.anonymized.n_rows == 0

    def test_extras_recorded(self):
        t = Table([(0, 0), (0, 1), (1, 0), (1, 1)])
        result = GreedyCoverAnonymizer().anonymize(t, 2)
        assert "cover_sets" in result.extras
        assert (
            result.extras["partition_diameter_sum"]
            <= result.extras["cover_diameter_sum"]
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_always_k_anonymous(self, seed, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 10))
        t = random_table(rng, n, 3, 4)
        result = GreedyCoverAnonymizer().anonymize(t, k)
        assert is_k_anonymous(result.anonymized, k)
        assert result.is_valid(t)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_within_theorem_4_1_bound(self, seed, k):
        """Measured ratio never exceeds 3k(1 + ln 2k) — Theorem 4.1."""
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 9))
        t = random_table(rng, n, 3, 3)
        result = GreedyCoverAnonymizer().anonymize(t, k)
        opt, _ = optimal_anonymization(t, k)
        if opt == 0:
            assert result.stars == 0
        else:
            assert result.stars <= theorem_4_1_ratio(k) * opt

    def test_never_worse_than_suppress_everything(self):
        import numpy as np

        t = random_table(np.random.default_rng(3), 9, 4, 5)
        result = GreedyCoverAnonymizer().anonymize(t, 3)
        assert result.stars <= t.total_cells()
